"""Run configuration: a single strict JSON file drives every command.

Frozen dataclasses are the only schema; a section lives with its reader
(``VerifySpec`` in oracle, ``SweepGrid`` in harness). ``RunConfig()`` holds
every default: the CLI runs it when no file is given, and
``data/default_config.json`` is its written-out copy. ``parse_config`` takes
each key's type from its field's annotation and its range from ``_BOUNDS``.
Unknown keys and malformed or out-of-range values are rejected by name, never
coerced. The corpus CSV that ``model.corpus_path`` names is read and written here.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import types
import typing
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from itertools import islice

from .errors import ConfigError, InvalidInputError, InvalidScheduleError, PrefixLabError
from .guidance import GuidanceConfig
from .harness import SweepGrid
from .model import check_corpus_sequence, prefix_maps
from .oracle import VerifySpec
from .sampler import SamplerConfig
from .tokenizer import Codebook, ScaleSchedule

CONFIG_VERSION = 1

# JSON keys that differ from their dataclass field names.
_JSON_KEYS = {"lam": "lambda", "fraction": "n_p", "fractions": "n_ps"}

# The values a key may take beyond its type, by JSON key. A list-valued key
# is checked element by element.
_BOUNDS = {
    **dict.fromkeys(
        ("schedule", "vocab", "num_conditions", "latent_dim", "embed_dim",
         "signature_bins", "corpus_count", "vocab_grid", "condition_grid",
         "scale_mask", "scale_masks", "replicates", "n_samples", "top_k"),
        (lambda v: v >= 1, "at least 1"),
    ),
    **dict.fromkeys(("models", "seed", "codebook_seed", "embed_seed", "signature_seed",
                     "corpus_seed"), (lambda v: v >= 0, "at least 0")),
    **dict.fromkeys(("n_p", "n_ps"), (lambda v: 0 <= v <= 1, "inside [0, 1]")),
    **dict.fromkeys(("tolerance", "gamma", "lambda", "gammas", "lambdas"),
                    (lambda v: 0 <= v < math.inf, "finite and at least 0")),
    "alpha": (lambda v: v > 0, "above 0"),
    "kind": (lambda v: v in ("tabular", "count"), "'tabular' or 'count'"),
    "metric": (lambda v: v in ("exact_kl", "toy_frechet"), "'exact_kl' or 'toy_frechet'"),
}


def _checked(key: str, value, kind: type):
    """``value`` as a JSON value of ``kind``, or a ConfigError naming ``key``.

    Nothing is coerced: a bool is not a number, a float is not an int and a
    string is not a bool. Ints are accepted where floats are expected.
    """
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(
            f"bad value for config key '{key}': expected {kind.__name__}, got {value!r}"
        )
    return kind(value)


def _reject_unknown(section: dict, where: str) -> None:
    if section:
        raise ConfigError(f"unknown config key '{next(iter(section))}' in {where}")


def _value(key: str, hint, raw, default=None):
    """The JSON value ``raw`` as a value of the annotated type ``hint``, inside
    the bounds of ``key``; ``default`` is the section a dataclass starts from."""
    if hint is ScaleSchedule:
        try:
            return ScaleSchedule(_value(key, tuple[tuple[int, ...], ...], raw))
        except (InvalidScheduleError, ValueError) as exc:  # ValueError: not a pair
            raise ConfigError(f"bad value for config key '{key}': {exc}") from exc
    if is_dataclass(hint):
        return _parse_section(hint, _checked(key, raw, dict), default, key)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # every union in the schema is ``X | None``
        return None if raw is None else _value(key, args[0], raw)
    if origin is tuple:  # ``tuple[X, ...]``
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"bad value for config key '{key}': expected a non-empty list")
        return tuple(_value(key, args[0], v) for v in raw)
    if origin is frozenset:
        return frozenset(_value(key, args[0], v) for v in _checked(key, raw, list))
    if issubclass(hint, Enum):
        try:
            return hint(_checked(key, raw, str))
        except ValueError:
            raise ConfigError(
                f"bad value for config key '{key}': unknown {hint.__name__} {raw!r}"
            ) from None
    value = _checked(key, raw, hint)
    if key in _BOUNDS and not _BOUNDS[key][0](value):
        raise ConfigError(f"bad value for config key '{key}': {value!r} is not {_BOUNDS[key][1]}")
    return value


@functools.cache
def _type_hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _parse_section(cls, raw: dict, default, where: str):
    """``default`` with each field that ``raw`` sets replaced by its parsed value."""
    hints = _type_hints(cls)
    values = {}
    for f in fields(cls):
        key = _JSON_KEYS.get(f.name, f.name)
        if key in raw:
            values[f.name] = _value(key, hints[f.name], raw.pop(key), getattr(default, f.name))
    _reject_unknown(raw, where)
    try:
        return replace(default, **values)
    except ConfigError:
        raise
    except PrefixLabError as exc:
        raise ConfigError(f"bad {where} section: {exc}") from exc


def _json_form(value):
    if isinstance(value, ScaleSchedule):
        return [list(d) for d in value.dims]
    if is_dataclass(value):
        return {
            _JSON_KEYS.get(f.name, f.name): _json_form(getattr(value, f.name))
            for f in fields(value)
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_json_form(v) for v in value]
    return value


@dataclass(frozen=True)
class ModelSpec:
    kind: str = "tabular"
    seed: int = 3
    alpha: float = 1.0
    signature_bins: int = 4
    signature_seed: int = 0
    include_null: bool = True
    corpus_path: str | None = None
    corpus_count: int = 40
    corpus_seed: int = 5


@dataclass(frozen=True)
class AblateSpec:
    lambdas: tuple[float, ...] = (0.0, 0.5, 1.0)
    fraction: float = 0.1
    replicates: int = 1
    seed: int = 0
    n_samples: int = 16


@dataclass(frozen=True)
class RunConfig:
    schedule: ScaleSchedule = ScaleSchedule(((1, 1), (1, 1)))
    vocab: int = 2
    num_conditions: int = 1
    latent_dim: int = 2
    codebook_seed: int = 7
    embed_dim: int = 4
    embed_seed: int = 11
    condition: int = 0
    output_dir: str = "out"
    model: ModelSpec = ModelSpec()
    guidance: GuidanceConfig = GuidanceConfig()
    sampler: SamplerConfig = SamplerConfig()
    verify: VerifySpec = VerifySpec()
    sweep: SweepGrid = SweepGrid()
    ablate: AblateSpec = AblateSpec()

    def __post_init__(self):
        if not 0 <= self.condition < self.num_conditions:
            raise ConfigError(
                f"bad value for config key 'condition': {self.condition} is outside "
                f"0..{self.num_conditions - 1} for num_conditions {self.num_conditions}"
            )
        # A mask naming no scale of the schedule would silently turn the
        # prefix contrast off.
        scales = self.schedule.num_scales
        for key, masks in (("scale_mask", (self.guidance.scale_mask,)),
                           ("scale_masks", self.sweep.scale_masks)):
            for mask in masks:
                outside = sorted(k for k in mask or () if not 1 <= k <= scales)
                if outside:
                    raise ConfigError(
                        f"bad value for config key '{key}': scale {outside[0]} is "
                        f"outside 1..{scales} for a schedule of {scales} scales"
                    )
        # toy_frechet fits a covariance, which needs two rollouts; ablate
        # always scores with it, a sweep only when its metric is toy_frechet.
        frechet_samples = [self.ablate.n_samples]
        if self.sweep.metric == "toy_frechet":
            frechet_samples.append(self.sweep.n_samples)
        for n_samples in frechet_samples:
            if n_samples < 2:
                raise ConfigError(
                    f"bad value for config key 'n_samples': {n_samples} is not at "
                    f"least 2 for the toy_frechet metric"
                )

    def codebook(self) -> Codebook:
        return Codebook.seeded(
            self.schedule.num_scales, self.vocab, self.latent_dim,
            self.codebook_seed,
        )


def parse_config(data: dict) -> RunConfig:
    data = dict(data)
    version = _checked("version", data.pop("version", CONFIG_VERSION), int)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version}")
    return _parse_section(RunConfig, data, RunConfig(), "top level")


def config_to_json(cfg: RunConfig) -> dict:
    """The JSON object that ``parse_config`` reads back as ``cfg``."""
    return {"version": CONFIG_VERSION, **_json_form(cfg)}


def read_config(path) -> dict:
    """The JSON object held in the config file at ``path``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def load_config(path) -> RunConfig:
    return parse_config(read_config(path))


def corpus_to_csv(corpus, path) -> None:
    """One row per sequence: condition then all token ids in scale order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for condition, maps in corpus:
            tokens = [t for m in maps for t in m.key()]
            writer.writerow([condition] + tokens)


def corpus_from_csv(path, schedule: ScaleSchedule, vocab: int, num_conditions: int):
    """The corpus ``corpus_to_csv`` wrote for a model of this shape; a row
    that is not one such sequence is an InvalidInputError naming its line."""
    expected = sum(schedule.sites(k) for k in range(1, schedule.num_scales + 1))
    corpus = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            where = f"corpus line {reader.line_num}"
            try:
                condition, *tokens = (int(x) for x in row)
            except ValueError:
                raise InvalidInputError(f"{where}: {','.join(row)!r} is not all integers") from None
            if len(tokens) != expected:
                raise InvalidInputError(f"{where}: row does not match the schedule")
            # Clamping into -1..vocab keeps each id inside or outside 0..vocab-1
            # and within int64, so check_corpus_sequence names any bad id.
            ids = iter(min(max(t, -1), vocab) for t in tokens)
            key = [tuple(islice(ids, schedule.sites(k)))
                   for k in range(1, schedule.num_scales + 1)]
            maps = prefix_maps(key, schedule)
            check_corpus_sequence(condition, maps, schedule, vocab, num_conditions, where)
            corpus.append((condition, maps))
    return corpus

