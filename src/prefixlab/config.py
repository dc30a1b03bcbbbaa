"""Run configuration: a single strict JSON file drives every command.

Frozen dataclasses are the only schema, and every section lives here, below
the layers that read it (``GuidanceConfig`` for guidance, ``VerifySpec`` for
oracle, ``SamplerConfig`` for sampler, ``SweepGrid`` for harness): loading the
schema loads no layer, and each layer imports its section from here.
``RunConfig()`` holds every default: the CLI runs it when no file is given,
and ``data/default_config.json`` is its written-out copy. ``parse_config`` takes
each key's type from its field's annotation; its range is declared on the
field (``errors.bounded``) and checked whenever the dataclass is built. Unknown
keys and malformed or out-of-range values are rejected by name, never coerced.
The corpus CSV that ``model.corpus_path`` names is read and written here.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import types
import typing
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from itertools import islice

from .corruption import CorruptionVariant, selection_size
from .errors import (INTEGER, NONNEGATIVE, NONNEGATIVE_INT, POSITIVE, POSITIVE_INT, UNIT_INTERVAL,
                     Bound, ConfigError, GuidanceConfigError, InvalidInputError,
                     InvalidScheduleError, PrefixLabError, bounded, check_fields, one_of, real)
from .model import check_corpus_sequence, prefix_maps
from .tokenizer import Codebook, ScaleSchedule

CONFIG_VERSION = 1

def _checked(key: str, value, kind: type):
    """``value`` as a JSON value of ``kind``, or a ConfigError naming ``key``.

    Nothing is coerced: a bool is not a number, a float is not an int and a
    string is not a bool. Ints are accepted where floats are expected.
    """
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"bad value for config key '{key}': "
                          f"expected {kind.__name__}, got {value!r}")
    return kind(value)


def _reject_unknown(section: dict, where: str) -> None:
    if section:
        raise ConfigError(f"unknown config key '{next(iter(section))}' in {where}")


def _value(key: str, hint, raw, default=None):
    """The JSON value ``raw`` as a value of the annotated type ``hint``;
    ``default`` is the section a dataclass starts from."""
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
    return _checked(key, raw, hint)


@functools.cache
def _type_hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _json_key(f) -> str:
    return f.metadata.get("json") or f.name


def _parse_section(cls, raw: dict, default, where: str):
    """``default`` with each field that ``raw`` sets replaced by its parsed value.

    ``where`` is the section's own key, "" at the top level; errors name a
    field's key qualified by it, as in 'sweep.seed'.
    """
    hints = _type_hints(cls)
    keys = {f.name: _json_key(f) for f in fields(cls)}

    def named(key: str) -> str:
        return f"{where}.{key}" if where else key

    values = {name: _value(named(key), hints[name], raw.pop(key), getattr(default, name))
              for name, key in keys.items() if key in raw}
    _reject_unknown(raw, where or "top level")
    try:
        return replace(default, **values)
    except PrefixLabError as exc:
        if not hasattr(exc, "field"):
            raise
        raise ConfigError(f"bad value for config key '{named(keys[exc.field])}': {exc}") from exc


def _json_form(value):
    if isinstance(value, ScaleSchedule):
        return [list(d) for d in value.dims]
    if is_dataclass(value):
        return {_json_key(f): _json_form(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_json_form(v) for v in value]
    return value


@dataclass(frozen=True)
class ModelSpec:
    kind: str = bounded("tabular", one_of("tabular", "count"))
    seed: int = bounded(3, NONNEGATIVE_INT)
    alpha: float = bounded(1.0, POSITIVE)
    signature_bins: int = bounded(4, POSITIVE_INT)
    signature_seed: int = bounded(0, NONNEGATIVE_INT)
    include_null: bool = True
    corpus_path: str | None = None
    corpus_count: int = bounded(40, POSITIVE_INT)
    corpus_seed: int = bounded(5, NONNEGATIVE_INT)

    def __post_init__(self):
        check_fields(self, ConfigError)


@dataclass(frozen=True)
class GuidanceConfig:
    """One record drives a whole rollout.

    ``scale_mask`` limits where the prefix contrast applies (None = every
    scale). ``reference`` selects the weak-prefix branch, on either model
    kind: "corrupted" runs the predictor on the prefix corrupted under
    ``variant`` (``same_scale_position`` and ``same_scale_full_embedding``
    rewrite embeddings, so only a count model has them), "exact-marginal"
    injects the brute-force per-site prefix marginal, walked over the
    model's own prefix law while that space is under ``PREFIX_STATE_CAP``.
    """

    gamma: float = bounded(0.0, NONNEGATIVE)
    lam: float = bounded(0.0, NONNEGATIVE, "lambda")
    fraction: float = bounded(0.0, UNIT_INTERVAL, "n_p")
    variant: CorruptionVariant = CorruptionVariant.SAME_SCALE_FULL_EMBEDDING
    scale_mask: frozenset[int] | None = bounded(None, INTEGER)
    reference: str = bounded("exact-marginal", one_of("corrupted", "exact-marginal"))

    def __post_init__(self):
        check_fields(self, GuidanceConfigError)
        if self.scale_mask is not None:
            object.__setattr__(self, "scale_mask", frozenset(int(k) for k in self.scale_mask))

    def masked_in(self, k: int) -> bool:
        return self.scale_mask is None or k in self.scale_mask

    def contrasts(self, k: int) -> bool:
        """Whether the step at scale k has a weak-prefix branch pair."""
        return self.lam > 0 and k >= 2 and self.masked_in(k)

    def draws_plan(self, k: int, schedule: ScaleSchedule) -> bool:
        """Whether the step at scale k on ``schedule`` runs under a corruption
        plan: then its weak-prefix pair depends on the plan, not only on the
        prefix. A site-selecting variant whose n_p × (prefix sites of k)
        rounds to zero selects no site, so its step needs no plan and its
        corrupted pair is the clean pair; ``uniform_prefix`` always draws."""
        return self.contrasts(k) and self.reference == "corrupted" and (
            self.variant is CorruptionVariant.UNIFORM_PREFIX
            or selection_size(schedule, k, self.fraction) > 0
        )


@dataclass(frozen=True)
class SamplerConfig:
    temperature: float = bounded(1.0, POSITIVE)
    top_k: int | None = bounded(None, POSITIVE_INT)
    top_p: float = bounded(1.0, Bound("a number inside (0, 1]", lambda v: real(v) and 0 < v <= 1))
    seed: int = bounded(0, NONNEGATIVE_INT)

    def __post_init__(self):
        check_fields(self, InvalidInputError)


@dataclass(frozen=True)
class VerifySpec:
    """The config's ``verify`` section: ``verify_identities`` reads the row
    tolerance and strengths, the ``verify`` command the model grid too."""

    tolerance: float = bounded(1e-9, NONNEGATIVE)
    models: int = bounded(100, NONNEGATIVE_INT)
    vocab_grid: tuple[int, ...] = bounded((2, 3, 5), POSITIVE_INT)
    condition_grid: tuple[int, ...] = bounded((1, 2, 3), POSITIVE_INT)
    gammas: tuple[float, ...] = bounded((0.0, 0.5, 1.0, 1.5, 3.0), NONNEGATIVE)
    lambdas: tuple[float, ...] = bounded((0.0, 0.5, 1.0, 1.3, 1.8, 2.4, 3.0), NONNEGATIVE)

    def __post_init__(self):
        check_fields(self, InvalidInputError)


@dataclass(frozen=True)
class SweepGrid:
    """The cells a sweep runs and the metric it reports, as the config's
    ``sweep`` section. ``grid_hash`` covers the six grid axes and seeds only.

    metric "exact_kl": exact KL between the guided rollout law and the
    model's own unguided, untruncated joint, on an enumerable prefix space,
    for either model kind wherever each guided scale's law is
    deterministic (the exact-marginal reference, or a corrupted one whose
    variant selects no site there). metric "toy_frechet": Fréchet distance
    between ``n_samples`` guided rollout latents and the reference images.
    """

    lambdas: tuple[float, ...] = bounded((0.0, 0.5, 1.0, 2.0), NONNEGATIVE)
    fractions: tuple[float, ...] = bounded((0.0,), UNIT_INTERVAL, "n_ps")
    variants: tuple[CorruptionVariant, ...] = (CorruptionVariant.SAME_SCALE_FULL_EMBEDDING,)
    scale_masks: tuple[frozenset[int] | None, ...] = bounded((None,), INTEGER)
    replicates: int = bounded(1, POSITIVE_INT)
    seed: int = bounded(0, NONNEGATIVE_INT)
    metric: str = bounded("exact_kl", one_of("exact_kl", "toy_frechet"))
    n_samples: int = bounded(16, POSITIVE_INT)

    def __post_init__(self):
        if not (self.lambdas and self.fractions and self.variants and self.scale_masks):
            raise InvalidInputError("sweep grid axes must be non-empty")
        check_fields(self, InvalidInputError)

    def cells(self):
        idx = 0
        for lam in self.lambdas:
            for fraction in self.fractions:
                for variant in self.variants:
                    for mask in self.scale_masks:
                        yield idx, lam, fraction, variant, mask
                        idx += 1

    def grid_hash(self) -> str:
        text = repr(
            (self.lambdas, self.fractions,
             tuple(v.value for v in self.variants),
             tuple(sorted(m) if m is not None else None for m in self.scale_masks),
             self.replicates, self.seed)
        )
        return hashlib.blake2s(text.encode(), digest_size=6).hexdigest()


@dataclass(frozen=True)
class AblateSpec:
    lambdas: tuple[float, ...] = bounded((0.0, 0.5, 1.0), NONNEGATIVE)
    fraction: float = bounded(0.1, UNIT_INTERVAL, "n_p")
    replicates: int = bounded(1, POSITIVE_INT)
    seed: int = bounded(0, NONNEGATIVE_INT)
    n_samples: int = bounded(16, POSITIVE_INT)

    def __post_init__(self):
        check_fields(self, ConfigError)


@dataclass(frozen=True)
class RunConfig:
    schedule: ScaleSchedule = ScaleSchedule(((1, 1), (1, 1)))
    vocab: int = bounded(2, POSITIVE_INT)
    num_conditions: int = bounded(1, POSITIVE_INT)
    latent_dim: int = bounded(2, POSITIVE_INT)
    codebook_seed: int = bounded(7, NONNEGATIVE_INT)
    embed_dim: int = bounded(4, POSITIVE_INT)
    embed_seed: int = bounded(11, NONNEGATIVE_INT)
    condition: int = 0
    output_dir: str = "out"
    model: ModelSpec = ModelSpec()
    guidance: GuidanceConfig = GuidanceConfig()
    sampler: SamplerConfig = SamplerConfig()
    verify: VerifySpec = VerifySpec()
    sweep: SweepGrid = SweepGrid()
    ablate: AblateSpec = AblateSpec()

    def __post_init__(self):
        check_fields(self, ConfigError)
        if not 0 <= self.condition < self.num_conditions:
            raise ConfigError(f"bad value for config key 'condition': {self.condition} is "
                              f"outside 0..{self.num_conditions - 1} for num_conditions "
                              f"{self.num_conditions}")
        # A mask naming no scale of the schedule would silently turn the
        # prefix contrast off.
        scales = self.schedule.num_scales
        for key, masks in (("guidance.scale_mask", (self.guidance.scale_mask,)),
                           ("sweep.scale_masks", self.sweep.scale_masks)):
            for mask in masks:
                outside = sorted(k for k in mask or () if not 1 <= k <= scales)
                if outside:
                    raise ConfigError(
                        f"bad value for config key '{key}': scale {outside[0]} is "
                        f"outside 1..{scales} for a schedule of {scales} scales"
                    )
        # toy_frechet fits a covariance, which needs two rollouts; ablate
        # always scores with it, a sweep only when its metric is toy_frechet.
        frechet_samples = {"ablate": self.ablate.n_samples}
        if self.sweep.metric == "toy_frechet":
            frechet_samples["sweep"] = self.sweep.n_samples
        for section, n_samples in frechet_samples.items():
            if n_samples < 2:
                raise ConfigError(f"bad value for config key '{section}.n_samples': {n_samples} "
                                  "is not at least 2 for the toy_frechet metric")

    def codebook(self) -> Codebook:
        return Codebook.seeded(self.schedule.num_scales, self.vocab, self.latent_dim,
                               self.codebook_seed)


def parse_config(data: dict) -> RunConfig:
    data = dict(data)
    version = _checked("version", data.pop("version", CONFIG_VERSION), int)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version}")
    return _parse_section(RunConfig, data, RunConfig(), "")


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


def corpus_from_csv(path, schedule: ScaleSchedule, vocab: int, num_conditions: int):
    """The corpus of a CSV with one sequence per row: its condition, then
    every token id of every scale's map in scale order, each map row-major.
    A row that is not one such sequence for a model of this shape is an
    InvalidInputError naming its line; blank lines are skipped."""
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

