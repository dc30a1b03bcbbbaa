"""Run configuration: a single strict JSON file drives every command.

Unknown keys and malformed values are rejected by name, never coerced, so
sweeps stay auditable; every value has a default mirrored by a CLI flag.
Model and corpus serialization helpers live here too since they share the
same interchange format.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .corruption import CorruptionVariant
from .errors import ConfigError, InvalidInputError
from .guidance import GuidanceConfig
from .harness import SweepGrid
from .model import (
    CountModel,
    SignatureSpec,
    TabularModel,
    TokenMap,
    build_tabular,
)
from .sampler import SamplerConfig
from .tokenizer import Codebook, ScaleSchedule

CONFIG_VERSION = 1


def _checked(key: str, value, kind: type, minimum=None):
    """``value`` as a JSON value of ``kind``, or a ConfigError naming ``key``.

    Nothing is coerced: a bool is not a number, a float is not an int and a
    string is not a bool. Ints are accepted where floats are expected.
    """
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(
            f"bad value for config key '{key}': expected {kind.__name__}, got {value!r}"
        )
    if minimum is not None and value < minimum:
        raise ConfigError(f"bad value for config key '{key}': {value!r} is below {minimum}")
    return kind(value)


def _take(section: dict, key: str, default, kind=None, minimum=None):
    value = section.pop(key, default)
    if kind is None or (value is None and default is None):
        return value
    return _checked(key, value, kind, minimum)


def _take_list(section: dict, key: str, default: list, kind: type, minimum=None) -> tuple:
    values = section.pop(key, default)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"bad value for config key '{key}': expected a non-empty list")
    return tuple(_checked(key, v, kind, minimum) for v in values)


def _reject_unknown(section: dict, where: str) -> None:
    if section:
        raise ConfigError(f"unknown config key '{next(iter(section))}' in {where}")


def _variant(name: str) -> CorruptionVariant:
    try:
        return CorruptionVariant(name)
    except ValueError:
        raise ConfigError(f"unknown corruption variant '{name}'") from None


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
class VerifySpec:
    tolerance: float = 1e-9
    models: int = 100
    vocab_grid: tuple[int, ...] = (2, 3, 5)
    condition_grid: tuple[int, ...] = (1, 2, 3)
    gammas: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 3.0)
    lambdas: tuple[float, ...] = (0.0, 0.5, 1.0, 1.3, 1.8, 2.4, 3.0)


@dataclass(frozen=True)
class SweepSpec:
    lambdas: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0)
    fractions: tuple[float, ...] = (0.0,)
    variants: tuple[CorruptionVariant, ...] = (
        CorruptionVariant.SAME_SCALE_FULL_EMBEDDING,
    )
    scale_masks: tuple[frozenset[int] | None, ...] = (None,)
    replicates: int = 1
    seed: int = 0
    metric: str = "exact_kl"
    n_samples: int = 16

    def grid(self) -> SweepGrid:
        return SweepGrid(
            self.lambdas, self.fractions, self.variants, self.scale_masks,
            self.replicates, self.seed,
        )


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
    guidance: GuidanceConfig = GuidanceConfig(reference="exact-marginal")
    sampler: SamplerConfig = SamplerConfig()
    verify: VerifySpec = VerifySpec()
    sweep: SweepSpec = SweepSpec()
    ablate: AblateSpec = AblateSpec()

    def __post_init__(self):
        if not 0 <= self.condition < self.num_conditions:
            raise ConfigError(
                f"bad value for config key 'condition': {self.condition} is outside "
                f"0..{self.num_conditions - 1} for num_conditions {self.num_conditions}"
            )

    def codebook(self) -> Codebook:
        return Codebook.seeded(
            self.schedule.num_scales, self.vocab, self.latent_dim,
            self.codebook_seed,
        )


def parse_config(data: dict) -> RunConfig:
    data = dict(data)
    version = _take(data, "version", CONFIG_VERSION, int)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version}")

    try:
        schedule = ScaleSchedule(
            tuple(
                tuple(_checked("schedule", n, int, 1) for n in d)
                for d in _take(data, "schedule", [[1, 1], [1, 1]], list)
            )
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad schedule: {exc}") from exc

    vocab = _take(data, "vocab", 2, int, 1)
    num_conditions = _take(data, "num_conditions", 1, int, 1)
    latent_dim = _take(data, "latent_dim", 2, int, 1)
    codebook_seed = _take(data, "codebook_seed", 7, int)
    embed_dim = _take(data, "embed_dim", 4, int, 1)
    embed_seed = _take(data, "embed_seed", 11, int)
    condition = _take(data, "condition", 0, int)
    output_dir = _take(data, "output_dir", "out", str)

    msec = _take(data, "model", {}, dict)
    model = ModelSpec(
        kind=_take(msec, "kind", "tabular", str),
        seed=_take(msec, "seed", 3, int),
        alpha=_take(msec, "alpha", 1.0, float),
        signature_bins=_take(msec, "signature_bins", 4, int),
        signature_seed=_take(msec, "signature_seed", 0, int),
        include_null=_take(msec, "include_null", True, bool),
        corpus_path=_take(msec, "corpus_path", None, str),
        corpus_count=_take(msec, "corpus_count", 40, int),
        corpus_seed=_take(msec, "corpus_seed", 5, int),
    )
    _reject_unknown(msec, "model")
    if model.kind not in ("tabular", "count"):
        raise ConfigError(f"unknown model kind '{model.kind}'")

    gsec = _take(data, "guidance", {}, dict)
    mask = _take(gsec, "scale_mask", None)
    try:
        guidance = GuidanceConfig(
            gamma=_take(gsec, "gamma", 0.0, float),
            lam=_take(gsec, "lambda", 0.0, float),
            fraction=_take(gsec, "n_p", 0.0, float),
            variant=_variant(_take(gsec, "variant", "same_scale_full_embedding", str)),
            scale_mask=None if mask is None else frozenset(
                _checked("scale_mask", k, int, 1) for k in mask
            ),
            reference=_take(gsec, "reference", "exact-marginal", str),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad guidance section: {exc}") from exc
    _reject_unknown(gsec, "guidance")

    ssec = _take(data, "sampler", {}, dict)
    top_k = _take(ssec, "top_k", None, int)
    try:
        sampler = SamplerConfig(
            temperature=_take(ssec, "temperature", 1.0, float),
            top_k=top_k,
            top_p=_take(ssec, "top_p", 1.0, float),
            seed=_take(ssec, "seed", 0, int),
        )
    except Exception as exc:
        raise ConfigError(f"bad sampler section: {exc}") from exc
    _reject_unknown(ssec, "sampler")

    vsec = _take(data, "verify", {}, dict)
    verify = VerifySpec(
        tolerance=_take(vsec, "tolerance", 1e-9, float),
        models=_take(vsec, "models", 100, int, 0),
        vocab_grid=_take_list(vsec, "vocab_grid", [2, 3, 5], int, 1),
        condition_grid=_take_list(vsec, "condition_grid", [1, 2, 3], int, 1),
        gammas=_take_list(vsec, "gammas", [0.0, 0.5, 1.0, 1.5, 3.0], float),
        lambdas=_take_list(vsec, "lambdas", [0.0, 0.5, 1.0, 1.3, 1.8, 2.4, 3.0], float),
    )
    _reject_unknown(vsec, "verify")

    wsec = _take(data, "sweep", {}, dict)
    masks = _take(wsec, "scale_masks", [None], list)
    sweep = SweepSpec(
        lambdas=_take_list(wsec, "lambdas", [0.0, 0.5, 1.0, 2.0], float),
        fractions=_take_list(wsec, "n_ps", [0.0], float),
        variants=tuple(
            _variant(v) for v in _take(
                wsec, "variants", ["same_scale_full_embedding"]
            )
        ),
        scale_masks=tuple(
            None if m is None else frozenset(
                _checked("scale_masks", k, int, 1)
                for k in _checked("scale_masks", m, list)
            )
            for m in masks
        ),
        replicates=_take(wsec, "replicates", 1, int),
        seed=_take(wsec, "seed", 0, int),
        metric=_take(wsec, "metric", "exact_kl", str),
        n_samples=_take(wsec, "n_samples", 16, int),
    )
    _reject_unknown(wsec, "sweep")

    asec = _take(data, "ablate", {}, dict)
    ablate = AblateSpec(
        lambdas=_take_list(asec, "lambdas", [0.0, 0.5, 1.0], float),
        fraction=_take(asec, "n_p", 0.1, float),
        replicates=_take(asec, "replicates", 1, int),
        seed=_take(asec, "seed", 0, int),
        n_samples=_take(asec, "n_samples", 16, int),
    )
    _reject_unknown(asec, "ablate")

    _reject_unknown(data, "top level")
    return RunConfig(
        schedule, vocab, num_conditions, latent_dim, codebook_seed,
        embed_dim, embed_seed, condition, output_dir,
        model, guidance, sampler, verify, sweep, ablate,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return parse_config(data)


def corpus_to_csv(corpus, path) -> None:
    """One row per sequence: condition then all token ids in scale order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for condition, maps in corpus:
            tokens = [t for m in maps for t in m.key()]
            writer.writerow([condition] + tokens)


def corpus_from_csv(path, schedule: ScaleSchedule):
    corpus = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            condition = int(row[0])
            tokens = [int(x) for x in row[1:]]
            expected = sum(schedule.sites(k) for k in range(1, schedule.num_scales + 1))
            if len(tokens) != expected:
                raise InvalidInputError("corpus row does not match the schedule")
            maps = []
            pos = 0
            for k in range(1, schedule.num_scales + 1):
                h, w = schedule.grid(k)
                maps.append(
                    TokenMap(k, np.asarray(tokens[pos : pos + h * w]).reshape(h, w))
                )
                pos += h * w
            corpus.append((condition, maps))
    return corpus


def model_to_config(model) -> dict:
    """Structured serialization with version tag and embedded seeds."""
    if isinstance(model, TabularModel):
        if model.seed is None:
            raise InvalidInputError("only seed-built tabular models serialize")
        return {
            "version": CONFIG_VERSION,
            "kind": "tabular",
            "schedule": [list(d) for d in model.schedule.dims],
            "vocab": model.vocab,
            "num_conditions": model.num_conditions,
            "seed": model.seed,
        }
    if isinstance(model, CountModel):
        counts = [
            {
                "scale": k,
                "condition": c,
                "signature": list(list(s) for s in sig),
                "table": table.tolist(),
            }
            for (k, c, sig), table in sorted(
                model.counts.items(),
                key=lambda kv: (kv[0][0], -1 if kv[0][1] is None else kv[0][1], kv[0][2]),
            )
        ]
        return {
            "version": CONFIG_VERSION,
            "kind": "count",
            "schedule": [list(d) for d in model.schedule.dims],
            "vocab": model.vocab,
            "num_conditions": model.num_conditions,
            "alpha": model.alpha,
            "signature_bins": model.spec.bins,
            "signature_seed": model.spec.seed,
            "embed_seed": model.embed_seed,
            "embed_dim": model.embed_dim,
            "include_null": model.include_null,
            "counts": counts,
        }
    raise InvalidInputError(f"cannot serialize model type {type(model)!r}")


def model_from_config(data: dict):
    data = dict(data)

    def take(key, kind, minimum=None):
        return _checked(key, data.pop(key, None), kind, minimum)

    version = data.pop("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported model version {version}")
    kind = data.pop("kind", None)
    schedule = ScaleSchedule(tuple(tuple(d) for d in data.pop("schedule")))
    vocab = take("vocab", int, 1)
    num_conditions = take("num_conditions", int, 1)
    if kind == "tabular":
        seed = take("seed", int)
        _reject_unknown(data, "tabular model")
        return build_tabular(schedule, vocab, num_conditions, seed)
    if kind == "count":
        counts = {}
        for entry in data.pop("counts"):
            sig = tuple(tuple(int(b) for b in s) for s in entry["signature"])
            condition = entry["condition"]
            key = (int(entry["scale"]),
                   None if condition is None else int(condition), sig)
            counts[key] = np.asarray(entry["table"], dtype=float)
        model = CountModel(
            schedule, vocab, num_conditions,
            alpha=take("alpha", float),
            spec=SignatureSpec(take("signature_bins", int, 1),
                               take("signature_seed", int)),
            embed_seed=take("embed_seed", int),
            embed_dim=take("embed_dim", int, 1),
            counts=counts,
            include_null=take("include_null", bool),
        )
        _reject_unknown(data, "count model")
        return model
    raise ConfigError(f"unknown model kind '{kind}'")
