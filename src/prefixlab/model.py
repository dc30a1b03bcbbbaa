"""Next-scale predictors behind one logits contract.

Two flavours share the ``predict_logits`` entry point: an exactly enumerable
tabular model keyed by token prefixes (used for brute-force oracle checks) and
a smoothed count model that consumes prefix embeddings (used for corruption
and exposure-bias experiments). Sites within one scale are independent
categoricals given the prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInputError, MissingRowError, TooLargeError
from .tokenizer import Codebook, ScaleSchedule, TokenMap, accumulate_latent, pool

# The null condition is the reserved value contrasted against class ids.
Condition = Optional[int]
NULL_CONDITION: Condition = None

PREFIX_STATE_CAP = 200_000
PROB_FLOOR = 1e-9

PrefixKey = tuple[tuple[int, ...], ...]


def prefix_key(prefix) -> PrefixKey:
    """Canonical hashable form of a prefix: one id-tuple per scale."""
    out = []
    for part in prefix:
        if isinstance(part, TokenMap):
            out.append(part.key())
        else:
            out.append(tuple(int(x) for x in part))
    return tuple(out)


def prefix_maps(key: PrefixKey, schedule: ScaleSchedule) -> list[TokenMap]:
    """Inverse of :func:`prefix_key` for scales 1..len(key)."""
    maps = []
    for j, ids in enumerate(key, start=1):
        h, w = schedule.grid(j)
        maps.append(TokenMap(j, np.asarray(ids, dtype=np.int64).reshape(h, w)))
    return maps


def prefix_state_count(schedule: ScaleSchedule, vocab: int) -> int:
    """Number of distinct prefixes summed over all scales k = 1..K."""
    total = 0
    states = 1
    for k in range(1, schedule.num_scales + 1):
        total += states
        states *= vocab ** schedule.sites(k)
    return total


def enumerate_prefix_keys(schedule: ScaleSchedule, vocab: int, k: int) -> list[PrefixKey]:
    """All token prefixes for scales 1..k-1, in lexicographic order."""
    keys: list[PrefixKey] = [()]
    for j in range(1, k):
        sites = schedule.sites(j)
        keys = [
            key + (combo,)
            for key in keys
            for combo in product(range(vocab), repeat=sites)
        ]
    return keys


@dataclass(frozen=True)
class LogitGrid:
    """Per-site vocabulary logits at one scale, shape (h_k, w_k, V)."""

    k: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3:
            raise InvalidInputError("logit grid must have shape (h, w, V)")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("logits must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class PrefixEmbedding:
    """Embedded prefix for the step at scale ``step``.

    ``grids[j-1]`` holds e_{j,u} of shape (h_j, w_j, m). ``pooled[j-1]``
    keeps the pooled cumulative features the content terms were computed
    from, so corruption variants can rebuild individual components.
    """

    step: int
    grids: tuple[np.ndarray, ...]
    pooled: tuple[np.ndarray, ...]

    @property
    def num_prefix_scales(self) -> int:
        return len(self.grids)

    @property
    def embed_dim(self) -> int:
        if not self.grids:
            return 0
        return self.grids[0].shape[-1]


EmbeddingParams = tuple[np.ndarray, tuple[np.ndarray, ...]]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def embedding_params(
    schedule: ScaleSchedule, latent_dim: int, embed_dim: int, embed_seed: int
) -> EmbeddingParams:
    """Seeded content projection (m, d) and per-(scale, site) position tables.

    The arrays are read-only, so one set can be shared by every call.
    """
    rng = np.random.default_rng(embed_seed)
    proj = rng.normal(size=(embed_dim, latent_dim)) / np.sqrt(latent_dim)
    pos = tuple(
        _read_only(rng.normal(size=schedule.grid(j) + (embed_dim,)))
        for j in range(1, schedule.num_scales + 1)
    )
    return _read_only(proj), pos


def embed_prefix(
    prefix: Sequence[TokenMap],
    book: Codebook,
    schedule: ScaleSchedule,
    params: EmbeddingParams,
) -> PrefixEmbedding:
    """e_{j,u} = proj(F_j[u]) + pos(j,u), with F_j the pooled cumulative latent.

    ``params`` are the ``embedding_params`` of ``schedule`` and the codebook's
    latent size, as a fitted count model carries them.
    """
    proj, pos = params
    fh, fw = schedule.final_dims
    latent = np.zeros((fh, fw, book.latent_dim))
    grids = []
    pooled_feats = []
    for j, tmap in enumerate(prefix, start=1):
        latent = accumulate_latent(latent, tmap, book)
        pooled = pool(latent, schedule.grid(j))
        grids.append(pooled @ proj.T + pos[j - 1])
        pooled_feats.append(pooled)
    return PrefixEmbedding(len(grids) + 1, tuple(grids), tuple(pooled_feats))


@dataclass(frozen=True)
class TabularModel:
    """Fully enumerated CPTs p(r_k | r_{<k}, c), one categorical per site."""

    schedule: ScaleSchedule
    vocab: int
    num_conditions: int
    tables: dict  # (c, k, prefix_key) -> np.ndarray (h_k, w_k, V)

    def row(self, condition: Condition, k: int, key: PrefixKey) -> np.ndarray:
        """Probability table for one step; null condition mixes classes uniformly."""
        if condition is NULL_CONDITION:
            rows = [self.row(c, k, key) for c in range(self.num_conditions)]
            return np.mean(rows, axis=0)
        try:
            return self.tables[(condition, k, key)]
        except KeyError:
            raise MissingRowError(
                f"no table row for condition {condition}, scale {k}, prefix {key}"
            ) from None


def build_tabular(
    schedule: ScaleSchedule, vocab: int, num_conditions: int, seed: int
) -> TabularModel:
    """Populate every reachable CPT row from a seeded symmetric Dirichlet."""
    count = prefix_state_count(schedule, vocab)
    if count * num_conditions > PREFIX_STATE_CAP:
        raise TooLargeError(count * num_conditions, PREFIX_STATE_CAP)
    rng = np.random.default_rng(seed)
    tables = {}
    for c in range(num_conditions):
        for k in range(1, schedule.num_scales + 1):
            h, w = schedule.grid(k)
            for key in enumerate_prefix_keys(schedule, vocab, k):
                row = rng.dirichlet(np.ones(vocab), size=(h, w))
                row = np.maximum(row, PROB_FLOOR)
                row /= row.sum(axis=-1, keepdims=True)
                tables[(c, k, key)] = row
    return TabularModel(schedule, vocab, num_conditions, tables)


def tabular_from_rows(
    schedule: ScaleSchedule, vocab: int, num_conditions: int, rows: dict
) -> TabularModel:
    """Build a model from explicit rows keyed by (c, k, prefix_key).

    Row values may be 1-d (single-site scales) or (h, w, V) arrays; they are
    floored and renormalized like generated tables.
    """
    tables = {}
    for (c, k, key), row in rows.items():
        h, w = schedule.grid(k)
        arr = np.asarray(row, dtype=float)
        if arr.ndim == 1:
            arr = np.broadcast_to(arr, (h, w, vocab)).copy()
        arr = np.maximum(arr, PROB_FLOOR)
        arr /= arr.sum(axis=-1, keepdims=True)
        tables[(c, k, key)] = arr
    model = TabularModel(schedule, vocab, num_conditions, tables)
    for c in range(num_conditions):
        for k in range(1, schedule.num_scales + 1):
            for key in enumerate_prefix_keys(schedule, vocab, k):
                model.row(c, k, key)  # raises MissingRowError on gaps
    return model


@dataclass(frozen=True)
class SignatureSpec:
    """Quantizes the mean prefix embedding per scale into a seeded bin grid."""

    bins: int = 4
    seed: int = 0

    def thresholds(self, num_scales: int, embed_dim: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        t = rng.normal(size=(num_scales, embed_dim, self.bins - 1))
        return _read_only(np.sort(t, axis=-1))


def context_signature(embedding: PrefixEmbedding, thresholds: np.ndarray):
    """Per-scale bin tuple of the mean embedding vector; () for empty prefixes.

    ``thresholds`` is ``SignatureSpec.thresholds(num_scales, m)``, as a
    fitted count model carries it.
    """
    if embedding.num_prefix_scales == 0:
        return ()
    means = np.stack([g.reshape(-1, g.shape[-1]).mean(axis=0) for g in embedding.grids])
    # A dimension's bin counts the thresholds strictly below its mean, which
    # is searchsorted's left insertion point in the sorted thresholds.
    bins = (thresholds[: len(means)] < means[:, :, None]).sum(axis=-1)
    return tuple(tuple(row) for row in bins.tolist())


@dataclass(frozen=True)
class CountModel:
    """Smoothed count tables keyed by (scale, condition, context signature)."""

    schedule: ScaleSchedule
    vocab: int
    num_conditions: int
    alpha: float
    spec: SignatureSpec
    embed_seed: int
    embed_dim: int
    counts: dict  # (k, condition, signature) -> np.ndarray (h_k, w_k, V)
    include_null: bool = True
    # Seeded read-only tables, built once per model: the signature thresholds
    # and, per codebook latent size, the embedding_params.
    thresholds: np.ndarray = field(init=False, repr=False, compare=False)
    _embedding: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "thresholds",
            self.spec.thresholds(self.schedule.num_scales, self.embed_dim),
        )

    def embedding_tables(self, latent_dim: int) -> EmbeddingParams:
        """This model's ``embedding_params`` for a codebook of ``latent_dim``."""
        params = self._embedding.get(latent_dim)
        if params is None:
            params = self._embedding[latent_dim] = embedding_params(
                self.schedule, latent_dim, self.embed_dim, self.embed_seed
            )
        return params

    def embed(self, prefix: Sequence[TokenMap], book: Codebook) -> PrefixEmbedding:
        """``embed_prefix`` with this model's cached tables."""
        return embed_prefix(
            prefix, book, self.schedule, self.embedding_tables(book.latent_dim)
        )

    def signature(self, embedding: PrefixEmbedding):
        """``context_signature`` with this model's cached thresholds."""
        return context_signature(embedding, self.thresholds)

    def site_probs(self, condition: Condition, k: int, signature) -> np.ndarray:
        if condition is NULL_CONDITION and not self.include_null:
            raise MissingRowError("count model was fitted without null-condition rows")
        h, w = self.schedule.grid(k)
        counted = self.counts.get((k, condition, signature))
        if counted is None:
            counted = np.zeros((h, w, self.vocab))
        totals = counted.sum(axis=-1, keepdims=True)
        return (counted + self.alpha) / (totals + self.alpha * self.vocab)


def check_corpus_sequence(condition, maps, schedule, vocab, num_conditions, where):
    """Raise InvalidInputError, prefixed by ``where``, unless ``maps`` holds one
    map per scale with ids in 0..vocab-1 and ``condition`` is in 0..num_conditions-1."""
    if len(maps) != schedule.num_scales:
        problem = "sequence does not match the schedule"
    elif not (isinstance(condition, (int, np.integer)) and 0 <= condition < num_conditions):
        problem = f"condition {condition!r} is outside 0..{num_conditions - 1}"
    elif any(m.ids.min() < 0 or m.ids.max() >= vocab for m in maps):
        problem = f"a token id is outside 0..{vocab - 1}"
    else:
        return
    raise InvalidInputError(f"{where}: {problem}")


def fit_count_model(
    corpus: Sequence[tuple[int, Sequence[TokenMap]]],
    schedule: ScaleSchedule,
    book: Codebook,
    vocab: int,
    num_conditions: int,
    alpha: float = 1.0,
    spec: SignatureSpec = SignatureSpec(),
    embed_seed: int = 0,
    embed_dim: int = 4,
    include_null: bool = True,
) -> CountModel:
    """Aggregate per-(scale, condition, signature) token counts over a corpus."""
    if len(corpus) == 0:
        raise InvalidInputError("count-model corpus must be non-empty")
    if alpha <= 0:
        raise InvalidInputError("smoothing constant alpha must be > 0")
    counts: dict = {}
    model = CountModel(
        schedule, vocab, num_conditions, alpha, spec, embed_seed, embed_dim,
        counts, include_null,
    )
    for i, (condition, maps) in enumerate(corpus):
        check_corpus_sequence(
            condition, maps, schedule, vocab, num_conditions, f"corpus sequence {i}"
        )
        for k in range(1, schedule.num_scales + 1):
            sig = model.signature(model.embed(maps[: k - 1], book))
            ids = maps[k - 1].ids
            targets = [(k, condition, sig)]
            if include_null:
                targets.append((k, NULL_CONDITION, sig))
            for key in targets:
                table = counts.setdefault(
                    key, np.zeros(schedule.grid(k) + (vocab,))
                )
                np.add.at(
                    table.reshape(-1, vocab),
                    (np.arange(ids.size), ids.ravel()),
                    1.0,
                )
    return model


def predict_logits(
    model,
    condition: Condition,
    prefix,
    *,
    book: Codebook | None = None,
    embedding: PrefixEmbedding | None = None,
) -> LogitGrid:
    """Scale-k logits for the step following ``prefix``.

    Tabular models take token prefixes (list of TokenMap or a prefix key);
    count models consume a PrefixEmbedding, built from the token prefix when
    one is not supplied directly.
    """
    if isinstance(model, TabularModel):
        key = prefix_key(prefix)
        k = len(key) + 1
        return LogitGrid(k, np.log(model.row(condition, k, key)))
    if isinstance(model, CountModel):
        if embedding is None:
            if book is None:
                raise InvalidInputError("count-model prediction needs a codebook")
            maps = prefix
            if maps and not isinstance(maps[0], TokenMap):
                maps = prefix_maps(prefix_key(prefix), model.schedule)
            embedding = model.embed(maps, book)
        sig = model.signature(embedding)
        k = embedding.step
        return LogitGrid(k, np.log(model.site_probs(condition, k, sig)))
    raise InvalidInputError(f"unknown predictor type {type(model)!r}")
