"""Next-scale predictors behind one logits contract.

Two flavours share the ``predict_logits`` entry point: an exactly enumerable
tabular model keyed by token prefixes (used for brute-force oracle checks) and
a smoothed count model that consumes prefix embeddings (used for corruption
and exposure-bias experiments). Sites within one scale are independent
categoricals given the prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .errors import POSITIVE, InvalidInputError, MissingRowError, TooLargeError, integral
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
        elif all(map(integral, part)):
            out.append(tuple(int(x) for x in part))
        else:
            raise InvalidInputError(f"prefix ids must be integers, got {part!r}")
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


@lru_cache(maxsize=None)
def scale_maps(vocab: int, sites: int) -> tuple[tuple[int, ...], ...]:
    """Every token map of ``sites`` sites over ``vocab`` ids, as id tuples in
    lexicographic order: the one map order of every enumeration."""
    return tuple(product(range(vocab), repeat=sites))


def enumerate_prefix_keys(schedule: ScaleSchedule, vocab: int, k: int) -> list[PrefixKey]:
    """All token prefixes for scales 1..k-1, in lexicographic order."""
    keys: list[PrefixKey] = [()]
    for j in range(1, k):
        maps = scale_maps(vocab, schedule.sites(j))
        keys = [key + (ids,) for key in keys for ids in maps]
    return keys


@dataclass(frozen=True)
class PrefixEmbedding:
    """Embedded prefix for the step at scale ``step``.

    ``grids[j-1]`` holds e_{j,u} of shape (h_j, w_j, m). ``pooled[j-1]``
    keeps the pooled cumulative features the content terms were computed
    from, so corruption variants can rebuild individual components.
    """

    grids: tuple[np.ndarray, ...]
    pooled: tuple[np.ndarray, ...]

    @property
    def step(self) -> int:
        return len(self.grids) + 1

    @property
    def stacked(self) -> bool:
        """Whether the grids carry a leading axis of prefixes, one row each."""
        return bool(self.grids) and self.grids[0].ndim == 4

    @staticmethod
    def stack(embeddings: Sequence["PrefixEmbedding"]) -> "PrefixEmbedding":
        """Embeddings for one step stacked on a leading axis, one row each."""
        return PrefixEmbedding(
            tuple(np.stack(grids) for grids in zip(*(e.grids for e in embeddings))),
            tuple(np.stack(pooled) for pooled in zip(*(e.pooled for e in embeddings))),
        )

    def row(self, i: int) -> "PrefixEmbedding":
        """Row i of a stacked embedding."""
        return PrefixEmbedding(tuple(g[i] for g in self.grids), tuple(p[i] for p in self.pooled))

    def extended(self, grid: np.ndarray, pooled: np.ndarray) -> "PrefixEmbedding":
        """This embedding with one more scale: the embedding for the next step."""
        return PrefixEmbedding(self.grids + (grid,), self.pooled + (pooled,))


EMPTY_EMBEDDING = PrefixEmbedding((), ())

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


def embed_scale(
    latent: np.ndarray, j: int, schedule: ScaleSchedule, params: EmbeddingParams
) -> tuple[np.ndarray, np.ndarray]:
    """Scale j's embedding grid e_{j,u} = proj(F_j[u]) + pos(j,u) and its pooled
    features F_j, from the cumulative latent after scale j.

    ``latent`` is (fh, fw, d), or (n, fh, fw, d) for a stack of n prefixes,
    which gives grids with the same leading axis.
    """
    proj, pos = params
    pooled = pool(latent, schedule.grid(j))
    return pooled @ proj.T + pos[j - 1], pooled


def embed_prefix(
    prefix: Sequence[TokenMap | np.ndarray],
    book: Codebook,
    schedule: ScaleSchedule,
    params: EmbeddingParams,
) -> PrefixEmbedding:
    """The prefix's maps folded in one scale at a time by :func:`embed_scale`.

    ``prefix`` is one prefix's token maps, or for each scale j the stacked
    (n, h_j, w_j) ids of n prefixes, which gives their stacked embedding.
    ``params`` are the ``embedding_params`` of ``schedule`` and the codebook's
    latent size, as a fitted count model carries them.
    """
    ids = [m.ids if isinstance(m, TokenMap) else m for m in prefix]
    rows = ids[0].shape[:-2] if ids else ()
    latent = np.zeros(rows + schedule.final_dims + (book.latent_dim,))
    embedding = EMPTY_EMBEDDING
    for j, scale_ids in enumerate(ids, start=1):
        latent = accumulate_latent(latent, j, scale_ids, book)
        embedding = embedding.extended(*embed_scale(latent, j, schedule, params))
    return embedding


def _floored(rows: np.ndarray) -> np.ndarray:
    """``rows``, an array of the caller's own, floored at PROB_FLOOR and
    renormalized along the last axis in place; a table's block of rows then
    needs no second copy."""
    np.maximum(rows, PROB_FLOOR, out=rows)
    rows /= rows.sum(axis=-1, keepdims=True)
    return rows


@dataclass(frozen=True)
class TabularModel:
    """Fully enumerated CPTs p(r_k | r_{<k}, c), one categorical per site."""

    schedule: ScaleSchedule
    vocab: int
    num_conditions: int
    tables: dict  # (c, k, prefix_key) -> np.ndarray (h_k, w_k, V)
    # One read-only (h_k, w_k, V) exact per-site prefix marginal per
    # (condition, k), kept by ``oracle.prefix_marginal_sites``: a guided
    # rollout asks for the same few keys at every step.
    _marginals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def rows(self, condition: Condition, k: int, keys: Sequence[PrefixKey]) -> np.ndarray:
        """Probability tables of a stack of scale-k prefix keys, (P, h_k, w_k, V).
        The null condition mixes the classes uniformly: one mean over the
        stacked class rows, the same bits as a mean per key."""
        if condition is NULL_CONDITION:
            return np.mean([self.rows(c, k, keys) for c in range(self.num_conditions)], axis=0)
        return np.stack([self.row(condition, k, key) for key in keys])

    def row(self, condition: Condition, k: int, key: PrefixKey) -> np.ndarray:
        """Probability table for one step; null condition mixes classes uniformly."""
        if condition is NULL_CONDITION:
            return self.rows(condition, k, [key])[0]
        try:
            return self.tables[(condition, k, key)]
        except KeyError:
            raise MissingRowError(
                f"no table row for condition {condition}, scale {k}, prefix {key}"
            ) from None


def build_tabular(
    schedule: ScaleSchedule, vocab: int, num_conditions: int, seed: int
) -> TabularModel:
    """Populate every reachable CPT row from a seeded symmetric Dirichlet.

    Each (condition, k) block of rows is drawn in one (P, h_k, w_k) call,
    which takes the generator's stream in the order one draw per prefix
    would, so every row is the same bit for bit.
    """
    count = prefix_state_count(schedule, vocab)
    if count * num_conditions > PREFIX_STATE_CAP:
        raise TooLargeError(count * num_conditions, PREFIX_STATE_CAP)
    rng = np.random.default_rng(seed)
    tables = {}
    for c in range(num_conditions):
        for k in range(1, schedule.num_scales + 1):
            keys = enumerate_prefix_keys(schedule, vocab, k)
            size = (len(keys),) + schedule.grid(k)
            block = _floored(rng.dirichlet(np.ones(vocab), size=size))
            tables.update(((c, k, key), row) for key, row in zip(keys, block))
    return TabularModel(schedule, vocab, num_conditions, tables)


def tabular_from_rows(
    schedule: ScaleSchedule, vocab: int, num_conditions: int, rows: dict
) -> TabularModel:
    """Build a model from explicit rows keyed by (c, k, prefix_key).

    Row values may be (V,) arrays, shared by every site of the scale, or
    (h_k, w_k, V) arrays of finite non-negative weights with some mass at
    every site; they are floored and renormalized like generated tables. Any
    other row raises InvalidInputError naming its (c, k, key).
    """
    tables = {}
    for (c, k, key), row in rows.items():
        h, w = schedule.grid(k)
        arr = np.asarray(row, dtype=float)
        if arr.shape not in ((vocab,), (h, w, vocab)):
            raise InvalidInputError(
                f"row {(c, k, key)} has shape {arr.shape}, not {(vocab,)} or {(h, w, vocab)}"
            )
        if not np.all(np.isfinite(arr) & (arr >= 0)):
            raise InvalidInputError(f"row {(c, k, key)} has a negative or non-finite weight")
        if not np.all(arr.sum(axis=-1) > 0):
            raise InvalidInputError(f"row {(c, k, key)} has a site with no mass")
        tables[(c, k, key)] = _floored(np.broadcast_to(arr, (h, w, vocab)).copy())
    model = TabularModel(schedule, vocab, num_conditions, tables)
    for c in range(num_conditions):
        for k in range(1, schedule.num_scales + 1):
            for key in enumerate_prefix_keys(schedule, vocab, k):
                model.row(c, k, key)  # raises MissingRowError on gaps
    return model


@dataclass(frozen=True)
class SignatureSpec:
    """Quantizes the mean prefix embedding per scale into a seeded bin grid."""

    bins: int
    seed: int

    def thresholds(self, num_scales: int, embed_dim: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        t = rng.normal(size=(num_scales, embed_dim, self.bins - 1))
        return _read_only(np.sort(t, axis=-1))


def scale_bins(grid: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Per-dimension bin of the mean embedding vector of one scale's grid.

    ``grid`` is (h, w, m), or (n, h, w, m) for a stack, and ``thresholds``
    is that scale's (m, bins - 1) slice of the signature thresholds. A
    dimension's bin counts the thresholds strictly below its mean, which is
    searchsorted's left insertion point in the sorted thresholds.
    """
    means = grid.reshape(grid.shape[:-3] + (-1, grid.shape[-1])).mean(axis=-2)
    return (thresholds < means[..., None]).sum(axis=-1)


def context_signature(embedding: PrefixEmbedding, thresholds: np.ndarray):
    """Per-scale bin tuple of the mean embedding vector; () for empty prefixes.

    ``thresholds`` is ``SignatureSpec.thresholds(num_scales, m)``, as a
    fitted count model carries it. A stacked embedding gives the list of its
    rows' signatures, each scale binned once for the whole stack.
    """
    bins = [scale_bins(grid, thresholds[j]).tolist() for j, grid in enumerate(embedding.grids)]
    if embedding.stacked:
        return [tuple(map(tuple, row)) for row in zip(*bins)]
    return tuple(map(tuple, bins))


@dataclass(frozen=True)
class SignedEmbedding:
    """A prefix embedding and its context signature, built by ``CountModel.sign``
    (or ``extend``, which bins only the new scale).

    Branches evaluated on one embedding share it, so the signature is
    computed once per embedding.
    """

    embedding: PrefixEmbedding
    signature: tuple


@dataclass(frozen=True)
class CountModel:
    """Smoothed count tables keyed by (scale, condition, context signature), and
    the read-only signature ``thresholds`` and embedding ``params`` that sign a
    prefix, seeded once by ``fit_count_model``."""

    schedule: ScaleSchedule
    vocab: int
    num_conditions: int
    alpha: float
    thresholds: np.ndarray = field(repr=False, compare=False)
    params: EmbeddingParams = field(repr=False, compare=False)
    counts: dict  # (k, condition, signature) -> np.ndarray (h_k, w_k, V)
    include_null: bool
    # One read-only (h_k, w_k, V) grid per (condition, k, signature) that
    # ``predict_logits`` was asked for: rollouts ask for few distinct keys
    # many times over (97% of the bench ablate's count-model calls repeat
    # one), so it grows with the distinct prefix signatures, not the calls.
    _logits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def embed(self, prefix: Sequence[TokenMap], book: Codebook) -> SignedEmbedding:
        """The prefix's signed embedding under this model's tables."""
        fitted = self.params[0].shape[1]
        if book.latent_dim != fitted:
            raise InvalidInputError(
                f"codebook latent size {book.latent_dim} is not the fitted {fitted}"
            )
        return self.sign(embed_prefix(prefix, book, self.schedule, self.params))

    def sign(self, embedding: PrefixEmbedding) -> SignedEmbedding | list[SignedEmbedding]:
        """``embedding`` together with its signature under this model; a
        stacked embedding gives each of its rows, in a list."""
        signature = context_signature(embedding, self.thresholds)
        if embedding.stacked:
            return [SignedEmbedding(embedding.row(i), sig) for i, sig in enumerate(signature)]
        return SignedEmbedding(embedding, signature)

    def extend(
        self, signed: Sequence[SignedEmbedding], latent: np.ndarray
    ) -> list[SignedEmbedding]:
        """Each signed embedding of a batch extended by one scale.

        ``signed`` are embeddings for one step k, and ``latent`` stacks the
        prefixes' cumulative latents after scale k, shape (n, fh, fw, d).
        The new scale is embedded for the whole batch at once, and only it
        is binned: the signature of the rest is carried over.
        """
        k = signed[0].embedding.step
        if any(s.embedding.step != k for s in signed) or len(signed) != len(latent):
            raise InvalidInputError("a batch extends one latent per embedding, all for one step")
        grid, pooled = embed_scale(latent, k, self.schedule, self.params)
        bins = scale_bins(grid, self.thresholds[k - 1]).tolist()
        return [
            SignedEmbedding(s.embedding.extended(grid[i], pooled[i]), s.signature + (tuple(b),))
            for i, (s, b) in enumerate(zip(signed, bins))
        ]

    def site_probs(self, condition: Condition, k: int, signature) -> np.ndarray:
        if condition is NULL_CONDITION:
            if not self.include_null:
                raise MissingRowError("gamma > 0 reads null rows; the count model has none")
        elif condition not in range(self.num_conditions):
            raise MissingRowError(f"count model has no rows for condition {condition!r}")
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
    alpha: float,
    spec: SignatureSpec,
    embed_seed: int,
    embed_dim: int,
    include_null: bool,
) -> CountModel:
    """Aggregate per-(scale, condition, signature) token counts over a corpus."""
    if len(corpus) == 0:
        raise InvalidInputError("count-model corpus must be non-empty")
    if not POSITIVE.holds(alpha):
        raise InvalidInputError(f"smoothing constant alpha {alpha!r} is not {POSITIVE.text}")
    counts: dict = {}
    model = CountModel(
        schedule, vocab, num_conditions, alpha,
        spec.thresholds(schedule.num_scales, embed_dim),
        embedding_params(schedule, book.latent_dim, embed_dim, embed_seed),
        counts, include_null,
    )
    for i, (condition, maps) in enumerate(corpus):
        check_corpus_sequence(
            condition, maps, schedule, vocab, num_conditions, f"corpus sequence {i}"
        )
    # Every sequence advances one scale at a time: its step-k signature
    # counts its scale-k ids, then its embedding is extended by that scale.
    latent = np.zeros((len(corpus),) + schedule.final_dims + (book.latent_dim,))
    signed = [model.sign(EMPTY_EMBEDDING)] * len(corpus)
    for k in range(1, schedule.num_scales + 1):
        ids = np.stack([maps[k - 1].ids for _, maps in corpus])
        # Site u's id v is bin u * vocab + v of a sequence's histogram.
        flat = ids.reshape(len(corpus), -1) + np.arange(schedule.sites(k)) * vocab
        members: dict = {}
        for i, ((condition, _), s) in enumerate(zip(corpus, signed)):
            members.setdefault((condition, s.signature), []).append(i)
        for (condition, sig), rows in members.items():
            hist = np.bincount(flat[rows].ravel(), minlength=flat.shape[1] * vocab)
            table = hist.reshape(schedule.grid(k) + (vocab,)).astype(float)
            counts[(k, condition, sig)] = table
            if include_null:
                null = counts.setdefault((k, NULL_CONDITION, sig), np.zeros_like(table))
                null += table
        if k < schedule.num_scales:
            latent = accumulate_latent(latent, k, ids, book)
            signed = model.extend(signed, latent)
    return model


def predict_logits(
    model,
    condition: Condition,
    prefix,
    *,
    book: Codebook | None = None,
    signed: SignedEmbedding | None = None,
) -> np.ndarray:
    """Scale-k logits, shape (h_k, w_k, V), for the step following ``prefix``.

    Tabular models take token prefixes (list of TokenMap or a prefix key).
    Count models read ``signed``, the prefix's signed embedding, when the
    caller has it (several branches on one embedding share its signature);
    otherwise they embed the token maps ``prefix`` with ``book``. A count
    model's grid is kept per (condition, k, signature) and returned again on
    a repeat call; it is read-only.
    """
    if isinstance(model, TabularModel):
        key = prefix_key(prefix)
        return np.log(model.row(condition, len(key) + 1, key))
    if isinstance(model, CountModel):
        if signed is None:
            if book is None:
                raise InvalidInputError("count-model prediction needs a codebook")
            if not all(isinstance(m, TokenMap) for m in prefix):
                raise InvalidInputError("a count model embeds token maps, not prefix keys")
            signed = model.embed(prefix, book)
        key = (condition, signed.embedding.step, signed.signature)
        logits = model._logits.get(key)
        if logits is None:
            logits = model._logits[key] = _read_only(np.log(model.site_probs(*key)))
        return logits
    raise InvalidInputError(f"unknown predictor type {type(model)!r}")
