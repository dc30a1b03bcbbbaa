"""Next-scale predictors behind one logits contract.

Two flavours share the ``predict_logits`` entry point: an exactly enumerable
tabular model keyed by token prefixes (used for brute-force oracle checks) and
a smoothed count model that consumes prefix embeddings (used for corruption
and exposure-bias experiments). Sites within one scale are independent
categoricals given the prefix.

Both kinds carry prefixes in one form, the signed stack: prefixes of one
step with the list of their rows' signatures, the keys the model reads them
by, so one prefix is a stack of one row. Each kind owns three operations on
it: ``embed`` turns prefixes (token maps or prefix keys), checked by
``prefix_problem``, into a stack; ``extend`` adds the scale just sampled;
``branch_logits`` reads a stack's logits, (P, h, w, V). A tabular stack's
signatures are its rows' prefix keys and it has no embedding; a count
stack's embedding stacks its rows' prefix embeddings, which its signatures
bin.
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


def check_condition(condition) -> None:
    """Raise InvalidInputError naming ``condition`` unless it is the null
    condition or an integer: a bool or float hashes as the class it equals,
    so it would read that class's rows."""
    if condition is not NULL_CONDITION and not integral(condition):
        raise InvalidInputError(f"condition {condition!r} is not an integer or the null condition")


def prefix_problem(prefix, schedule: ScaleSchedule, scales: int) -> str | None:
    """What keeps ``prefix`` from holding scales 1..``scales``, naming the
    first scale at fault, or None. It has ``scales`` parts; the map at
    position j has ``k == j`` and ids of shape ``schedule.grid(j)``, and a
    key's part j has ``schedule.sites(j)`` integer ids."""
    if len(prefix) != scales:
        return f"it holds {len(prefix)} scales, not {scales}"
    for j, part in enumerate(prefix, start=1):
        if isinstance(part, TokenMap):
            if (part.k, part.ids.shape) != (j, schedule.grid(j)):
                return (f"the map at scale {j} has k={part.k} and shape {part.ids.shape}, "
                        f"not k={j} and shape {schedule.grid(j)}")
        elif len(part) != schedule.sites(j) or not all(map(integral, part)):
            return f"the key's part at scale {j} is not {schedule.sites(j)} integer ids"
    return None


def check_codebook(model, book: Codebook) -> None:
    """Raise InvalidInputError naming both shapes unless ``book`` has a code
    table per scale of ``model`` and one code per token id."""
    if (book.num_scales, book.vocab) != (model.schedule.num_scales, model.vocab):
        raise InvalidInputError(
            f"a codebook of {book.num_scales} scales x {book.vocab} codes does not fit a "
            f"model of {model.schedule.num_scales} scales x {model.vocab} token ids")


def _check_prefixes(prefixes: Sequence, schedule: ScaleSchedule) -> None:
    """Raise InvalidInputError naming the first of ``prefixes`` that does not
    hold the first prefix's scales, each as ``prefix_problem`` requires, and
    the scale at fault."""
    for i, prefix in enumerate(prefixes):
        if problem := prefix_problem(prefix, schedule, len(prefixes[0])):
            raise InvalidInputError(f"prefix {i}: {problem}")


def prefix_maps(key: PrefixKey, schedule: ScaleSchedule) -> list[TokenMap]:
    """The token maps of a prefix key, scales 1..len(key): the inverse of
    ``TokenMap.key()`` scale by scale."""
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
    """Embedded prefixes of n rows for the step at scale ``step``.

    ``grids[j-1]`` holds each row's e_{j,u}, shape (n, h_j, w_j, m).
    ``pooled[j-1]`` keeps the pooled cumulative features the content terms
    were computed from, so corruption variants can rebuild individual
    components.
    """

    grids: tuple[np.ndarray, ...]
    pooled: tuple[np.ndarray, ...]

    @property
    def step(self) -> int:
        return len(self.grids) + 1

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

    ``latent`` stacks the cumulative latents of n prefixes, (n, fh, fw, d),
    which gives grids with the same leading axis.
    """
    proj, pos = params
    pooled = pool(latent, schedule.grid(j))
    return pooled @ proj.T + pos[j - 1], pooled


def embed_prefix(
    ids: Sequence[np.ndarray],
    book: Codebook,
    schedule: ScaleSchedule,
    params: EmbeddingParams,
) -> PrefixEmbedding:
    """The stacked embedding of n prefixes, their maps folded in one scale at
    a time by :func:`embed_scale`.

    ``ids`` holds for each scale j the stacked (n, h_j, w_j) ids of the n
    prefixes; with no scale it gives ``EMPTY_EMBEDDING``. ``params`` are
    the ``embedding_params`` of ``schedule`` and the codebook's latent size,
    as a fitted count model carries them.
    """
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


@dataclass(frozen=True, eq=False)
class TabularModel:
    """Fully enumerated CPTs p(r_k | r_{<k}, c), one categorical per site;
    compared and hashed by identity, as its tables are arrays."""

    schedule: ScaleSchedule
    vocab: int
    num_conditions: int
    tables: dict  # (c, k, prefix key) -> np.ndarray (h_k, w_k, V)
    # One read-only (h_k, w_k, V) exact per-site prefix marginal per
    # (condition, k), kept by ``oracle.prefix_marginal_sites``: a guided
    # rollout asks for the same few keys at every step.
    _marginals: dict = field(default_factory=dict, init=False, repr=False)

    def embed(self, prefixes: Sequence, book: Codebook | None = None) -> SignedEmbedding:
        """The stack of ``prefixes``, prefixes of one step each given as its
        token maps or its prefix key, checked as ``CountModel.embed`` checks
        them; its signatures are their prefix keys. ``book`` is not read."""
        _check_prefixes(prefixes, self.schedule)
        return SignedEmbedding(None, [
            tuple(p.key() if isinstance(p, TokenMap) else tuple(map(int, p)) for p in prefix)
            for prefix in prefixes])

    def extend(self, signed: SignedEmbedding, ids: np.ndarray, latent) -> SignedEmbedding:
        """A stack of step k extended by the rows' scale-k ``ids``, (n, h_k,
        w_k): each row's key gains its ids. ``latent`` is not read."""
        parts = ids.reshape(len(ids), -1).tolist()
        return SignedEmbedding(None, [s + (tuple(p),) for s, p in zip(signed.signature, parts)])

    def branch_logits(self, condition: Condition, k: int, signatures: Sequence) -> np.ndarray:
        """The log table rows of a stack's signatures at scale k, (P, h_k, w_k, V)."""
        return np.log(self.rows(condition, k, signatures))

    def rows(self, condition: Condition, k: int, keys: Sequence[PrefixKey]) -> np.ndarray:
        """Probability tables of a stack of scale-k prefix keys, (P, h_k, w_k, V).
        The null condition mixes the classes uniformly: one mean over the
        stacked class rows, the same bits as a mean per key. Each class row
        is read by ``row``, which checks the condition first."""
        if condition is NULL_CONDITION:
            return np.mean([self.rows(c, k, keys) for c in range(self.num_conditions)], axis=0)
        return np.stack([self.row(condition, k, key) for key in keys])

    def row(self, condition: Condition, k: int, key: PrefixKey) -> np.ndarray:
        """Probability table for one step; null condition mixes classes uniformly."""
        check_condition(condition)
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
    """Build a model from explicit rows keyed by (c, k, prefix key).

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

    ``grid`` is a stack's (n, h, w, m), which gives (n, m) bins, and
    ``thresholds`` is that scale's (m, bins - 1) slice of the signature
    thresholds. A dimension's bin counts the thresholds strictly below its
    mean, which is searchsorted's left insertion point in the sorted
    thresholds.
    """
    means = grid.reshape(grid.shape[:-3] + (-1, grid.shape[-1])).mean(axis=-2)
    return (thresholds < means[..., None]).sum(axis=-1)


def context_signature(embedding: PrefixEmbedding, thresholds: np.ndarray) -> list:
    """The list of a stacked embedding's rows' signatures: a row's is the
    bin tuple of its mean embedding vector per scale, each scale binned once
    for the whole stack.

    ``thresholds`` is ``SignatureSpec.thresholds(num_scales, m)``, as a
    fitted count model carries it. ``EMPTY_EMBEDDING`` has no row to bin;
    ``CountModel.embed`` gives each row of step 1 the signature ().
    """
    bins = [scale_bins(grid, thresholds[j]).tolist() for j, grid in enumerate(embedding.grids)]
    return [tuple(map(tuple, row)) for row in zip(*bins)]


@dataclass(frozen=True)
class SignedEmbedding:
    """A signed stack, built by a model's ``embed``: prefixes of one step
    and the list of its rows' signatures, the keys the model reads them by.

    A tabular stack's signatures are its rows' prefix keys and its
    ``embedding`` is None. A count stack's embedding stacks its rows'
    prefix embeddings and its signatures bin them, so branches evaluated on
    one stack share each signature. A signature has one part per scale of
    the prefix, and the stack of step 1 has one () per row, so the list
    carries the row count and the step.
    """

    embedding: PrefixEmbedding | None
    signature: list

    @property
    def step(self) -> int:
        """The step the rows' prefixes are for: one past their scales."""
        return len(self.signature[0]) + 1

    def take(self, rows: Sequence[int]) -> "SignedEmbedding":
        """The signed stack of ``rows`` of this stack, in that order."""
        e = self.embedding
        taken = None if e is None else PrefixEmbedding(
            *(tuple(a[rows] for a in arrays) for arrays in (e.grids, e.pooled)))
        return SignedEmbedding(taken, [self.signature[i] for i in rows])


@dataclass(frozen=True, eq=False)
class CountModel:
    """Smoothed count tables keyed by (scale, condition, context signature), and
    the read-only signature ``thresholds`` and embedding ``params`` that sign a
    prefix, seeded once by ``fit_count_model``; compared and hashed by
    identity, as its tables are arrays."""

    schedule: ScaleSchedule
    vocab: int
    num_conditions: int
    alpha: float
    thresholds: np.ndarray = field(repr=False)
    params: EmbeddingParams = field(repr=False)
    counts: dict  # (k, condition, signature) -> np.ndarray (h_k, w_k, V)
    include_null: bool
    # One read-only (h_k, w_k, V) grid per (condition, k, signature) that
    # ``logits`` was asked for: rollouts ask for few distinct keys
    # many times over (97% of the bench ablate's count-model calls repeat
    # one), so it grows with the distinct prefix signatures, not the calls.
    _logits: dict = field(default_factory=dict, init=False, repr=False)

    def embed(self, prefixes: Sequence, book: Codebook) -> SignedEmbedding:
        """The signed stack of ``prefixes``, prefixes of one step each given
        as its token maps or its prefix key, embedded in one stacked
        ``embed_prefix`` call. A prefix that does not hold the first
        prefix's scales, each as ``prefix_problem`` requires, raises
        InvalidInputError naming it and the scale at fault, and so does a
        codebook that does not fit (``check_codebook``)."""
        fitted = self.params[0].shape[1]
        if book is None:
            raise InvalidInputError("a count model embeds a prefix with the codebook")
        if book.latent_dim != fitted:
            raise InvalidInputError(
                f"codebook latent size {book.latent_dim} is not the fitted {fitted}"
            )
        check_codebook(self, book)
        _check_prefixes(prefixes, self.schedule)
        ids = [np.array([p.ids.ravel() if isinstance(p, TokenMap) else p for p in parts],
                        dtype=np.int64).reshape((len(parts),) + self.schedule.grid(j))
               for j, parts in enumerate(zip(*prefixes), start=1)]
        embedding = embed_prefix(ids, book, self.schedule, self.params)
        return SignedEmbedding(embedding, context_signature(embedding, self.thresholds)
                               if ids else [()] * len(prefixes))

    def extend(self, signed: SignedEmbedding, ids, latent: np.ndarray) -> SignedEmbedding:
        """A signed stack of step k extended by one scale.

        ``latent`` stacks the rows' cumulative latents after scale k, shape
        (n, fh, fw, d), which already hold the scale-k ``ids`` (not read).
        The new scale is embedded and binned for the whole stack at once;
        each row's signature of the rest is carried over.
        """
        k = signed.step
        if len(signed.signature) != len(latent):
            raise InvalidInputError("a stack extends one latent per row")
        grid, pooled = embed_scale(latent, k, self.schedule, self.params)
        bins = scale_bins(grid, self.thresholds[k - 1]).tolist()
        return SignedEmbedding(signed.embedding.extended(grid, pooled),
                               [s + (tuple(b),) for s, b in zip(signed.signature, bins)])

    def branch_logits(self, condition: Condition, k: int, signatures: Sequence) -> np.ndarray:
        """The scale-k logits of a stack's signatures, (P, h_k, w_k, V): each
        distinct signature's ``logits`` read once and gathered row by row."""
        distinct: dict = {}
        index = [distinct.setdefault(sig, len(distinct)) for sig in signatures]
        return np.stack([self.logits(condition, k, sig) for sig in distinct])[index]

    def logits(self, condition: Condition, k: int, signature) -> np.ndarray:
        """The read-only scale-k logits of a prefix with this signature, kept
        per (condition, k, signature)."""
        check_condition(condition)
        key = (condition, k, signature)
        logits = self._logits.get(key)
        if logits is None:
            logits = self._logits[key] = _read_only(np.log(self.site_probs(*key)))
        return logits

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
    map per scale, as ``prefix_problem`` requires, with ids in 0..vocab-1, and
    ``condition`` is in 0..num_conditions-1."""
    if problem := prefix_problem(maps, schedule, schedule.num_scales):
        pass
    elif not integral(condition):
        problem = f"condition {condition!r} is not an integer"
    elif not 0 <= condition < num_conditions:
        problem = f"condition {condition!r} is outside 0..{num_conditions - 1}"
    elif any(m.ids.min() < 0 or m.ids.max() >= vocab for m in maps):
        problem = f"a token id is outside 0..{vocab - 1}"
    else:
        return
    raise InvalidInputError(f"{where}: {problem}")


def _corpus_ids(corpus, schedule, vocab, num_conditions) -> list[np.ndarray]:
    """Each scale's ids stacked over the corpus, (n, h_k, w_k), once every
    sequence passes ``check_corpus_sequence``. Once every sequence has its
    scales' maps (``prefix_problem``), the other checks run on the stacks; only
    where one fails is each sequence checked in turn, so the error names the
    first bad sequence and its first problem, as a loop over the sequences
    does."""
    fits = all(prefix_problem(maps, schedule, schedule.num_scales) is None for _, maps in corpus)
    ids = [np.stack([maps[k - 1].ids for _, maps in corpus])
           for k in range(1, schedule.num_scales + 1)] if fits else None
    conditions = [condition for condition, _ in corpus]
    if ids is None or not (
        all(map(integral, conditions))
        and 0 <= min(conditions) and max(conditions) < num_conditions
        and all(grid.min() >= 0 and grid.max() < vocab for grid in ids)
    ):
        for i, (condition, maps) in enumerate(corpus):
            check_corpus_sequence(
                condition, maps, schedule, vocab, num_conditions, f"corpus sequence {i}"
            )
    return ids


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
    """Aggregate per-(scale, condition, signature) token counts over a corpus,
    whose every sequence must pass ``check_corpus_sequence``."""
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
    scale_ids = _corpus_ids(corpus, schedule, vocab, num_conditions)
    # Every sequence advances one scale at a time: its step-k signature
    # counts its scale-k ids, then its embedding is extended by that scale.
    latent = np.zeros((len(corpus),) + schedule.final_dims + (book.latent_dim,))
    signed = SignedEmbedding(EMPTY_EMBEDDING, [()] * len(corpus))
    for k, ids in enumerate(scale_ids, start=1):
        # Site u's id v is bin u * vocab + v of a sequence's histogram.
        flat = ids.reshape(len(corpus), -1) + np.arange(schedule.sites(k)) * vocab
        members: dict = {}
        for i, ((condition, _), sig) in enumerate(zip(corpus, signed.signature)):
            members.setdefault((condition, sig), []).append(i)
        for (condition, sig), rows in members.items():
            hist = np.bincount(flat[rows].ravel(), minlength=flat.shape[1] * vocab)
            table = hist.reshape(schedule.grid(k) + (vocab,)).astype(float)
            counts[(k, condition, sig)] = table
            if include_null:
                null = counts.setdefault((k, NULL_CONDITION, sig), np.zeros_like(table))
                null += table
        if k < schedule.num_scales:
            latent = accumulate_latent(latent, k, ids, book)
            signed = model.extend(signed, ids, latent)
    return model


def predict_logits(
    model,
    condition: Condition,
    prefix,
    *,
    book: Codebook | None = None,
) -> np.ndarray:
    """Scale-k logits, shape (h_k, w_k, V), for the step following ``prefix``.

    ``prefix`` is one prefix, its token maps or its prefix key, embedded on
    its own by the model's ``embed`` as a stack of one row (a count model's
    with ``book``), whose row 0 of ``branch_logits`` is returned: the
    per-prefix reference that a row of a stacked, carried or corrupted
    signed stack equals bit for bit. A caller holding a signed stack reads
    its rows with ``branch_logits``; a ``SignedEmbedding`` given here raises
    InvalidInputError.
    """
    if isinstance(prefix, SignedEmbedding):
        raise InvalidInputError("predict_logits takes one prefix, not a signed stack")
    if not isinstance(model, (TabularModel, CountModel)):
        raise InvalidInputError(f"unknown predictor type {type(model)!r}")
    signed = model.embed([prefix], book)
    return model.branch_logits(condition, signed.step, signed.signature)[0]
