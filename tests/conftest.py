"""Shared fixtures: small enumerable models and hand-built codebooks."""

import numpy as np
import pytest

from prefixlab.corruption import apply_corruption
from prefixlab.model import (
    PrefixEmbedding,
    SignatureSpec,
    SignedEmbedding,
    build_tabular,
    fit_count_model,
    tabular_from_rows,
)
from prefixlab.tokenizer import Codebook, ScaleSchedule, TokenMap, synthetic_images


def fixture_m1():
    """Two single-site scales, V=2, C=1, with hand-checkable round numbers."""
    schedule = ScaleSchedule(((1, 1), (1, 1)))
    rows = {
        (0, 1, ()): [0.75, 0.25],
        (0, 2, ((0,),)): [0.6, 0.4],
        (0, 2, ((1,),)): [0.2, 0.8],
    }
    return tabular_from_rows(schedule, 2, 1, rows)


@pytest.fixture
def m1():
    return fixture_m1()


@pytest.fixture
def m1_schedule():
    return ScaleSchedule(((1, 1), (1, 1)))


@pytest.fixture
def m1_book(m1_schedule):
    return Codebook.seeded(2, 2, 2, seed=7)


@pytest.fixture
def small_schedule():
    return ScaleSchedule(((1, 1), (2, 2)))


@pytest.fixture
def small_book(small_schedule):
    return Codebook.seeded(2, 3, 2, seed=7)


@pytest.fixture
def small_tabular(small_schedule):
    return build_tabular(small_schedule, vocab=3, num_conditions=2, seed=0)


def make_corpus(schedule, book, num_conditions, count, seed):
    """Encode seeded synthetic images into (condition, maps) pairs."""
    from prefixlab.tokenizer import encode_multiscale

    images = synthetic_images(schedule, book.latent_dim, seed, count)
    return [
        (i % num_conditions, encode_multiscale(img, schedule, book))
        for i, img in enumerate(images)
    ]


@pytest.fixture
def small_count(small_schedule, small_book):
    corpus = make_corpus(small_schedule, small_book, num_conditions=2, count=12, seed=5)
    return fit_count_model(
        corpus, small_schedule, small_book, vocab=3, num_conditions=2,
        alpha=1.0, spec=SignatureSpec(bins=4, seed=0), embed_seed=11, embed_dim=4,
        include_null=True,
    )


@pytest.fixture
def multisite_schedule():
    return ScaleSchedule(((1, 1), (2, 2), (4, 4)))


@pytest.fixture
def multisite_book(multisite_schedule):
    return Codebook.seeded(3, 4, 3, seed=7)


@pytest.fixture
def multisite_count(multisite_schedule, multisite_book):
    """A count model whose every scale after the first has several sites."""
    corpus = make_corpus(multisite_schedule, multisite_book, num_conditions=2, count=40, seed=5)
    return fit_count_model(
        corpus, multisite_schedule, multisite_book, vocab=4, num_conditions=2,
        alpha=1.0, spec=SignatureSpec(bins=4, seed=0), embed_seed=11, embed_dim=4,
        include_null=True,
    )


def uniform_maps(schedule, vocab, seed):
    """One random TokenMap per scale, for prefix-construction helpers."""
    rng = np.random.default_rng(seed)
    return [
        TokenMap(k, rng.integers(0, vocab, schedule.grid(k)))
        for k in range(1, schedule.num_scales + 1)
    ]


def stack_row(stack, i):
    """Row i of a stacked embedding, as one embedding."""
    return PrefixEmbedding(tuple(g[i] for g in stack.grids), tuple(p[i] for p in stack.pooled))


def corrupt_one(embedding, plan, book, schedule, params):
    """One embedding corrupted under ``plan``, through a stack of one row."""
    return stack_row(apply_corruption(stack_of([embedding]), [plan], book, schedule, params), 0)


def signed_stack(model, prefixes, book):
    """The signed stack of ``prefixes``, built from each prefix's own
    ``model.embed``: the reference a carried or stacked embedding must equal."""
    signed = [model.embed(p, book) for p in prefixes]
    return SignedEmbedding(stack_of([s.embedding for s in signed]),
                           [s.signature for s in signed])


def stack_of(embeddings):
    """Embeddings of one step stacked on a leading axis, one row each; the
    stack of step 1 is ``EMPTY_EMBEDDING``."""
    return PrefixEmbedding(tuple(map(np.stack, zip(*(e.grids for e in embeddings)))),
                           tuple(map(np.stack, zip(*(e.pooled for e in embeddings)))))
