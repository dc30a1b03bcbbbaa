"""Shared fixtures: small enumerable models and hand-built codebooks."""

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from prefixlab.model import (
    SignatureSpec,
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


@pytest.fixture
def multisite_tabular(multisite_schedule):
    """A tabular model on the multi-site schedule, with the count model's vocabulary."""
    return build_tabular(multisite_schedule, vocab=4, num_conditions=2, seed=5)


@st.composite
def multisite_schedules(draw, max_prefix_sites=None):
    """Two or three scales whose last grid has several sites; the earlier
    grids fit inside it and are ordered by site count."""
    fh, fw = draw(st.sampled_from([(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]))
    earlier = draw(st.lists(
        st.tuples(st.integers(1, fh), st.integers(1, fw)), min_size=1, max_size=2
    ))
    dims = sorted(earlier, key=lambda hw: hw[0] * hw[1]) + [(fh, fw)]
    if max_prefix_sites is not None:
        assume(sum(h * w for h, w in dims[:-1]) <= max_prefix_sites)
    return ScaleSchedule(tuple(dims))


def uniform_maps(schedule, vocab, seed):
    """One random TokenMap per scale, for prefix-construction helpers."""
    rng = np.random.default_rng(seed)
    return [
        TokenMap(k, rng.integers(0, vocab, schedule.grid(k)))
        for k in range(1, schedule.num_scales + 1)
    ]


def stacked_ids(prefixes):
    """Each scale's ids stacked over token-map ``prefixes`` of one step,
    (n, h_j, w_j), as ``embed_prefix`` takes them."""
    return [np.stack([m.ids for m in maps]) for maps in zip(*prefixes)]
