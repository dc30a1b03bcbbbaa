"""Corruption plans and their deterministic application to prefix embeddings."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixlab.corruption import (
    CorruptionVariant,
    apply_corruption,
    plan_corruption,
    selection_size,
)
from prefixlab.errors import InconsistentPlanError, InvalidFractionError
from prefixlab.model import embed_prefix, embedding_params
from prefixlab.tokenizer import Codebook, ScaleSchedule, TokenMap

from tests.conftest import uniform_maps

SCHEDULE = ScaleSchedule(((1, 1), (2, 2), (4, 4), (4, 4)))
BOOK = Codebook.seeded(4, 3, 2, seed=7)
EMBED_SEED = 11
PARAMS = embedding_params(SCHEDULE, BOOK.latent_dim, 4, EMBED_SEED)


def embedded_prefix(k, seed=0):
    maps = uniform_maps(SCHEDULE, BOOK.vocab, seed)[: k - 1]
    return maps, embed_prefix(maps, BOOK, SCHEDULE, PARAMS)


class TestSelectionSize:
    def test_round_half_up_examples(self):
        # 21 prefix sites before scale 4: floor(0.1 * 21 + 0.5) = 2.
        assert SCHEDULE.prefix_sites(4) == 21
        assert selection_size(SCHEDULE, 4, 0.1) == 2
        # Exactly-half cases round up: floor(0.5 * 5 + 0.5) = 3.
        sched = ScaleSchedule(((1, 1), (2, 2), (2, 2)))
        assert sched.prefix_sites(3) == 5
        assert selection_size(sched, 3, 0.5) == 3
        assert selection_size(SCHEDULE, 2, 0.0) == 0
        assert selection_size(SCHEDULE, 4, 1.0) == 21
        # 0.7 * 5 = 3.5 must round up even though the float product is
        # 3.4999999999999996.
        assert selection_size(sched, 3, 0.7) == 4

    def test_scale_one_has_no_prefix(self):
        assert selection_size(SCHEDULE, 1, 1.0) == 0

    @given(st.floats(0.0, 1.0), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_repeated_calls_match_exact_rounding(self, fraction, k):
        # The rounding is cached per (prefix sites, fraction); a repeat call
        # must give the value computed from scratch.
        exact = Fraction(fraction).limit_denominator(10**6) * SCHEDULE.prefix_sites(k)
        expected = math.floor(exact + Fraction(1, 2))
        assert selection_size(SCHEDULE, k, fraction) == expected
        assert selection_size(SCHEDULE, k, fraction) == expected


class TestPlanning:
    def test_fraction_outside_unit_interval_raises(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(InvalidFractionError):
                plan_corruption(SCHEDULE, 3, bad, CorruptionVariant.SAME_SCALE_TOKEN, 0)

    def test_selection_without_replacement_donors_same_scale(self):
        plan = plan_corruption(
            SCHEDULE, 4, 0.5, CorruptionVariant.SAME_SCALE_TOKEN, seed=1
        )
        assert len(plan.selected) == selection_size(SCHEDULE, 4, 0.5)
        assert len(set(plan.selected)) == len(plan.selected)
        for (j, u), (dj, du) in zip(plan.selected, plan.donors):
            assert dj == j
            assert 0 <= u < SCHEDULE.sites(j)
            assert 0 <= du < SCHEDULE.sites(j)

    def test_seed_determinism(self):
        a = plan_corruption(SCHEDULE, 4, 0.3, CorruptionVariant.SAME_SCALE_POSITION, 5)
        b = plan_corruption(SCHEDULE, 4, 0.3, CorruptionVariant.SAME_SCALE_POSITION, 5)
        assert a == b

    def test_random_codebook_needs_book(self):
        with pytest.raises(InconsistentPlanError):
            plan_corruption(SCHEDULE, 3, 0.5, CorruptionVariant.RANDOM_CODEBOOK, 0)
        plan = plan_corruption(
            SCHEDULE, 3, 0.5, CorruptionVariant.RANDOM_CODEBOOK, 0, book=BOOK
        )
        assert len(plan.code_draws) == len(plan.selected)
        for scale, code in plan.code_draws:
            assert 1 <= scale <= BOOK.num_scales
            assert 0 <= code < BOOK.vocab

    def test_uniform_prefix_draws_whole_grids(self):
        with pytest.raises(InconsistentPlanError):
            plan_corruption(SCHEDULE, 3, 0.5, CorruptionVariant.UNIFORM_PREFIX, 0)
        plan = plan_corruption(
            SCHEDULE, 3, 0.5, CorruptionVariant.UNIFORM_PREFIX, 0, book=BOOK
        )
        assert [len(ids) for ids in plan.uniform_tokens] == [1, 4]
        assert all(0 <= x < BOOK.vocab for ids in plan.uniform_tokens for x in ids)

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_selected_sites_always_in_prefix(self, seed):
        plan = plan_corruption(
            SCHEDULE, 4, 0.4, CorruptionVariant.SAME_SCALE_FULL_EMBEDDING, seed
        )
        for j, u in plan.selected:
            assert 1 <= j < 4
            assert 0 <= u < SCHEDULE.sites(j)


class TestApplication:
    def test_zero_fraction_is_identity(self):
        _, emb = embedded_prefix(4)
        plan = plan_corruption(
            SCHEDULE, 4, 0.0, CorruptionVariant.SAME_SCALE_FULL_EMBEDDING, 0
        )
        out = apply_corruption(emb, plan, BOOK, SCHEDULE, PARAMS)
        for a, b in zip(out.grids, emb.grids):
            assert np.array_equal(a, b)

    def test_input_embedding_untouched(self):
        _, emb = embedded_prefix(4)
        before = [g.copy() for g in emb.grids]
        plan = plan_corruption(
            SCHEDULE, 4, 1.0, CorruptionVariant.SAME_SCALE_FULL_EMBEDDING, 3
        )
        apply_corruption(emb, plan, BOOK, SCHEDULE, PARAMS)
        for a, b in zip(emb.grids, before):
            assert np.array_equal(a, b)

    def test_full_embedding_outputs_stay_in_scale_set(self):
        _, emb = embedded_prefix(4)
        plan = plan_corruption(
            SCHEDULE, 4, 1.0, CorruptionVariant.SAME_SCALE_FULL_EMBEDDING, 2
        )
        out = apply_corruption(emb, plan, BOOK, SCHEDULE, PARAMS)
        for j, grid in enumerate(out.grids):
            originals = emb.grids[j].reshape(-1, grid.shape[-1])
            for vec in grid.reshape(-1, grid.shape[-1]):
                assert any(np.array_equal(vec, o) for o in originals)

    def test_single_site_scales_are_noops_for_same_scale_variants(self):
        # On a 1x1 scale the only possible donor is the site itself.
        sched = ScaleSchedule(((1, 1), (1, 1)))
        book = Codebook.seeded(2, 3, 2, seed=7)
        maps = uniform_maps(sched, 3, seed=0)[:1]
        params = embedding_params(sched, book.latent_dim, 4, EMBED_SEED)
        emb = embed_prefix(maps, book, sched, params)
        for variant in (
            CorruptionVariant.SAME_SCALE_TOKEN,
            CorruptionVariant.SAME_SCALE_POSITION,
            CorruptionVariant.SAME_SCALE_FULL_EMBEDDING,
        ):
            plan = plan_corruption(sched, 2, 1.0, variant, seed=4)
            out = apply_corruption(emb, plan, book, sched, params)
            np.testing.assert_allclose(out.grids[0], emb.grids[0], atol=1e-12)

    def test_token_and_position_variants_match_hand_formula(self):
        _, emb = embedded_prefix(3)
        proj, pos = embedding_params(SCHEDULE, BOOK.latent_dim, 4, EMBED_SEED)
        plan = plan_corruption(SCHEDULE, 3, 1.0, CorruptionVariant.SAME_SCALE_TOKEN, 9)
        out = apply_corruption(emb, plan, BOOK, SCHEDULE, PARAMS)
        for (j, u), (_, du) in zip(plan.selected, plan.donors):
            h, w = SCHEDULE.grid(j)
            tgt, don = (u // w, u % w), (du // w, du % w)
            expected = emb.pooled[j - 1][don] @ proj.T + pos[j - 1][tgt]
            np.testing.assert_allclose(out.grids[j - 1][tgt], expected)
        plan = plan_corruption(
            SCHEDULE, 3, 1.0, CorruptionVariant.SAME_SCALE_POSITION, 9
        )
        out = apply_corruption(emb, plan, BOOK, SCHEDULE, PARAMS)
        for (j, u), (_, du) in zip(plan.selected, plan.donors):
            h, w = SCHEDULE.grid(j)
            tgt, don = (u // w, u % w), (du // w, du % w)
            expected = emb.pooled[j - 1][tgt] @ proj.T + pos[j - 1][don]
            np.testing.assert_allclose(out.grids[j - 1][tgt], expected)

    def test_random_codebook_uses_drawn_vectors(self):
        _, emb = embedded_prefix(3)
        proj, pos = embedding_params(SCHEDULE, BOOK.latent_dim, 4, EMBED_SEED)
        plan = plan_corruption(
            SCHEDULE, 3, 1.0, CorruptionVariant.RANDOM_CODEBOOK, 6, book=BOOK
        )
        out = apply_corruption(emb, plan, BOOK, SCHEDULE, PARAMS)
        for idx, (j, u) in enumerate(plan.selected):
            h, w = SCHEDULE.grid(j)
            tgt = (u // w, u % w)
            scale, code = plan.code_draws[idx]
            expected = BOOK.table(scale)[code] @ proj.T + pos[j - 1][tgt]
            np.testing.assert_allclose(out.grids[j - 1][tgt], expected)

    def test_uniform_prefix_rebuilds_whole_embedding(self):
        _, emb = embedded_prefix(3)
        plan = plan_corruption(
            SCHEDULE, 3, 0.0, CorruptionVariant.UNIFORM_PREFIX, 8, book=BOOK
        )
        out = apply_corruption(emb, plan, BOOK, SCHEDULE, PARAMS)
        maps = [
            TokenMap(j, np.asarray(ids).reshape(SCHEDULE.grid(j)))
            for j, ids in enumerate(plan.uniform_tokens, start=1)
        ]
        expected = embed_prefix(maps, BOOK, SCHEDULE, PARAMS)
        for a, b in zip(out.grids, expected.grids):
            assert np.array_equal(a, b)

    def test_step_mismatch_raises(self):
        _, emb = embedded_prefix(3)
        plan = plan_corruption(
            SCHEDULE, 4, 0.5, CorruptionVariant.SAME_SCALE_FULL_EMBEDDING, 0
        )
        with pytest.raises(InconsistentPlanError):
            apply_corruption(emb, plan, BOOK, SCHEDULE, PARAMS)

