"""Predictors: tabular CPTs, prefix embeddings and smoothed count tables."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixlab.errors import InvalidInputError, MissingRowError, TooLargeError
from prefixlab.model import (
    EMPTY_EMBEDDING,
    NULL_CONDITION,
    PROB_FLOOR,
    CountModel,
    SignatureSpec,
    build_tabular,
    context_signature,
    embed_prefix,
    embedding_params,
    enumerate_prefix_keys,
    fit_count_model,
    predict_logits,
    prefix_key,
    prefix_maps,
    prefix_state_count,
    tabular_from_rows,
)
from prefixlab.tokenizer import Codebook, ScaleSchedule, TokenMap


class TestPrefixKeys:
    def test_key_roundtrip(self, small_schedule):
        maps = [
            TokenMap(1, np.asarray([[2]])),
            TokenMap(2, np.asarray([[0, 1], [2, 0]])),
        ]
        key = prefix_key(maps)
        assert key == ((2,), (0, 1, 2, 0))
        back = prefix_maps(key, small_schedule)
        for a, b in zip(maps, back):
            assert np.array_equal(a.ids, b.ids)

    def test_key_accepts_raw_tuples(self):
        assert prefix_key([(0, 1), (2,)]) == ((0, 1), (2,))

    def test_state_count_by_hand(self):
        two_scalar = ScaleSchedule(((1, 1), (1, 1)))
        assert prefix_state_count(two_scalar, 2) == 1 + 2
        assert prefix_state_count(two_scalar, 3) == 1 + 3
        deeper = ScaleSchedule(((1, 1), (1, 1), (2, 2)))
        # 1 empty prefix, 2 one-scale, 4 two-scale prefixes.
        assert prefix_state_count(deeper, 2) == 1 + 2 + 4

    def test_enumerate_prefix_keys_lexicographic(self, small_schedule):
        keys = enumerate_prefix_keys(small_schedule, 2, k=2)
        assert keys == [((0,),), ((1,),)]
        assert enumerate_prefix_keys(small_schedule, 3, k=1) == [()]
        assert len(enumerate_prefix_keys(small_schedule, 2, k=3)) == 2 * 16


class TestRowsFromInput:
    """``tabular_from_rows`` rejects a malformed row by its key instead of
    flooring it or failing later inside a law."""

    @pytest.mark.parametrize(
        "row",
        [[-0.5, 1.5], [np.nan, 1.0], [np.inf, 1.0], [[[0.2, 0.3, 0.5]]], [0.2, 0.3, 0.5],
         [0.0, 0.0], [[[0.0, 0.0]]]],
        ids=["negative", "nan", "inf", "grid-of-wrong-vocab", "1d-of-wrong-vocab",
             "no-mass", "grid-site-without-mass"],
    )
    def test_malformed_row_raises_naming_its_key(self, m1_schedule, row):
        rows = {
            (0, 1, ()): [0.75, 0.25],
            (0, 2, ((0,),)): [0.6, 0.4],
            (0, 2, ((1,),)): row,
        }
        with pytest.raises(InvalidInputError, match=re.escape(str((0, 2, ((1,),))))):
            tabular_from_rows(m1_schedule, 2, 1, rows)

    def test_grid_row_of_the_scale_shape_is_accepted(self, small_schedule):
        model = build_tabular(small_schedule, 3, 1, seed=0)
        rows = dict(model.tables)
        rows[(0, 2, ((1,),))] = [[[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]],
                                 [[0.0, 0.0, 2.0], [3.0, 1.0, 0.0]]]
        rebuilt = tabular_from_rows(small_schedule, 3, 1, rows)
        np.testing.assert_allclose(rebuilt.row(0, 2, ((1,),)).sum(axis=-1), 1.0)


class TestTabular:
    def test_rows_normalized_and_floored(self, small_tabular, small_schedule):
        for k in (1, 2):
            for key in enumerate_prefix_keys(small_schedule, 3, k):
                for c in range(2):
                    row = small_tabular.row(c, k, key)
                    np.testing.assert_allclose(row.sum(axis=-1), 1.0, atol=1e-12)
                    assert row.min() > PROB_FLOOR / 2

    def test_seed_determinism(self, small_schedule):
        a = build_tabular(small_schedule, 3, 2, seed=42)
        b = build_tabular(small_schedule, 3, 2, seed=42)
        assert a.tables.keys() == b.tables.keys()
        for key in a.tables:
            assert np.array_equal(a.tables[key], b.tables[key])

    @given(
        st.sampled_from([((1, 1),), ((1, 1), (1, 1)), ((1, 1), (1, 2), (2, 2)),
                         ((1, 2), (2, 1), (2, 2)), ((2, 2), (2, 2))]),
        st.integers(2, 4), st.integers(1, 3), st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_block_draws_match_one_draw_per_prefix(self, dims, vocab, conditions, seed):
        # The per-prefix loop that build_tabular replaced, as the reference.
        schedule = ScaleSchedule(dims)
        rng = np.random.default_rng(seed)
        reference = {}
        for c in range(conditions):
            for k in range(1, schedule.num_scales + 1):
                for key in enumerate_prefix_keys(schedule, vocab, k):
                    rows = rng.dirichlet(np.ones(vocab), size=schedule.grid(k))
                    rows = np.maximum(rows, PROB_FLOOR)
                    reference[(c, k, key)] = rows / rows.sum(axis=-1, keepdims=True)
        model = build_tabular(schedule, vocab, conditions, seed)
        assert list(model.tables) == list(reference)
        for key, row in reference.items():
            assert model.tables[key].shape == row.shape
            assert model.tables[key].tobytes() == row.tobytes()

    def test_null_condition_mixes_classes_uniformly(self, small_tabular):
        key = ((0,),)
        mixed = small_tabular.row(NULL_CONDITION, 2, key)
        expected = (small_tabular.row(0, 2, key) + small_tabular.row(1, 2, key)) / 2
        np.testing.assert_allclose(mixed, expected)

    def test_missing_row_raises(self, small_tabular):
        with pytest.raises(MissingRowError):
            small_tabular.row(0, 2, ((99,),))

    def test_state_cap_enforced(self):
        sched = ScaleSchedule(((4, 4), (4, 4)))
        with pytest.raises(TooLargeError):
            build_tabular(sched, 8, 1, seed=0)

    def test_from_rows_requires_complete_tables(self, m1_schedule):
        rows = {(0, 1, ()): [0.5, 0.5]}  # scale-2 rows missing
        with pytest.raises(MissingRowError):
            tabular_from_rows(m1_schedule, 2, 1, rows)

    def test_from_rows_renormalizes(self, m1_schedule):
        rows = {
            (0, 1, ()): [3.0, 1.0],
            (0, 2, ((0,),)): [1.0, 1.0],
            (0, 2, ((1,),)): [1.0, 3.0],
        }
        model = tabular_from_rows(m1_schedule, 2, 1, rows)
        np.testing.assert_allclose(model.row(0, 1, ()), [[[0.75, 0.25]]])


class TestEmbedding:
    def test_params_shapes_and_determinism(self, small_schedule):
        proj, pos = embedding_params(small_schedule, 2, 4, embed_seed=11)
        proj2, pos2 = embedding_params(small_schedule, 2, 4, embed_seed=11)
        assert proj.shape == (4, 2)
        assert [p.shape for p in pos] == [(1, 1, 4), (2, 2, 4)]
        assert np.array_equal(proj, proj2)
        for a, b in zip(pos, pos2):
            assert np.array_equal(a, b)

    def test_empty_prefix_embedding(self, small_book, small_schedule):
        emb = embed_prefix([], small_book, small_schedule, embedding_params(small_schedule, 2, 4, 11))
        assert emb.step == 1
        assert emb.grids == () and emb.pooled == ()

    def test_embedding_matches_hand_formula(self, small_book, small_schedule):
        from prefixlab.tokenizer import accumulate_latent, pool

        maps = [TokenMap(1, np.asarray([[2]]))]
        proj, pos = embedding_params(small_schedule, 2, 4, embed_seed=11)
        emb = embed_prefix(maps, small_book, small_schedule, (proj, pos))
        latent = accumulate_latent(np.zeros((2, 2, 2)), 1, maps[0].ids, small_book)
        pooled = pool(latent, (1, 1))
        np.testing.assert_allclose(emb.grids[0], pooled @ proj.T + pos[0])
        np.testing.assert_allclose(emb.pooled[0], pooled)

    def test_embedding_depends_only_on_latents(self, small_schedule):
        # Two token ids mapping to identical code vectors must embed alike.
        vectors = np.zeros((2, 3, 2))
        vectors[:, 0] = [1.0, 0.0]
        vectors[:, 1] = [1.0, 0.0]
        vectors[:, 2] = [0.0, 1.0]
        book = Codebook(vectors)
        params = embedding_params(small_schedule, book.latent_dim, 4, 3)
        emb_a = embed_prefix([TokenMap(1, np.asarray([[0]]))], book, small_schedule, params)
        emb_b = embed_prefix([TokenMap(1, np.asarray([[1]]))], book, small_schedule, params)
        np.testing.assert_allclose(emb_a.grids[0], emb_b.grids[0])


class TestSignatures:
    def test_empty_prefix_signature(self, small_book, small_schedule):
        emb = embed_prefix([], small_book, small_schedule, embedding_params(small_schedule, 2, 4, 11))
        assert context_signature(emb, SignatureSpec(4, 0).thresholds(2, 4)) == ()

    def test_single_bin_collapses_all_prefixes(self, small_book, small_schedule):
        spec = SignatureSpec(bins=1, seed=0)
        sigs = set()
        for token in range(3):
            emb = embed_prefix(
                [TokenMap(1, np.asarray([[token]]))], small_book, small_schedule,
                embedding_params(small_schedule, 2, 4, 11),
            )
            sigs.add(context_signature(emb, spec.thresholds(2, 4)))
        assert sigs == {((0, 0, 0, 0),)}

    def test_thresholds_sorted(self):
        spec = SignatureSpec(bins=5, seed=2)
        t = spec.thresholds(3, 4)
        assert t.shape == (3, 4, 4)
        assert np.all(np.diff(t, axis=-1) >= 0)


class TestCountModel:
    def test_smoothed_probs_by_hand(self):
        sched = ScaleSchedule(((1, 1),))
        book = Codebook.seeded(1, 3, 2, seed=0)
        corpus = [(0, [TokenMap(1, np.asarray([[0]]))])]
        model = fit_count_model(
            corpus, sched, book, vocab=3, num_conditions=1,
            alpha=1.0, spec=SignatureSpec(4, 0), embed_seed=0, embed_dim=4, include_null=True,
        )
        probs = predict_logits(model, 0, [], book=book)
        np.testing.assert_allclose(np.exp(probs[0, 0]), [0.5, 0.25, 0.25])

    def test_more_data_moves_toward_empirical(self):
        sched = ScaleSchedule(((1, 1),))
        book = Codebook.seeded(1, 3, 2, seed=0)
        corpus = [(0, [TokenMap(1, np.asarray([[0]]))])] * 2
        model = fit_count_model(
            corpus, sched, book, vocab=3, num_conditions=1,
            alpha=1.0, spec=SignatureSpec(4, 0), embed_seed=0, embed_dim=4, include_null=True,
        )
        probs = np.exp(predict_logits(model, 0, [], book=book)[0, 0])
        np.testing.assert_allclose(probs, [0.6, 0.2, 0.2])

    def test_unseen_context_falls_back_to_uniform(self, small_count, small_book):
        # A signature absent from the corpus yields the pure-smoothing law.
        probs = small_count.site_probs(0, 2, (("unseen",),))
        np.testing.assert_allclose(probs, 1.0 / 3.0)

    def test_null_rows_pooled_over_conditions(self, small_count):
        key = (1, NULL_CONDITION, ())
        pooled = small_count.counts[key]
        summed = sum(
            small_count.counts.get((1, c, ()), np.zeros_like(pooled))
            for c in range(2)
        )
        assert np.array_equal(pooled, summed)

    def test_without_null_rows_null_queries_raise(self, small_schedule, small_book):
        from tests.conftest import make_corpus

        corpus = make_corpus(small_schedule, small_book, 2, 6, seed=9)
        model = fit_count_model(
            corpus, small_schedule, small_book, vocab=3, num_conditions=2,
            alpha=1.0, spec=SignatureSpec(4, 0), embed_seed=0, embed_dim=4,
            include_null=False,
        )
        with pytest.raises(MissingRowError):
            model.site_probs(NULL_CONDITION, 1, ())

    def test_rejects_empty_corpus(self, small_schedule, small_book):
        with pytest.raises(InvalidInputError):
            fit_count_model(
                [], small_schedule, small_book, 3, 1,
                alpha=1.0, spec=SignatureSpec(4, 0), embed_seed=0, embed_dim=4, include_null=True,
            )

    def test_rejects_nonpositive_alpha(self, small_schedule, small_book):
        from tests.conftest import make_corpus

        corpus = make_corpus(small_schedule, small_book, 1, 2, seed=0)
        with pytest.raises(InvalidInputError):
            fit_count_model(
                corpus, small_schedule, small_book, 3, 1, alpha=0.0,
                spec=SignatureSpec(4, 0), embed_seed=0, embed_dim=4, include_null=True,
            )

    def test_rejects_truncated_sequences(self, small_schedule, small_book):
        corpus = [(0, [TokenMap(1, np.asarray([[0]]))])]
        with pytest.raises(InvalidInputError):
            fit_count_model(
                corpus, small_schedule, small_book, 3, 1,
                alpha=1.0, spec=SignatureSpec(4, 0), embed_seed=0, embed_dim=4, include_null=True,
            )

    @pytest.mark.parametrize(
        "condition, last, problem",
        [(2, 0, "condition 2"), (-1, 0, "condition -1"), (None, 0, "condition None"),
         (0, 3, "a token id"), (0, -1, "a token id")],
    )
    def test_rejects_out_of_range_sequences(self, condition, last, problem):
        sched = ScaleSchedule(((1, 1), (1, 1)))
        book = Codebook.seeded(2, 3, 2, seed=0)
        good = (0, [TokenMap(1, np.asarray([[1]])), TokenMap(2, np.asarray([[2]]))])
        bad = (condition, [TokenMap(1, np.asarray([[0]])), TokenMap(2, np.asarray([[last]]))])
        with pytest.raises(InvalidInputError, match=f"corpus sequence 1: {problem}"):
            fit_count_model(
                [good, bad], sched, book, vocab=3, num_conditions=2,
                alpha=1.0, spec=SignatureSpec(4, 0), embed_seed=0, embed_dim=4, include_null=True,
            )


class TestSeededTables:
    """A fitted count model builds its seeded tables once and shares them read-only."""

    def test_tables_are_read_only(self, small_count):
        proj, pos = small_count.params
        for table in (proj, *pos, small_count.thresholds):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 1.0

    def test_tables_equal_freshly_seeded_ones(self, small_count, small_book):
        # The small_count fixture's recipe.
        proj, pos = small_count.params
        fresh_proj, fresh_pos = embedding_params(
            small_count.schedule, small_book.latent_dim, embed_dim=4, embed_seed=11,
        )
        assert np.array_equal(proj, fresh_proj)
        assert all(np.array_equal(a, b) for a, b in zip(pos, fresh_pos))
        assert np.array_equal(
            small_count.thresholds,
            SignatureSpec(bins=4, seed=0).thresholds(small_count.schedule.num_scales, 4),
        )

    def test_built_once_per_model(self, monkeypatch, small_schedule, small_book):
        from prefixlab import model as model_module
        from prefixlab.corruption import CorruptionVariant
        from prefixlab.guidance import GuidanceConfig, guided_step
        from tests.conftest import make_corpus

        builds = []

        def counting(*args):
            builds.append(args)
            return embedding_params(*args)

        monkeypatch.setattr(model_module, "embedding_params", counting)
        corpus = make_corpus(small_schedule, small_book, 2, 6, seed=3)
        for _ in range(2):
            model = fit_count_model(
                corpus, small_schedule, small_book, 3, 2,
                alpha=1.0, spec=SignatureSpec(4, 0), embed_seed=0, embed_dim=4, include_null=True,
            )
            config = GuidanceConfig(
                gamma=1.0, lam=1.0, fraction=1.0,
                variant=CorruptionVariant.UNIFORM_PREFIX, reference="corrupted",
            )
            guided_step(model, 0, corpus[0][1][:1], config, book=small_book, plan_seed=0)
        assert len(builds) == 2

    @pytest.mark.parametrize("bins", [1, 2, 5])
    def test_signature_equals_per_dimension_searchsorted(self, bins, small_book, small_schedule):
        spec = SignatureSpec(bins=bins, seed=4)
        thresholds = spec.thresholds(2, 4)
        for token in range(3):
            emb = embed_prefix(
                [TokenMap(1, np.asarray([[token]]))], small_book, small_schedule,
                embedding_params(small_schedule, 2, 4, 11),
            )
            mean = emb.grids[0].reshape(-1, 4).mean(axis=0)
            expected = (tuple(int(np.searchsorted(thresholds[0, i], mean[i])) for i in range(4)),)
            assert context_signature(emb, thresholds) == expected


class TestPredictLogits:
    def test_tabular_logits_are_log_rows(self, small_tabular):
        grid = predict_logits(small_tabular, 1, [])
        np.testing.assert_allclose(
            np.exp(grid), small_tabular.row(1, 1, ())
        )
        assert grid.shape == (1, 1, 3)

    def test_count_model_needs_codebook_or_embedding(self, small_count):
        with pytest.raises(InvalidInputError):
            predict_logits(small_count, 0, [])

    def test_count_model_accepts_signed_embedding(self, small_count, small_book):
        maps = [TokenMap(1, np.asarray([[1]]))]
        emb = embed_prefix(
            maps, small_book, small_count.schedule,
            embedding_params(small_count.schedule, small_book.latent_dim,
                             embed_dim=4, embed_seed=11),
        )
        via_maps = predict_logits(small_count, 0, maps, book=small_book)
        signed = small_count.sign(emb)
        assert signed.signature == context_signature(emb, small_count.thresholds)
        assert signed.signature == small_count.embed(maps, small_book).signature
        via_signed = predict_logits(small_count, 0, maps, signed=signed)
        assert np.array_equal(via_maps, via_signed)

    def test_count_model_rejects_prefix_keys_and_other_codebooks(self, small_count, small_book):
        with pytest.raises(InvalidInputError, match="token maps"):
            predict_logits(small_count, 0, ((1,),), book=small_book)
        wider = Codebook.seeded(2, 3, small_book.latent_dim + 1, seed=7)
        with pytest.raises(InvalidInputError, match="latent size"):
            predict_logits(small_count, 0, [], book=wider)

    def test_unknown_model_type_raises(self):
        with pytest.raises(InvalidInputError):
            predict_logits(object(), 0, [])

    @pytest.mark.parametrize("condition", [7, -1, 2])
    def test_unknown_condition_raises_for_both_model_kinds(
        self, condition, small_tabular, small_count, small_book
    ):
        # Both models were built for conditions 0 and 1.
        maps = [TokenMap(1, np.asarray([[1]]))]
        for model in (small_tabular, small_count):
            with pytest.raises(MissingRowError, match=f"condition {condition}"):
                predict_logits(model, condition, maps, book=small_book)
        assert not any(key[0] == condition for key in small_count._logits)

    def test_count_logits_are_memoized_read_only(self, small_count, small_book):
        maps = [TokenMap(1, np.asarray([[2]]))]
        signature = small_count.embed(maps, small_book).signature
        first = predict_logits(small_count, 1, maps, book=small_book)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0, 0] = 0.0
        # Each condition keeps its own grid, and a repeat call returns it.
        for _ in range(2):
            for condition in (1, 0, NULL_CONDITION):
                grid = predict_logits(small_count, condition, maps, book=small_book)
                expected = np.log(small_count.site_probs(condition, 2, signature))
                assert grid.shape == (2, 2, 3) and np.array_equal(grid, expected)


class TestCarriedEmbeddings:
    """Embeddings extended one scale at a time for a batch equal embeddings
    built afresh from each prefix."""

    def test_batched_fit_equals_per_sequence_counts(self, multisite_schedule, multisite_book):
        from tests.conftest import make_corpus

        sched, book = multisite_schedule, multisite_book
        corpus = make_corpus(sched, book, num_conditions=3, count=30, seed=2)
        model = fit_count_model(
            corpus, sched, book, vocab=4, num_conditions=3,
            alpha=1.0, spec=SignatureSpec(bins=3, seed=1), embed_seed=5, embed_dim=3,
            include_null=True,
        )
        params = embedding_params(sched, book.latent_dim, 3, 5)
        thresholds = SignatureSpec(bins=3, seed=1).thresholds(sched.num_scales, 3)
        expected = {}
        for condition, maps in corpus:
            for k in range(1, sched.num_scales + 1):
                sig = context_signature(embed_prefix(maps[: k - 1], book, sched, params), thresholds)
                ids = maps[k - 1].ids
                for key in ((k, condition, sig), (k, NULL_CONDITION, sig)):
                    table = expected.setdefault(key, np.zeros(sched.grid(k) + (4,)))
                    np.add.at(table.reshape(-1, 4), (np.arange(ids.size), ids.ravel()), 1.0)
        assert model.counts.keys() == expected.keys()
        for key, table in expected.items():
            assert model.counts[key].tobytes() == table.tobytes()
        # Some scale splits its sequences over several signatures.
        assert len({key[2] for key in expected if key[0] == 3}) > 1

    def test_extend_equals_fresh_embedding(self, multisite_count, multisite_book):
        from prefixlab.tokenizer import accumulate_latent
        from tests.conftest import uniform_maps

        model, book, sched = multisite_count, multisite_book, multisite_count.schedule
        prefixes = [uniform_maps(sched, 4, seed) for seed in range(5)]
        latent = np.zeros((5,) + sched.final_dims + (3,))
        signed = [model.sign(EMPTY_EMBEDDING)] * 5
        for k in range(1, sched.num_scales):
            stacked = np.stack([p[k - 1].ids for p in prefixes])
            latent = accumulate_latent(latent, k, stacked, book)
            signed = model.extend(signed, latent)
            for s, maps in zip(signed, prefixes):
                fresh = model.embed(maps[:k], book)
                assert s.embedding.step == fresh.embedding.step == k + 1
                assert s.signature == fresh.signature
                fresh = fresh.embedding
                for a, b in zip(s.embedding.grids + s.embedding.pooled, fresh.grids + fresh.pooled):
                    assert a.tobytes() == b.tobytes()

    def test_extend_rejects_mixed_steps(self, multisite_count, multisite_book):
        model, book = multisite_count, multisite_book
        one = model.embed([TokenMap(1, np.asarray([[0]]))], book)
        latent = np.zeros((2,) + model.schedule.final_dims + (3,))
        with pytest.raises(InvalidInputError, match="one step"):
            model.extend([model.sign(EMPTY_EMBEDDING), one], latent)


# Schedules of 2-3 scales whose heights and widths do not decrease (so each
# grid pools from the final one), with at least one multi-site scale.
multisite_schedules = st.integers(2, 3).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(1, 3), min_size=n, max_size=n)] * 2)
).map(lambda hw: tuple(zip(sorted(hw[0]), sorted(hw[1])))).filter(
    lambda dims: dims[-1] != (1, 1)
).map(ScaleSchedule)


class TestCountBranchInputsAgree:
    """Both count-model inputs of ``predict_logits``, and the embeddings that
    ``extend`` carries, give one branch for every corpus prefix."""

    @settings(max_examples=25, deadline=None)
    @given(
        sched=multisite_schedules,
        vocab=st.integers(2, 3),
        count=st.integers(3, 8),
        seed=st.integers(0, 2**16),
    )
    def test_maps_signed_and_carried_agree(self, sched, vocab, count, seed):
        from prefixlab.tokenizer import accumulate_latent
        from tests.conftest import make_corpus

        book = Codebook.seeded(sched.num_scales, vocab, 2, seed=seed)
        corpus = make_corpus(sched, book, num_conditions=2, count=count, seed=seed)
        model = fit_count_model(
            corpus, sched, book, vocab, num_conditions=2,
            alpha=1.0, spec=SignatureSpec(bins=3, seed=seed), embed_seed=seed, embed_dim=3,
            include_null=True,
        )
        latent = np.zeros((count,) + sched.final_dims + (2,))
        carried = [model.sign(EMPTY_EMBEDDING)] * count
        for k in range(1, sched.num_scales + 1):
            for (condition, maps), signed in zip(corpus, carried):
                prefix = maps[: k - 1]
                fresh = model.embed(prefix, book)
                assert signed.signature == fresh.signature
                for a, b in zip(signed.embedding.grids, fresh.embedding.grids):
                    assert a.tobytes() == b.tobytes()
                for c in (condition, NULL_CONDITION):
                    via_maps = predict_logits(model, c, prefix, book=book)
                    via_signed = predict_logits(model, c, prefix, signed=fresh)
                    via_carried = predict_logits(model, c, prefix, signed=signed)
                    assert via_maps.shape == sched.grid(k) + (vocab,)
                    assert via_maps.tobytes() == via_signed.tobytes() == via_carried.tobytes()
            if k < sched.num_scales:
                ids = np.stack([maps[k - 1].ids for _, maps in corpus])
                latent = accumulate_latent(latent, k, ids, book)
                carried = model.extend(carried, latent)
