"""Predictors: tabular CPTs, prefix embeddings and smoothed count tables."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixlab.errors import InvalidInputError, MissingRowError, TooLargeError
from prefixlab.model import (
    NULL_CONDITION,
    PROB_FLOOR,
    CountModel,
    SignatureSpec,
    TabularModel,
    build_tabular,
    check_corpus_sequence,
    context_signature,
    embed_prefix,
    embedding_params,
    enumerate_prefix_keys,
    fit_count_model,
    predict_logits,
    prefix_maps,
    prefix_state_count,
    tabular_from_rows,
)
from prefixlab.tokenizer import Codebook, ScaleSchedule, TokenMap
from tests.conftest import make_corpus, stacked_ids


class TestPrefixKeys:
    def test_key_roundtrip(self, small_schedule):
        maps = [
            TokenMap(1, np.asarray([[2]])),
            TokenMap(2, np.asarray([[0, 1], [2, 0]])),
        ]
        key = tuple(m.key() for m in maps)
        assert key == ((2,), (0, 1, 2, 0))
        back = prefix_maps(key, small_schedule)
        for a, b in zip(maps, back):
            assert np.array_equal(a.ids, b.ids)

    def test_tabular_stack_signs_maps_and_raw_keys_alike(self, small_schedule):
        # A tabular stack's signature is the canonical key: int tuples, from
        # token maps, tuples or NumPy integer arrays alike.
        model = build_tabular(small_schedule, 3, 1, seed=0)
        maps = [TokenMap(1, np.asarray([[2]])), TokenMap(2, np.asarray([[0, 1], [2, 0]]))]
        raw = [(2,), np.asarray([0, 1, 2, 0], np.int32)]
        signed = model.embed([maps, raw, [(np.int64(2),), (0, 1, 2, 0)]])
        assert signed.signature == [((2,), (0, 1, 2, 0))] * 3
        assert all(type(x) is int for x in signed.signature[1][1])

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


def test_models_compare_and_hash_by_identity(small_tabular, small_count, small_schedule):
    # Their tables are arrays, so comparing two models by value would be
    # ambiguous; two models are equal only when they are one object.
    twin = build_tabular(small_schedule, vocab=3, num_conditions=2, seed=0)
    assert small_tabular == small_tabular and small_tabular != twin
    assert small_count == small_count and small_count != small_tabular
    assert len({small_tabular, twin, small_count, small_count}) == 3


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

        ids = np.asarray([[2]])
        proj, pos = embedding_params(small_schedule, 2, 4, embed_seed=11)
        emb = embed_prefix([ids[None]], small_book, small_schedule, (proj, pos))
        latent = accumulate_latent(np.zeros((2, 2, 2)), 1, ids, small_book)
        pooled = pool(latent, (1, 1))
        np.testing.assert_allclose(emb.grids[0][0], pooled @ proj.T + pos[0])
        np.testing.assert_allclose(emb.pooled[0][0], pooled)

    def test_embedding_depends_only_on_latents(self, small_schedule):
        # Two token ids mapping to identical code vectors must embed alike.
        vectors = np.zeros((2, 3, 2))
        vectors[:, 0] = [1.0, 0.0]
        vectors[:, 1] = [1.0, 0.0]
        vectors[:, 2] = [0.0, 1.0]
        book = Codebook(vectors)
        params = embedding_params(small_schedule, book.latent_dim, 4, 3)
        emb_a = embed_prefix([np.asarray([[[0]]])], book, small_schedule, params)
        emb_b = embed_prefix([np.asarray([[[1]]])], book, small_schedule, params)
        np.testing.assert_allclose(emb_a.grids[0], emb_b.grids[0])


class TestSignatures:
    def test_empty_prefix_signature(self, small_count, small_book, small_schedule):
        # The empty embedding has no row to bin; a count model gives each row
        # of a step-1 stack the signature () and a zero latent.
        emb = embed_prefix([], small_book, small_schedule, embedding_params(small_schedule, 2, 4, 11))
        assert context_signature(emb, SignatureSpec(4, 0).thresholds(2, 4)) == []
        signed = small_count.embed([[], ()])
        assert signed.embedding.grids == () and signed.signature == [(), ()]
        assert signed.embedding.latent.shape == (2, 2, 2, 2) and not signed.embedding.latent.any()

    def test_single_bin_collapses_all_prefixes(self, small_book, small_schedule):
        spec = SignatureSpec(bins=1, seed=0)
        sigs = set()
        for token in range(3):
            emb = embed_prefix(
                [np.asarray([[[token]]])], small_book, small_schedule,
                embedding_params(small_schedule, 2, 4, 11),
            )
            sigs.update(context_signature(emb, spec.thresholds(2, 4)))
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
        probs = predict_logits(model, 0, [])
        np.testing.assert_allclose(np.exp(probs[0, 0]), [0.5, 0.25, 0.25])

    def test_more_data_moves_toward_empirical(self):
        sched = ScaleSchedule(((1, 1),))
        book = Codebook.seeded(1, 3, 2, seed=0)
        corpus = [(0, [TokenMap(1, np.asarray([[0]]))])] * 2
        model = fit_count_model(
            corpus, sched, book, vocab=3, num_conditions=1,
            alpha=1.0, spec=SignatureSpec(4, 0), embed_seed=0, embed_dim=4, include_null=True,
        )
        probs = np.exp(predict_logits(model, 0, [])[0, 0])
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
        # An infinite alpha would make every site law NaN.
        for alpha in (0.0, math.inf):
            with pytest.raises(InvalidInputError, match="alpha"):
                fit_count_model(
                    corpus, small_schedule, small_book, 3, 1, alpha=alpha,
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


    @given(st.lists(st.sampled_from(["good", "short", "long", "condition", "bool", "float",
                                     "id_low", "id_high", "shape"]),
                    min_size=1, max_size=8),
           st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_names_the_first_bad_sequence_as_a_loop_does(self, kinds, seed):
        # The checks on the stacked ids raise what checking each sequence in
        # turn raises: the first bad sequence, and its first problem in the
        # order length and map shape, condition, ids.
        sched = ScaleSchedule(((1, 1), (2, 2)))
        book = Codebook.seeded(2, 3, 2, seed=0)
        rng = np.random.default_rng(seed)

        def sequence(kind):
            ids = [rng.integers(0, 3, sched.grid(k)) for k in (1, 2)]
            condition = {"condition": int(rng.choice([-1, 2])), "bool": True,
                         "float": 1.0}.get(kind, int(rng.integers(0, 2)))
            if kind in ("id_low", "id_high"):
                k = int(rng.integers(0, 2))
                ids[k].flat[int(rng.integers(ids[k].size))] = -1 if kind == "id_low" else 3
            maps = [TokenMap(k, grid) for k, grid in enumerate(ids, start=1)]
            if kind == "shape":
                maps[1] = TokenMap(2, np.zeros((1, 4), dtype=int))
            return condition, {"short": maps[:1], "long": maps + maps[:1]}.get(kind, maps)

        corpus = [sequence(kind) for kind in kinds]

        def outcome(fit):
            try:
                fit()
            except InvalidInputError as exc:
                return str(exc)
            return None

        def looped():
            for i, (condition, maps) in enumerate(corpus):
                check_corpus_sequence(condition, maps, sched, 3, 2, f"corpus sequence {i}")

        fitted = outcome(lambda: fit_count_model(
            corpus, sched, book, vocab=3, num_conditions=2,
            alpha=1.0, spec=SignatureSpec(4, 0), embed_seed=0, embed_dim=4, include_null=True,
        ))
        assert fitted == outcome(looped)

    @pytest.mark.parametrize("condition, problem", [
        (True, "condition True is not an integer"),
        (1.0, "condition 1.0 is not an integer"),
        (np.int64(1), None),
    ])
    def test_a_condition_is_an_integer_not_a_bool_or_float(self, condition, problem):
        # True would alias condition 1 in the count keys, and 1.0 is inside
        # 0..1 but no integer; a NumPy integer is accepted.
        sched = ScaleSchedule(((1, 1), (1, 1)))
        book = Codebook.seeded(2, 3, 2, seed=0)
        maps = [TokenMap(1, np.asarray([[0]])), TokenMap(2, np.asarray([[2]]))]

        def fit():
            return fit_count_model(
                [(0, maps), (condition, maps)], sched, book, vocab=3, num_conditions=2,
                alpha=1.0, spec=SignatureSpec(4, 0), embed_seed=0, embed_dim=4, include_null=True,
            )

        if problem is None:
            assert {key[1] for key in fit().counts} == {0, 1, NULL_CONDITION}
        else:
            with pytest.raises(InvalidInputError, match=f"corpus sequence 1: {problem}"):
                fit()


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
        from prefixlab.corruption import CorruptionVariant, plan_corruption
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
            plan = plan_corruption(small_schedule, 2, 1.0, config.variant, 0, small_book.vocab)
            guided_step(model, 0, corpus[0][1][:1], config, plan=plan)
        assert len(builds) == 2

    @pytest.mark.parametrize("bins", [1, 2, 5])
    def test_signature_equals_per_dimension_searchsorted(self, bins, small_book, small_schedule):
        spec = SignatureSpec(bins=bins, seed=4)
        thresholds = spec.thresholds(2, 4)
        for token in range(3):
            emb = embed_prefix(
                [np.asarray([[[token]]])], small_book, small_schedule,
                embedding_params(small_schedule, 2, 4, 11),
            )
            mean = emb.grids[0].reshape(-1, 4).mean(axis=0)
            expected = (tuple(int(np.searchsorted(thresholds[0, i], mean[i])) for i in range(4)),)
            assert context_signature(emb, thresholds) == [expected]


class TestPredictLogits:
    def test_tabular_logits_are_log_rows(self, small_tabular):
        grid = predict_logits(small_tabular, 1, [])
        np.testing.assert_allclose(
            np.exp(grid), small_tabular.row(1, 1, ())
        )
        assert grid.shape == (1, 1, 3)

    def test_signed_stack_rejected_by_name_on_both_model_kinds(
        self, small_tabular, small_count, small_book
    ):
        # A signed stack of either kind is read with branch_logits; as a
        # prefix it names the form instead of failing in the map rule.
        ids = np.asarray([[[1]]])
        stacks = []
        for model in (small_tabular, small_count):
            first = model.embed([()])
            stacks += [first, model.extend(first, ids)]
        for signed in stacks:
            for model in (small_tabular, small_count):
                with pytest.raises(InvalidInputError, match="signed stack"):
                    predict_logits(model, 0, signed)

    def test_count_model_reads_a_prefix_key_as_its_maps(self, small_count):
        # A prefix key and its token maps give the same logits bit for bit.
        for v in range(3):
            maps = [TokenMap(1, np.asarray([[v]]))]
            for condition in (0, 1, NULL_CONDITION):
                by_key = predict_logits(small_count, condition, ((v,),))
                by_maps = predict_logits(small_count, condition, maps)
                assert by_key.shape == (2, 2, 3) and by_key.tobytes() == by_maps.tobytes()

    def test_unknown_model_type_raises(self):
        with pytest.raises(InvalidInputError):
            predict_logits(object(), 0, [])

    @pytest.mark.parametrize("condition", [7, -1, 2])
    def test_unknown_condition_raises_for_both_model_kinds(
        self, condition, small_tabular, small_count
    ):
        # Both models were built for conditions 0 and 1.
        maps = [TokenMap(1, np.asarray([[1]]))]
        for model in (small_tabular, small_count):
            with pytest.raises(MissingRowError, match=f"condition {condition}"):
                predict_logits(model, condition, maps)
        assert not any(key[0] == condition for key in small_count._logits)

    def test_count_logits_are_memoized_read_only(self, small_count):
        maps = [TokenMap(1, np.asarray([[2]]))]
        signature = small_count.embed([maps]).signature[0]
        first = small_count.logits(1, 2, signature)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0, 0] = 0.0
        # Each condition keeps its own grid, and a repeat call returns it;
        # predict_logits returns the same bits, as row 0 of a stacked read.
        kept = {}
        for _ in range(2):
            for condition in (1, 0, NULL_CONDITION):
                grid = small_count.logits(condition, 2, signature)
                assert kept.setdefault(condition, grid) is grid
                expected = np.log(small_count.site_probs(condition, 2, signature))
                assert grid.shape == (2, 2, 3) and np.array_equal(grid, expected)
                read = predict_logits(small_count, condition, maps)
                assert read.tobytes() == grid.tobytes()


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
                embedding = embed_prefix(stacked_ids([maps[: k - 1]]), book, sched, params)
                sig = context_signature(embedding, thresholds)[0] if k > 1 else ()
                ids = maps[k - 1].ids
                for key in ((k, condition, sig), (k, NULL_CONDITION, sig)):
                    table = expected.setdefault(key, np.zeros(sched.grid(k) + (4,)))
                    np.add.at(table.reshape(-1, 4), (np.arange(ids.size), ids.ravel()), 1.0)
        assert model.counts.keys() == expected.keys()
        for key, table in expected.items():
            assert model.counts[key].tobytes() == table.tobytes()
        # Some scale splits its sequences over several signatures.
        assert len({key[2] for key in expected if key[0] == 3}) > 1

    @pytest.mark.parametrize("kind", ["tabular", "count"])
    def test_extend_equals_fresh_embedding(self, kind, request, multisite_book):
        # A tabular stack's rows are each prefix's key; a count stack's are
        # each prefix's signature and embedding, bit for bit, as the model
        # signs it and as ``embed_prefix`` builds it apart from ``extend``,
        # and its latent is the prefix's decoded maps.
        from prefixlab.tokenizer import decode_maps
        from tests.conftest import uniform_maps

        model, book = request.getfixturevalue(f"multisite_{kind}"), multisite_book
        sched = model.schedule
        prefixes = [uniform_maps(sched, 4, seed) for seed in range(5)]
        signed = model.embed([()] * 5)
        for k in range(1, sched.num_scales):
            stacked = np.stack([p[k - 1].ids for p in prefixes])
            signed = model.extend(signed, stacked)
            assert signed.step == k + 1 and len(signed.signature) == 5
            for i, maps in enumerate(prefixes):
                fresh = model.embed([maps[:k]])
                assert signed.signature[i] == fresh.signature[0]
                if kind == "tabular":
                    assert signed.embedding is fresh.embedding is None
                    assert signed.signature[i] == tuple(m.key() for m in maps[:k])
                else:
                    assert_row_equals(signed.embedding, i, fresh.embedding)
                    reference = embed_prefix(stacked_ids([maps[:k]]), book, sched, model.params)
                    assert_row_equals(signed.embedding, i, reference)
                    assert signed.embedding.latent[i].tobytes() == decode_maps(
                        maps[:k], sched, book).tobytes()

    @pytest.mark.parametrize("kind", ["tabular", "count"])
    def test_extend_takes_one_map_of_the_scale_grid_per_row(self, kind):
        # A stack of step k extends only by ids of shape (rows,) + grid(k);
        # too few maps, or maps of another grid with as many sites or not,
        # raise naming both shapes.
        sched = ScaleSchedule(((1, 1), (2, 2), (2, 2)))
        book = Codebook.seeded(3, 3, 2, seed=7)
        model = build_tabular(sched, 3, 2, seed=0) if kind == "tabular" else fit_count_model(
            make_corpus(sched, book, num_conditions=2, count=6, seed=0), sched, book, vocab=3,
            num_conditions=2, alpha=1.0, spec=SignatureSpec(bins=3, seed=0), embed_seed=0,
            embed_dim=3, include_null=True,
        )
        three, two = model.embed([()] * 3), model.embed([((1,),)] * 2)
        for signed, shape, expected in ((three, (2, 1, 1), (3, 1, 1)),
                                        (two, (2, 1, 4), (2, 2, 2)), (two, (2, 1, 2), (2, 2, 2))):
            problem = re.escape(f"ids of shape {shape}") + ".*" + re.escape(f"shape {expected}")
            with pytest.raises(InvalidInputError, match=problem):
                model.extend(signed, np.zeros(shape, dtype=np.int64))
        extended = model.extend(two, np.zeros((2, 2, 2), dtype=np.int64))
        assert extended.step == 3 and len(extended.signature) == 2

    def test_maps_and_keys_embed_as_one_signed_stack(self, multisite_count):
        # Prefixes given as token maps, as prefix keys or as a mix of both
        # embed to one signed stack whose rows are each prefix's stack of
        # one row, bit for bit.
        from tests.conftest import uniform_maps

        model, sched = multisite_count, multisite_count.schedule
        prefixes = [uniform_maps(sched, 4, seed) for seed in range(4)]
        empty = model.embed([()] * 4)
        assert empty.embedding.grids == () and empty.signature == [()] * 4
        assert empty.embedding.latent.shape == (4,) + sched.final_dims + (3,)
        assert not empty.embedding.latent.any()
        for k in range(2, sched.num_scales + 1):
            maps = [p[: k - 1] for p in prefixes]
            keys = [tuple(m.key() for m in p) for p in maps]
            signed = model.embed(keys)
            assert len(signed.signature) == 4
            for other in (model.embed(maps), model.embed(maps[:2] + keys[2:])):
                assert other.signature == signed.signature
                for i in range(4):
                    assert_row_equals(signed.embedding, i, other.embedding, i)
            for i, prefix in enumerate(maps):
                fresh = model.embed([prefix])
                assert signed.signature[i] == fresh.signature[0]
                assert_row_equals(signed.embedding, i, fresh.embedding)
            taken = signed.take([2, 0])
            assert taken.signature == [signed.signature[2], signed.signature[0]]
            for row, i in enumerate([2, 0]):
                assert_row_equals(taken.embedding, row, model.embed([maps[i]]).embedding)


def assert_row_equals(stack, i, other, j=0):
    """Row i of a stacked embedding is row j of ``other``, its latent
    included, bit for bit."""
    assert len(stack.grids) == len(other.grids)
    for a, b in zip(stack.grids + stack.pooled + (stack.latent,),
                    other.grids + other.pooled + (other.latent,)):
        assert a[i].shape == b[j].shape and a[i].tobytes() == b[j].tobytes()


# Schedules of 2-3 scales whose heights and widths do not decrease (so each
# grid pools from the final one), with at least one multi-site scale.
multisite_schedules = st.integers(2, 3).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(1, 3), min_size=n, max_size=n)] * 2)
).map(lambda hw: tuple(zip(sorted(hw[0]), sorted(hw[1])))).filter(
    lambda dims: dims[-1] != (1, 1)
).map(ScaleSchedule)


class TestCountBranchInputsAgree:
    """The three count-model step inputs give one branch for every corpus
    prefix: ``predict_logits`` on its token maps, its row of a stacked
    ``guided_step`` on the stack ``embed`` signs from the prefixes, and
    ``CountModel.logits`` of its row of the stack that ``extend`` carries."""

    @settings(max_examples=25, deadline=None)
    @given(
        sched=multisite_schedules,
        vocab=st.integers(2, 3),
        count=st.integers(3, 8),
        seed=st.integers(0, 2**16),
    )
    def test_maps_stacked_and_carried_agree(self, sched, vocab, count, seed):
        from prefixlab.guidance import GuidanceConfig, guided_step
        from tests.conftest import make_corpus

        book = Codebook.seeded(sched.num_scales, vocab, 2, seed=seed)
        corpus = make_corpus(sched, book, num_conditions=2, count=count, seed=seed)
        model = fit_count_model(
            corpus, sched, book, vocab, num_conditions=2,
            alpha=1.0, spec=SignatureSpec(bins=3, seed=seed), embed_seed=seed, embed_dim=3,
            include_null=True,
        )
        embed, stacks = CountModel.embed, []  # (rows given, stack returned) per call

        def recording(self, prefixes):
            stacks.append((len(prefixes), embed(self, prefixes)))
            return stacks[-1][1]

        config = GuidanceConfig()  # gamma = lam = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CountModel, "embed", recording)
            carried = model.embed([()] * count)
            for k in range(1, sched.num_scales + 1):
                prefixes = [maps[: k - 1] for _, maps in corpus]
                for c in (0, 1, NULL_CONDITION):
                    stacked = guided_step(model, c, model.embed(prefixes), config)
                    assert stacked.k == k
                    for i, prefix in enumerate(prefixes):
                        via_maps = predict_logits(model, c, prefix)
                        via_carried = model.logits(c, k, carried.signature[i])
                        assert via_maps.shape == sched.grid(k) + (vocab,)
                        assert (via_maps.tobytes() == stacked.logits[i].tobytes()
                                == via_carried.tobytes())
                if k < sched.num_scales:
                    ids = np.stack([maps[k - 1].ids for _, maps in corpus])
                    carried = model.extend(carried, ids)
                    assert len(carried.signature) == count
        # Every stack embed returned, at every step, has one signature per row.
        assert len(stacks) > sched.num_scales
        assert all(len(signed.signature) == rows for rows, signed in stacks)


class TestMapRule:
    """The map at position j of a prefix has k == j and ids of shape
    ``schedule.grid(j)``, and a key's part j has ``schedule.sites(j)`` ids;
    a count model and a corpus name the scale of any other part."""

    @pytest.mark.parametrize("shape", [(1, 4), (3, 3)])
    def test_predict_logits_and_guided_step_name_a_misshapen_map(
        self, shape, multisite_count
    ):
        from prefixlab.guidance import GuidanceConfig, guided_step

        prefix = [TokenMap(1, np.asarray([[1]])), TokenMap(2, np.zeros(shape, dtype=int))]
        problem = re.escape(f"the map at scale 2 has k=2 and shape {shape}")
        with pytest.raises(InvalidInputError, match=problem):
            predict_logits(multisite_count, 0, prefix)
        with pytest.raises(InvalidInputError, match="prefix 0: the map at scale 2"):
            guided_step(multisite_count, 0, prefix, GuidanceConfig())

    @pytest.mark.parametrize("prefix, problem", [
        ([TokenMap(1, np.asarray([[1]])), TokenMap(2, np.zeros((2, 1), dtype=int))],
         "the map at scale 2 has k=2 and shape (2, 1), not k=2 and shape (1, 2)"),
        ([TokenMap(3, np.asarray([[1]]))], "the map at scale 1 has k=3"),
    ])
    def test_tabular_path_names_a_misshapen_or_mislabelled_map(self, prefix, problem):
        # The tabular table is keyed by flattened ids, so only the map rule
        # tells a (2, 1) map from the (1, 2) scale's, or scale 3's from 1's.
        from prefixlab.guidance import GuidanceConfig, guided_step
        from prefixlab.oracle import augmented_cfg, augmented_vpg

        sched = ScaleSchedule(((1, 1), (1, 2), (2, 2)))
        model = build_tabular(sched, 2, 2, 0)
        good = prefix_maps(((1,), (0, 1))[: len(prefix)], sched)
        with pytest.raises(InvalidInputError, match=re.escape(problem)):
            predict_logits(model, 0, prefix)
        with pytest.raises(InvalidInputError, match=re.escape(f"prefix 0: {problem}")):
            guided_step(model, 0, prefix, GuidanceConfig())
        with pytest.raises(InvalidInputError, match=re.escape(f"prefix 1: {problem}")):
            model.embed([good, prefix])
        # The exact augmented laws key the prefix by the same rule.
        for law in (augmented_vpg, augmented_cfg):
            with pytest.raises(InvalidInputError, match=re.escape(f"prefix 0: {problem}")):
                law(model, 0, prefix, 1.0)
        # The well-formed prefix of the same scales is read.
        assert predict_logits(model, 0, good).shape == sched.grid(len(good) + 1) + (2,)

    @pytest.mark.parametrize("prefix, scale", [
        ([(0,), (0.7, 1.9)], 2),
        ([np.asarray([1.0])], 1),
        ([(True,)], 1),
    ])
    def test_tabular_embed_rejects_non_integer_key_ids(self, prefix, scale):
        model = build_tabular(ScaleSchedule(((1, 1), (1, 2), (2, 2))), 2, 2, 0)
        sites = model.schedule.sites(scale)
        with pytest.raises(InvalidInputError,
                           match=f"the key's part at scale {scale} is not {sites} integer ids"):
            model.embed([prefix])

    def test_a_map_is_for_its_own_scale(self, multisite_count):
        # A (2, 2) map labelled scale 1 is not scale 2's map.
        prefix = [TokenMap(1, np.asarray([[1]])), TokenMap(1, np.zeros((2, 2), dtype=int))]
        with pytest.raises(InvalidInputError, match="scale 2 has k=1"):
            predict_logits(multisite_count, 0, prefix)

    @pytest.mark.parametrize("part", [(0, 1, 2), (0, 1, 2, 3.0)])
    def test_stack_embed_names_a_short_or_non_integer_key_part(
        self, part, multisite_count
    ):
        keys = [((1,), (0, 1, 2, 3)), ((1,), part)]
        with pytest.raises(InvalidInputError,
                           match="prefix 1: the key's part at scale 2 is not 4 integer ids"):
            multisite_count.embed(keys)

    @pytest.mark.parametrize("shapes, bad", [
        ([(1, 4)] * 3, 0),
        ([(2, 2), (1, 4), (2, 2)], 1),
        ([(2, 2), (2, 2), (1, 4)], 2),
        ([(3, 3)] * 3, 0),
    ])
    def test_corpus_names_the_first_misshapen_sequence(
        self, shapes, bad, multisite_schedule, multisite_book
    ):
        from tests.conftest import make_corpus

        corpus = make_corpus(multisite_schedule, multisite_book, 2, len(shapes), seed=1)
        for (_, maps), shape in zip(corpus, shapes):
            maps[1] = TokenMap(2, np.zeros(shape, dtype=int))
        with pytest.raises(InvalidInputError,
                           match=f"corpus sequence {bad}: the map at scale 2"):
            fit_count_model(
                corpus, multisite_schedule, multisite_book, vocab=4, num_conditions=2,
                alpha=1.0, spec=SignatureSpec(4, 0), embed_seed=0, embed_dim=4,
                include_null=True,
            )

    @settings(max_examples=40, deadline=None)
    @given(sched=multisite_schedules, data=st.data())
    def test_any_misshapen_map_is_named_by_its_scale(self, sched, data):
        from tests.conftest import make_corpus

        j = data.draw(st.integers(1, sched.num_scales))
        shape = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 4))
                          .filter(lambda hw: hw != sched.grid(j)))
        book = Codebook.seeded(sched.num_scales, 2, 2, seed=0)
        corpus = make_corpus(sched, book, num_conditions=1, count=3, seed=0)
        model = fit_count_model(
            corpus, sched, book, vocab=2, num_conditions=1,
            alpha=1.0, spec=SignatureSpec(2, 0), embed_seed=0, embed_dim=3, include_null=True,
        )
        maps = list(corpus[1][1])
        maps[j - 1] = TokenMap(j, np.zeros(shape, dtype=int))
        problem = f"the map at scale {j} has k={j} and shape {shape}"
        with pytest.raises(InvalidInputError, match=re.escape(f"corpus sequence 1: {problem}")):
            fit_count_model(
                [corpus[0], (0, maps)], sched, book, vocab=2, num_conditions=1,
                alpha=1.0, spec=SignatureSpec(2, 0), embed_seed=0, embed_dim=3,
                include_null=True,
            )
        if j < sched.num_scales:
            # A tabular model checks the prefix before it reads a table.
            for kind in (model, TabularModel(sched, 2, 1, {})):
                with pytest.raises(InvalidInputError, match=re.escape(problem)):
                    predict_logits(kind, 0, maps[:j])
                with pytest.raises(InvalidInputError, match=re.escape(f"prefix 1: {problem}")):
                    kind.embed([corpus[0][1][:j], maps[:j]])


class TestBoundaryChecks:
    """A condition is a class id or the null condition, and a codebook has
    the model's scales and token ids; each is checked before any row, memo
    or code table is read."""

    @pytest.mark.parametrize("condition", [True, 1.0])
    @pytest.mark.parametrize("kind", ["tabular", "count"])
    def test_bool_or_float_condition_is_named_at_every_entry(
        self, kind, condition, request, small_book
    ):
        # True and 1.0 hash as class 1: unchecked, they read its rows and
        # its memoized marginals, before and after class 1 fills them.
        from prefixlab.guidance import GuidanceConfig, guided_step
        from prefixlab.oracle import prefix_marginal_sites
        from prefixlab.sampler import SamplerConfig, rollouts

        model = request.getfixturevalue(f"small_{kind}")
        prefix = [TokenMap(1, np.asarray([[1]]))]
        config = GuidanceConfig(gamma=1.0, lam=1.0, reference="exact-marginal")
        calls = [
            lambda c: guided_step(model, c, prefix, config).logits,
            lambda c: predict_logits(model, c, prefix),
            lambda c: prefix_marginal_sites(model, c, 2),
            lambda c: rollouts(model, c, [(config, SamplerConfig(seed=0))], small_book, 2),
        ]
        rule = re.escape(f"condition {condition!r} is not an integer or the null condition")
        for _ in range(2):  # before class 1's reads fill the memos, then after
            for call in calls:
                with pytest.raises(InvalidInputError, match=rule):
                    call(condition)
            for call in calls:
                call(1)
        # A NumPy integer is the class it equals.
        for call in calls[:3]:
            assert call(np.int64(1)).tobytes() == call(1).tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_codebook_that_does_not_fit_is_rejected(
        self, seed, small_tabular, small_count, small_book
    ):
        # With 2 codes for 3 token ids, seeds 1 and 5 once sampled no id
        # past the book and returned; the others failed decoding at scale 2.
        from prefixlab.guidance import GuidanceConfig
        from prefixlab.sampler import SamplerConfig, rollouts

        lane = [(GuidanceConfig(), SamplerConfig(seed=seed))]
        corpus = make_corpus(small_count.schedule, small_book, 2, 12, 5)
        for book, shape in ((Codebook.seeded(2, 2, 2, seed=7), "2 scales x 2 codes"),
                            (Codebook.seeded(3, 3, 2, seed=7), "3 scales x 3 codes")):
            rule = re.escape(f"a codebook of {shape} does not fit a model of "
                             "2 scales x 3 token ids")
            for model in (small_tabular, small_count):
                with pytest.raises(InvalidInputError, match=rule):
                    rollouts(model, 0, lane, book, 1)
            with pytest.raises(InvalidInputError, match=rule):
                fit_count_model(corpus, small_count.schedule, book, 3, 2, 1.0,
                                SignatureSpec(4, 0), 11, 4, True)
        for model in (small_tabular, small_count):
            assert len(rollouts(model, 0, lane, small_book, 1)[0]) == 1

    def test_fit_rejects_a_codebook_of_more_codes_than_token_ids(self, small_schedule, small_book):
        # A corpus of ids 0..2 fits under 4 codes, but the model's every
        # read would take a codebook of 3 token ids: it is named at the fit.
        corpus = make_corpus(small_schedule, small_book, 2, 12, 5)
        rule = re.escape("a codebook of 2 scales x 4 codes does not fit a model of "
                         "2 scales x 3 token ids")
        with pytest.raises(InvalidInputError, match=rule):
            fit_count_model(corpus, small_schedule, Codebook.seeded(2, 4, 2, seed=7), 3, 2, 1.0,
                            SignatureSpec(4, 0), 11, 4, True)
