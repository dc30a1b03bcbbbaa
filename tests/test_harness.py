"""Metrics, sweep grids, CSV schema and SVG plots."""

import csv
from pathlib import Path

import numpy as np
import pytest

from prefixlab.corruption import CorruptionVariant
from prefixlab.errors import InvalidInputError, SupportViolationError
from prefixlab.guidance import GuidanceConfig
from prefixlab.harness import (
    SWEEP_CSV_HEADER,
    ExperimentSpec,
    SweepGrid,
    cell_seed,
    exact_kl,
    exposure_gap,
    run_sweep,
    surrogate_gap,
    svg_line_plot,
    toy_frechet,
    write_sweep_csv,
    write_sweep_svg,
)
from prefixlab.oracle import Distribution, prefix_marginal_sites
from prefixlab.sampler import SamplerConfig, rollouts


class TestExactKL:
    def test_zero_on_identical(self):
        d = Distribution(("a", "b"), np.asarray([0.4, 0.6]))
        assert exact_kl(d, d) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        p = Distribution(("a", "b"), np.asarray([0.5, 0.5]))
        q = Distribution(("a", "b"), np.asarray([0.25, 0.75]))
        expected = 0.5 * np.log(2.0) + 0.5 * np.log(0.5 / 0.75)
        assert exact_kl(p, q) == pytest.approx(expected, rel=1e-12)

    def test_support_violation_raises(self):
        p = Distribution(("a", "b"), np.asarray([0.5, 0.5]))
        q = Distribution(("a",), np.asarray([1.0]))
        with pytest.raises(SupportViolationError):
            exact_kl(p, q)

    def test_zero_rollout_mass_is_fine(self):
        p = Distribution(("a", "b"), np.asarray([1.0, 0.0]))
        q = Distribution(("a",), np.asarray([1.0]))
        assert exact_kl(p, q) == pytest.approx(0.0, abs=1e-15)


class TestToyFrechet:
    def test_zero_on_identical_sets(self):
        rng = np.random.default_rng(0)
        images = [rng.normal(size=(2, 2, 2)) for _ in range(5)]
        assert toy_frechet(images, images) == pytest.approx(0.0, abs=1e-9)

    def test_one_dimensional_closed_form(self):
        # Sample variance (ddof=1) of {-s, +s} is 2 s^2; with s = sqrt(0.5)
        # both sets have unit variance, means 3 apart: 9 + 1 + 1 - 2 = 9.
        s = np.sqrt(0.5)
        a = [np.asarray([[[-s]]]), np.asarray([[[s]]])]
        b = [x + 3.0 for x in a]
        assert toy_frechet(a, b) == pytest.approx(9.0, abs=1e-6)

    def test_requires_two_members_per_set(self):
        img = np.zeros((1, 1, 1))
        with pytest.raises(InvalidInputError):
            toy_frechet([img], [img, img])

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a = [rng.normal(size=(2, 2, 1)) for _ in range(4)]
        b = [rng.normal(size=(2, 2, 1)) for _ in range(4)]
        assert toy_frechet(a, b) == pytest.approx(toy_frechet(b, a), rel=1e-9)


class TestCountModelMarginal:
    def test_sites_normalized(self, small_count, small_book):
        sites = prefix_marginal_sites(small_count, 0, k=2, book=small_book)
        assert sites.shape == (2, 2, 3)
        np.testing.assert_allclose(sites.sum(axis=-1), 1.0, atol=1e-9)

    def test_first_scale_equals_direct_prediction(self, small_count, small_book):
        from prefixlab.model import predict_logits

        sites = prefix_marginal_sites(small_count, 0, k=1, book=small_book)
        direct = np.exp(predict_logits(small_count, 0, [], book=small_book))
        np.testing.assert_allclose(sites, direct, atol=1e-12)


class TestSurrogateGap:
    def test_rows_cover_grid_and_zero_fraction_matches_clean(
        self, small_count, small_book
    ):
        from prefixlab.model import TokenMap

        prefix = [TokenMap(1, np.asarray([[0]]))]
        rows = surrogate_gap(
            small_count, small_book, 0, prefix,
            variants=(CorruptionVariant.SAME_SCALE_FULL_EMBEDDING,
                      CorruptionVariant.UNIFORM_PREFIX),
            fractions=(0.0, 1.0), plan_samples=2,
        )
        assert len(rows) == 4
        for row in rows:
            assert row.mean_kl >= 0
            if (
                row.fraction == 0.0
                and row.variant is not CorruptionVariant.UNIFORM_PREFIX
            ):
                assert row.mean_kl == pytest.approx(row.clean_kl, abs=1e-12)


    @pytest.mark.parametrize("variant", list(CorruptionVariant))
    @pytest.mark.parametrize("prefix_scales", [0, 2])
    def test_rows_equal_explicit_corrupted_branch(self, variant, prefix_scales):
        # Multi-site prefix scales, so every variant moves some embedding.
        from prefixlab.corruption import apply_corruption, plan_corruption
        from prefixlab.model import fit_count_model, predict_logits
        from prefixlab.oracle import kl_divergence
        from prefixlab.tokenizer import Codebook, ScaleSchedule
        from tests.conftest import make_corpus

        schedule = ScaleSchedule(((1, 1), (2, 2), (2, 2)))
        book = Codebook.seeded(3, 3, 2, seed=7)
        corpus = make_corpus(schedule, book, num_conditions=2, count=16, seed=5)
        model = fit_count_model(corpus, schedule, book, vocab=3, num_conditions=2)
        prefix = corpus[1][1][:prefix_scales]
        fractions = (0.0, 0.5, 1.0)
        rows = surrogate_gap(
            model, book, 1, prefix, variants=(variant,), fractions=fractions,
            plan_samples=3, base_seed=4,
        )

        k = prefix_scales + 1
        marginal = prefix_marginal_sites(model, 1, k, book=book).reshape(-1)
        embedding = model.embed(prefix, book).embedding
        clean = np.exp(predict_logits(model, 1, prefix, book=book))
        clean_kl = kl_divergence(clean.reshape(-1), marginal)
        expected = []
        for fraction in fractions:
            kls = []
            for s in range(3):
                plan = plan_corruption(
                    schedule, k, fraction, variant, seed=4 + 7919 * s, book=book
                )
                corrupted = apply_corruption(embedding, plan, book, schedule, model.params)
                probs = np.exp(
                    predict_logits(model, 1, prefix, signed=model.sign(corrupted))
                )
                kls.append(kl_divergence(probs.reshape(-1), marginal))
            expected.append((variant, fraction, float(np.mean(kls)), clean_kl))
        assert [(r.variant, r.fraction, r.mean_kl, r.clean_kl) for r in rows] == expected
        if prefix_scales == 0:
            assert all(r.mean_kl == r.clean_kl for r in rows)
        else:
            assert rows[-1].mean_kl != rows[-1].clean_kl

    @pytest.mark.parametrize("prefix_scales, evaluations", [(0, 1), (2, 1 + 5 * 2 * 8)])
    def test_clean_branch_evaluated_once(self, monkeypatch, prefix_scales, evaluations):
        # One clean branch per call, then one corrupted branch per plan; an
        # empty prefix has no corrupted branch.
        import prefixlab.guidance
        import prefixlab.harness
        from prefixlab.model import fit_count_model, predict_logits
        from prefixlab.tokenizer import Codebook, ScaleSchedule
        from tests.conftest import make_corpus

        schedule = ScaleSchedule(((1, 1), (2, 2), (2, 2)))
        book = Codebook.seeded(3, 3, 2, seed=7)
        corpus = make_corpus(schedule, book, num_conditions=2, count=16, seed=5)
        model = fit_count_model(corpus, schedule, book, vocab=3, num_conditions=2)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return predict_logits(*args, **kwargs)

        for module in (prefixlab.guidance, prefixlab.harness):
            monkeypatch.setattr(module, "predict_logits", counted)
        rows = surrogate_gap(
            model, book, 1, corpus[1][1][:prefix_scales], variants=list(CorruptionVariant),
            fractions=(0.5, 1.0), plan_samples=8,
        )
        assert len(rows) == 10
        assert len(calls) == evaluations

    def test_tabular_model_has_no_corrupted_branch(self, m1, m1_book):
        from prefixlab.errors import GuidanceConfigError
        from prefixlab.model import TokenMap

        variants = (CorruptionVariant.UNIFORM_PREFIX,)
        (row,) = surrogate_gap(m1, m1_book, 0, [], variants, fractions=(0.5,))
        assert row.mean_kl == row.clean_kl
        with pytest.raises(GuidanceConfigError, match="embedding-consuming"):
            surrogate_gap(m1, m1_book, 0, [TokenMap(1, np.asarray([[0]]))], variants, (0.5,))

    @pytest.mark.parametrize("plan_samples", [0, -1])
    def test_no_plan_samples_raises(self, small_count, small_book, plan_samples):
        variants = (CorruptionVariant.UNIFORM_PREFIX,)
        with pytest.raises(InvalidInputError, match="plan_samples"):
            surrogate_gap(small_count, small_book, 0, [], variants, (0.5,),
                          plan_samples=plan_samples)


class TestExposureGap:
    def test_zero_when_corpus_is_model_rollouts(self, small_count, small_book):
        sconfig = SamplerConfig(seed=100)
        corpus = []
        for i in range(4):
            result = rollouts(
                small_count, i % 2, GuidanceConfig(),
                SamplerConfig(seed=100 + i), small_book, 1,
            )[0]
            corpus.append((i % 2, list(result.maps)))
        gaps = exposure_gap(
            small_count, corpus, GuidanceConfig(), sconfig, small_book,
            n_rollouts=4, seed=100,
        )
        assert set(gaps) == {1, 2}
        for value in gaps.values():
            assert value == pytest.approx(0.0, abs=1e-9)

    def test_empty_corpus_raises(self, small_count, small_book):
        with pytest.raises(InvalidInputError):
            exposure_gap(
                small_count, [], GuidanceConfig(), SamplerConfig(), small_book
            )

    @pytest.mark.parametrize("n_rollouts", [0, -1])
    def test_no_rollouts_raises(self, small_count, small_book, n_rollouts):
        from prefixlab.model import TokenMap

        corpus = [(0, [TokenMap(1, np.zeros((1, 1))), TokenMap(2, np.zeros((2, 2)))])]
        with pytest.raises(InvalidInputError, match="n_rollouts"):
            exposure_gap(
                small_count, corpus, GuidanceConfig(), SamplerConfig(), small_book,
                n_rollouts=n_rollouts,
            )


class TestSweepGrid:
    def test_cells_enumerate_product_in_order(self):
        grid = SweepGrid(
            lambdas=(0.0, 1.0), fractions=(0.1, 0.2),
            variants=(CorruptionVariant.SAME_SCALE_TOKEN,),
            scale_masks=(None, frozenset({2})),
        )
        cells = list(grid.cells())
        assert len(cells) == 8
        assert [c[0] for c in cells] == list(range(8))
        assert cells[0][1:] == (0.0, 0.1, CorruptionVariant.SAME_SCALE_TOKEN, None)
        assert cells[-1][1:] == (
            1.0, 0.2, CorruptionVariant.SAME_SCALE_TOKEN, frozenset({2})
        )

    def test_rejects_empty_axes_and_bad_replicates(self):
        with pytest.raises(InvalidInputError):
            SweepGrid(lambdas=())
        with pytest.raises(InvalidInputError):
            SweepGrid(lambdas=(0.0,), replicates=0)

    def test_cell_seed_deterministic_and_distinct(self):
        assert cell_seed(0, 1, 2) == cell_seed(0, 1, 2)
        seeds = {cell_seed(0, i, r) for i in range(10) for r in range(3)}
        assert len(seeds) == 30
        assert all(0 <= s < 2 ** 32 for s in seeds)

    def test_grid_hash_stable_and_sensitive(self):
        a = SweepGrid(lambdas=(0.0, 1.0))
        b = SweepGrid(lambdas=(0.0, 1.0))
        c = SweepGrid(lambdas=(0.0, 2.0))
        assert a.grid_hash() == b.grid_hash()
        assert a.grid_hash() != c.grid_hash()


class TestRunSweep:
    def make_spec(self, m1, m1_book, **kw):
        return ExperimentSpec(model=m1, book=m1_book, condition=0, **kw)

    def test_exact_kl_zero_at_lambda_zero(self, m1, m1_book):
        grid = SweepGrid(lambdas=(0.0,))
        spec = self.make_spec(m1, m1_book)
        rows = run_sweep(grid, spec)
        assert len(rows) == 1
        assert rows[0].error == ""
        assert rows[0].value == pytest.approx(0.0, abs=1e-12)

    def test_exact_kl_grows_with_lambda(self, m1, m1_book):
        grid = SweepGrid(lambdas=(0.0, 0.5, 1.0))
        spec = self.make_spec(m1, m1_book)
        rows = run_sweep(grid, spec)
        values = [r.value for r in rows]
        assert all(r.error == "" for r in rows)
        assert values == sorted(values)

    def test_errors_recorded_not_raised(self, m1, m1_book):
        spec = self.make_spec(m1, m1_book)
        rows = run_sweep(SweepGrid(lambdas=(0.0,), metric="bogus"), spec)
        assert rows[0].value is None
        assert "InvalidInputError" in rows[0].error

    def test_csv_schema_and_svg_output(self, m1, m1_book, tmp_path):
        grid = SweepGrid(lambdas=(0.0, 1.0), replicates=2)
        spec = self.make_spec(m1, m1_book)
        rows = run_sweep(grid, spec)
        csv_path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, csv_path)
        with open(csv_path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == SWEEP_CSV_HEADER
        assert len(parsed) - 1 == 4
        svg_paths = write_sweep_svg(rows, grid, tmp_path)
        assert len(svg_paths) == 1
        assert svg_paths[0].endswith(f"exact_kl_{grid.grid_hash()}.svg")
        text = Path(svg_paths[0]).read_text()
        assert text.startswith("<svg")
        assert "polyline" in text

    def test_replicates_of_exact_metric_agree(self, m1, m1_book):
        grid = SweepGrid(lambdas=(0.5,), replicates=3)
        rows = run_sweep(grid, self.make_spec(m1, m1_book))
        assert len({r.value for r in rows}) == 1


class TestSvgPlot:
    def test_empty_series_still_valid(self):
        svg = svg_line_plot({}, "t", "x", "y")
        assert svg.startswith("<svg")
        assert "no data" in svg

    def test_self_contained_markup(self):
        svg = svg_line_plot({"s": [(0.0, 1.0), (1.0, 2.0)]}, "t", "x", "y")
        assert "href" not in svg
        assert "<script" not in svg
        assert svg.count("<polyline") == 1
