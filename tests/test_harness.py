"""Metrics, sweep grids, CSV schema and SVG plots."""

import csv
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from prefixlab.corruption import CorruptionVariant
from prefixlab.errors import InvalidInputError, SupportViolationError
from prefixlab.guidance import GuidanceConfig
from prefixlab.harness import (
    SWEEP_CSV_HEADER,
    ExperimentSpec,
    GaussianFit,
    SweepGrid,
    cell_seed,
    exact_kl,
    run_sweep,
    svg_line_plot,
    toy_frechet,
    write_sweep_csv,
    write_sweep_svg,
)
from prefixlab.oracle import Distribution, prefix_marginal_sites
from prefixlab.sampler import rollouts
from prefixlab.tokenizer import synthetic_images


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

    def test_rejects_nan_statistics(self):
        # A NaN image, not an inf one: inf - inf in the covariance warns
        # before the check is reached.
        img = np.zeros((1, 1, 2))
        with pytest.raises(InvalidInputError, match="non-finite"):
            toy_frechet([img, np.full_like(img, np.nan)], [img, img])

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a = [rng.normal(size=(2, 2, 1)) for _ in range(4)]
        b = [rng.normal(size=(2, 2, 1)) for _ in range(4)]
        assert toy_frechet(a, b) == pytest.approx(toy_frechet(b, a), rel=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_two_root_formula(self, seed):
        # 24 images of 48 values, as the ablate sweeps score: both
        # covariances are rank-deficient (rank 23).
        rng = np.random.default_rng(seed)
        a = list(rng.normal(size=(24, 4, 4, 3)) * rng.uniform(0.1, 3.0))
        b = list(rng.normal(size=(24, 4, 4, 3)) + rng.uniform(-1.0, 1.0))
        assert toy_frechet(a, b) == pytest.approx(two_root_frechet(a, b), rel=1e-7)
        # Rounding noise at the zero eigenvalues is cut, so the value agrees
        # with a form that has no null space, and the two orders, which root
        # different covariances, agree far closer than that noise (up to
        # about 2e-8 relative in the two-root form) would allow.
        assert toy_frechet(a, b) == pytest.approx(nuclear_norm_frechet(a, b), rel=1e-12)
        assert toy_frechet(a, b) == pytest.approx(toy_frechet(b, a), rel=1e-12)

    def test_reference_fit_gives_the_same_bits_as_its_images(self):
        rng = np.random.default_rng(3)
        a = list(rng.normal(size=(6, 2, 2, 2)))
        b = list(rng.normal(size=(5, 2, 2, 2)))
        assert toy_frechet(a, GaussianFit.of(b)) == toy_frechet(a, b)


def two_root_frechet(images_a, images_b):
    """The Frechet distance from A's root and the root of A^1/2 B A^1/2, two
    ``eigh`` calls, as it was computed before ``GaussianFit``."""
    def sqrtm(matrix):
        vals, vecs = np.linalg.eigh((matrix + matrix.T) / 2.0)
        return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T

    a = np.stack([np.ravel(img) for img in images_a])
    b = np.stack([np.ravel(img) for img in images_b])
    cov_a, cov_b = np.cov(a, rowvar=False), np.cov(b, rowvar=False)
    root_a = sqrtm(cov_a)
    cross = sqrtm(root_a @ cov_b @ root_a)
    return float(np.sum((a.mean(axis=0) - b.mean(axis=0)) ** 2)
                 + np.trace(cov_a + cov_b - 2.0 * cross))


def nuclear_norm_frechet(images_a, images_b):
    """The Frechet distance with tr sqrt(A^1/2 B A^1/2) as the nuclear norm
    of Xa Xb^T / (n - 1), Xa and Xb the centred (n, d) image sets: the
    squared singular values of that n x n matrix are the nonzero
    eigenvalues of A B, so no covariance's null space enters."""
    a = np.stack([np.ravel(img) for img in images_a])
    b = np.stack([np.ravel(img) for img in images_b])
    xa, xb = a - a.mean(axis=0), b - b.mean(axis=0)
    cross = np.linalg.svd(xa @ xb.T, compute_uv=False).sum() / (len(a) - 1)
    return float(np.sum((a.mean(axis=0) - b.mean(axis=0)) ** 2)
                 + np.trace(np.cov(a, rowvar=False)) + np.trace(np.cov(b, rowvar=False))
                 - 2.0 * cross)


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


    def test_sites_weigh_each_prefix_prediction_by_its_law(self, small_count, small_book):
        # Each level's prefixes are embedded as one signed stack; the walk
        # equals weighing each prefix's own prediction.
        from prefixlab.model import predict_logits, prefix_maps

        first = np.exp(predict_logits(small_count, 0, [], book=small_book)).reshape(-1)
        want = sum(p * np.exp(predict_logits(
            small_count, 0, prefix_maps(((v,),), small_count.schedule), book=small_book))
            for v, p in enumerate(first))
        sites = prefix_marginal_sites(small_count, 0, k=2, book=small_book)
        np.testing.assert_allclose(sites, want, rtol=0, atol=1e-15)
        with pytest.raises(InvalidInputError, match="codebook"):
            prefix_marginal_sites(small_count, 0, k=2)


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

    def test_rejects_unknown_metric(self):
        # Rejected when built, not recorded as an error in every cell.
        with pytest.raises(InvalidInputError, match="metric"):
            SweepGrid(lambdas=(0.0,), metric="bogus")

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

    def test_spec_hashes_with_its_model_and_book(self, m1, m1_book):
        # The model and codebook hash by identity, so a spec of them hashes.
        spec = self.make_spec(m1, m1_book)
        assert spec == self.make_spec(m1, m1_book)
        assert hash(spec) == hash(self.make_spec(m1, m1_book))

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
        svg_path = write_sweep_svg(rows, grid, tmp_path)
        assert svg_path.endswith(f"exact_kl_{grid.grid_hash()}.svg")
        text = Path(svg_path).read_text()
        assert text.startswith("<svg")
        assert "polyline" in text

    def test_reference_fit_made_once_per_spec(self, m1, m1_book):
        rng = np.random.default_rng(0)
        spec = self.make_spec(m1, m1_book,
                              reference_images=tuple(rng.normal(size=(3, 2, 2))))
        assert spec.reference_fit is spec.reference_fit

    def test_too_small_reference_is_recorded_in_every_cell(self, m1, m1_book):
        grid = SweepGrid(lambdas=(0.0, 1.0), metric="toy_frechet", n_samples=2)
        spec = self.make_spec(m1, m1_book, reference_images=(np.zeros((1, 1, 2)),))
        rows = run_sweep(grid, spec)
        assert [r.value for r in rows] == [None, None]
        assert all("at least 2 members" in r.error for r in rows)

    def test_replicates_of_exact_metric_agree(self, m1, m1_book):
        grid = SweepGrid(lambdas=(0.5,), replicates=3)
        rows = run_sweep(grid, self.make_spec(m1, m1_book))
        assert len({r.value for r in rows}) == 1


class TestPackedSweep:
    """toy_frechet lanes are rolled out together; each cell keeps the value
    or error it would have alone."""

    def lone_cell(self, spec, row, n_samples):
        """The value or error of ``row``'s cell rolled out alone."""
        try:
            results = rollouts(spec.model, spec.condition,
                               [(row.guidance, replace(spec.sampler, seed=row.seed))],
                               spec.book, n_samples)[0]
        except Exception as exc:
            return None, f"{type(exc).__name__}: {exc}"
        return toy_frechet([r.latent for r in results], spec.reference_fit), ""

    @pytest.fixture
    def spec(self, multisite_count, multisite_book):
        images = synthetic_images(multisite_count.schedule, multisite_book.latent_dim, 3, 6)
        return ExperimentSpec(
            model=multisite_count, book=multisite_book, condition=0,
            guidance=GuidanceConfig(fraction=0.5, reference="corrupted"),
            reference_images=tuple(images))

    def calls(self, monkeypatch):
        """The guidance configs of each ``rollouts`` call the sweep makes,
        one per lane."""
        calls = []

        def counted(model, condition, lanes, *args):
            calls.append([gconfig for gconfig, _ in lanes])
            return rollouts(model, condition, lanes, *args)

        monkeypatch.setattr("prefixlab.harness.rollouts", counted)
        return calls

    def test_one_overflowing_lambda_fails_only_its_cell(self, spec, monkeypatch):
        # 1.7e308 times a log-probability below -1 overflows in the prefix
        # contrast: that cell's rollouts raise, and the packed call with them.
        grid = SweepGrid(lambdas=(0.0, 1.7e308, 1.0), variants=tuple(CorruptionVariant),
                         metric="toy_frechet", n_samples=4, replicates=2)
        calls = self.calls(monkeypatch)
        rows = run_sweep(grid, spec)
        assert len(rows) == 30 and [len(lanes) for lanes in calls] == [30] + [1] * 30
        for row in rows:
            assert (row.value, row.error) == self.lone_cell(spec, row, grid.n_samples)
            assert (row.value is None) == (row.guidance.lam == 1.7e308)
            assert row.runtime_ms > 0

    def test_lanes_are_packed_up_to_the_sample_bound(self, spec, monkeypatch):
        grid = SweepGrid(lambdas=(0.0, 0.5, 1.0), variants=tuple(CorruptionVariant)[:2],
                         metric="toy_frechet", n_samples=4)
        monkeypatch.setattr("prefixlab.harness.PACK_SAMPLES", 10)
        calls = self.calls(monkeypatch)
        rows = run_sweep(grid, spec)
        assert [len(lanes) for lanes in calls] == [2, 2, 2]
        # Each row holds the config its cell rolled out, and that config is
        # the base guidance with the cell's grid values.
        rolled = [gconfig for lanes in calls for gconfig in lanes]
        assert all(row.guidance is gconfig for row, gconfig in zip(rows, rolled, strict=True))
        assert [row.guidance for row in rows] == [
            replace(spec.guidance, lam=lam, fraction=fraction, variant=variant, scale_mask=mask)
            for _, lam, fraction, variant, mask in grid.cells()]
        for row in rows:
            assert row.error == ""
            assert row.value == self.lone_cell(spec, row, grid.n_samples)[0]


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
