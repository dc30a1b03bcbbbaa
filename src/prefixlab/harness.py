"""Experiments and metrics.

Desk-scale quality metrics: exact sequence KL where the rollout law is
enumerable, and a Fréchet distance between Gaussian fits of rollout latents
and reference images otherwise. Sweeps emit a fixed-schema CSV and one
self-contained SVG line plot of their metric; every cell's seed is derived from
(base seed, cell index, replicate) so rows are reproducible bit-for-bit.
"""

from __future__ import annotations

import csv
import hashlib
import os
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .config import GuidanceConfig, SamplerConfig, SweepGrid
from .errors import InvalidInputError, SupportViolationError
from .model import Condition
from .oracle import Distribution
from .sampler import rollout_distribution, rollouts
from .tokenizer import Codebook


def exact_kl(rollout_law: Distribution, data_law: Distribution) -> float:
    """Sum p log(p/q) over sequences; support violations raise, never hide."""
    q = data_law.as_dict()
    total = 0.0
    for outcome, p in zip(rollout_law.outcomes, rollout_law.probs):
        if p == 0.0:
            continue
        qv = q.get(outcome, 0.0)
        if qv == 0.0:
            raise SupportViolationError(
                f"outcome {outcome!r} has rollout mass {p} but zero data mass"
            )
        total += float(p) * float(np.log(p / qv))
    return max(total, 0.0)


def _psd_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric PSD matrix with its rounding noise about 0
    set to 0: every one at most the largest times the size times machine
    epsilon, the cutoff of ``np.linalg.matrix_rank``. A rank-deficient
    covariance's zero eigenvalues come out as +-1e-17 or so, and their
    square roots, ~1e-8 each, would move a distance between sets of 24
    images of 48 values by up to about 4e-8 relative."""
    cutoff = vals.max(initial=0.0) * len(vals) * np.finfo(float).eps
    return np.where(vals > cutoff, vals, 0.0)


def _sqrtm_psd(matrix: np.ndarray) -> np.ndarray:
    """Symmetric square root via eigendecomposition."""
    vals, vecs = np.linalg.eigh((matrix + matrix.T) / 2.0)
    return (vecs * np.sqrt(_psd_eigenvalues(vals))) @ vecs.T


def _moments(images) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of flattened images."""
    x = np.stack([np.asarray(img, dtype=float).ravel() for img in images])
    if x.shape[0] < 2:
        raise InvalidInputError("each image set needs at least 2 members")
    cov = np.atleast_2d(np.cov(x, rowvar=False))
    if not np.all(np.isfinite(cov)):
        raise InvalidInputError("non-finite image statistics")
    return x.mean(axis=0), cov


@dataclass(frozen=True)
class GaussianFit:
    """Mean, covariance and covariance square root of a flattened image set."""

    mean: np.ndarray
    cov: np.ndarray
    root: np.ndarray

    @classmethod
    def of(cls, images) -> "GaussianFit":
        mean, cov = _moments(images)
        return cls(mean, cov, _sqrtm_psd(cov))


def toy_frechet(images_a, images_b) -> float:
    """Fréchet distance between Gaussian fits of flattened images; the
    sweeps pass rollout latents and the reference images' ``GaussianFit``,
    which ``images_b`` may be in place of the images.

    The cross term tr sqrt(A^1/2 B A^1/2) equals tr sqrt(B^1/2 A B^1/2), so
    with B's root fitted once a call takes one ``eigvalsh``.
    """
    mu_a, cov_a = _moments(images_a)
    ref = images_b if isinstance(images_b, GaussianFit) else GaussianFit.of(images_b)
    inner = ref.root @ cov_a @ ref.root
    cross = np.sqrt(_psd_eigenvalues(np.linalg.eigvalsh((inner + inner.T) / 2.0)))
    value = float(
        np.sum((mu_a - ref.mean) ** 2)
        + np.trace(cov_a) + np.trace(ref.cov) - 2.0 * np.sum(cross)
    )
    return max(value, 0.0)


SWEEP_CSV_HEADER = [
    "lambda", "n_p", "variant", "scale_mask", "gamma", "metric", "value",
    "replicate", "seed", "runtime_ms", "error",
]


def cell_seed(base_seed: int, cell_index: int, replicate: int) -> int:
    digest = hashlib.blake2s(
        f"{base_seed}:{cell_index}:{replicate}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") % (2**32)


@dataclass(frozen=True)
class ExperimentSpec:
    """What each sweep cell runs: the grid sets ``guidance``'s lambda,
    fraction, variant and scale mask per cell; its gamma and reference hold
    for every cell. ``reference_images`` are the toy_frechet comparison set."""

    model: object
    book: Codebook
    condition: Condition
    guidance: GuidanceConfig = GuidanceConfig()
    sampler: SamplerConfig = SamplerConfig()
    reference_images: tuple = ()

    @cached_property
    def reference_fit(self) -> GaussianFit:
        """The reference images' Gaussian fit, made on first use and kept: a
        sweep's cells share it. A failed fit raises again in every cell."""
        return GaussianFit.of(self.reference_images)


@dataclass(frozen=True)
class MetricRow:
    """One (cell, replicate) of a sweep: ``guidance`` is the config the cell
    ran, whose lambda, n_p, variant, scale mask and gamma are its columns."""

    guidance: GuidanceConfig
    metric: str
    value: float | None
    replicate: int
    seed: int
    runtime_ms: float
    error: str = ""


# A sweep rolls its toy_frechet (cell, replicate) lanes out together, in one
# ``rollouts`` call per run of consecutive lanes of at most this many
# samples in all (a lane of more samples is a call of its own).
PACK_SAMPLES = 1024


def _timed(metric) -> tuple[float | None, str, float]:
    """``metric()``'s value, its error ("" if none) and its wall time in ms."""
    start = time.perf_counter()
    try:
        value, error = metric(), ""
    except Exception as exc:  # recorded, sweep continues
        value, error = None, f"{type(exc).__name__}: {exc}"
    return value, error, (time.perf_counter() - start) * 1000.0


def _exact_kl_cell(spec: ExperimentSpec, gconfig: GuidanceConfig) -> float:
    guided = rollout_distribution(spec.model, spec.condition, gconfig, spec.sampler)
    baseline = rollout_distribution(spec.model, spec.condition, GuidanceConfig(), SamplerConfig())
    return exact_kl(guided, baseline)


def _frechet_cells(spec: ExperimentSpec, lanes, n_samples: int):
    """(value, error, runtime_ms) of each toy_frechet lane of ``lanes``,
    (gconfig, seed) pairs rolled out in one ``rollouts`` call. If the call
    raises, each lane is run again alone."""
    rolled, error, call_ms = _timed(lambda: rollouts(
        spec.model, spec.condition,
        [(gconfig, replace(spec.sampler, seed=seed)) for gconfig, seed in lanes],
        spec.book, n_samples))
    if error:
        if len(lanes) == 1:
            return [(None, error, call_ms)]
        return [cell for lane in lanes for cell in _frechet_cells(spec, [lane], n_samples)]
    cells = []
    for results in rolled:
        value, error, metric_ms = _timed(
            lambda: toy_frechet([r.latent for r in results], spec.reference_fit))
        cells.append((value, error, call_ms / len(lanes) + metric_ms))
    return cells


def run_sweep(grid: SweepGrid, spec: ExperimentSpec) -> list[MetricRow]:
    """One row per (cell, replicate); failures land in the error column.

    An exact_kl cell is run and timed on its own. The toy_frechet lanes are
    rolled out together, up to ``PACK_SAMPLES`` samples per ``rollouts``
    call, and a cell's ``runtime_ms`` is its call's wall time over the
    call's lanes plus its own metric time. If a call raises, each of its
    lanes is run again alone, so every cell keeps its own value or error.
    """
    lanes = []  # (gconfig, replicate, seed) per row
    for idx, lam, fraction, variant, mask in grid.cells():
        gconfig = replace(spec.guidance, lam=lam, fraction=fraction, variant=variant,
                          scale_mask=mask)
        lanes += [(gconfig, rep, cell_seed(grid.seed, idx, rep)) for rep in range(grid.replicates)]
    if grid.metric == "exact_kl":
        cells = [_timed(lambda: _exact_kl_cell(spec, lane[0])) for lane in lanes]
    else:
        per_call = max(1, PACK_SAMPLES // grid.n_samples)
        packs = [[(gconfig, seed) for gconfig, _, seed in lanes[start:start + per_call]]
                 for start in range(0, len(lanes), per_call)]
        cells = [cell for pack in packs for cell in _frechet_cells(spec, pack, grid.n_samples)]
    return [MetricRow(gconfig, grid.metric, value, rep, seed, runtime_ms, error)
            for (gconfig, rep, seed), (value, error, runtime_ms) in zip(lanes, cells)]


def _mask_label(mask: frozenset[int] | None) -> str:
    return "all" if mask is None else "+".join(str(k) for k in sorted(mask))


def write_sweep_csv(rows: list[MetricRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_HEADER)
        for r in rows:
            g = r.guidance
            writer.writerow(
                [g.lam, g.fraction, g.variant.value, _mask_label(g.scale_mask),
                 g.gamma, r.metric,
                 "" if r.value is None else repr(r.value),
                 r.replicate, r.seed, f"{r.runtime_ms:.3f}", r.error]
            )


def svg_line_plot(series: dict[str, list[tuple[float, float]]],
                  title: str, xlabel: str, ylabel: str) -> str:
    """Minimal self-contained SVG line plot, one polyline per series."""
    width, height, margin = 640, 420, 60
    points = [p for pts in series.values() for p in pts]
    if not points:
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                f'height="{height}"><text x="20" y="20">{title} (no data)</text></svg>')
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    palette = ["#1f6fb2", "#d1495b", "#4f9d69", "#8a5ab8", "#c98a2b", "#3aa6a6"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle">{title}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {height / 2:.1f})">{ylabel}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 16}">{x_lo:.3g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" '
        f'text-anchor="end">{x_hi:.3g}</text>',
        f'<text x="{margin - 6}" y="{height - margin}" text-anchor="end">{y_lo:.3g}</text>',
        f'<text x="{margin - 6}" y="{margin + 4}" text-anchor="end">{y_hi:.3g}</text>',
    ]
    for i, (label, pts) in enumerate(sorted(series.items())):
        color = palette[i % len(palette)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in sorted(pts))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * i + 4}" '
            f'fill="{color}" text-anchor="start" font-size="10">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def write_sweep_svg(rows: list[MetricRow], grid: SweepGrid, out_dir) -> str:
    """The plot of ``grid.metric``, which every row of ``run_sweep`` reports:
    series keyed by (n_p, variant, mask), x = lambda. Returns its path."""
    series: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        if r.value is not None:
            g = r.guidance
            label = f"np={g.fraction} {g.variant.value} mask={_mask_label(g.scale_mask)}"
            series.setdefault(label, []).append((g.lam, r.value))
    path = os.path.join(out_dir, f"{grid.metric}_{grid.grid_hash()}.svg")
    with open(path, "w") as fh:
        fh.write(svg_line_plot(series, f"{grid.metric} vs lambda", "lambda", grid.metric))
    return path
