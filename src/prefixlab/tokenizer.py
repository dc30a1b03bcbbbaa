"""Toy multi-scale residual tokenizer.

Images live on the finest grid as per-site vectors. Encoding peels off one
residual token map per scale, coarse to fine; decoding de-quantizes each map,
upsamples it to the finest grid with nearest-neighbour replication and sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidScheduleError, InvalidTokenError, integral


@dataclass(frozen=True)
class ScaleSchedule:
    """Coarse-to-fine grid dimensions (h_k, w_k), k = 1..K (1-based)."""

    dims: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not all(integral(h) and integral(w) for h, w in self.dims):
            raise InvalidScheduleError(f"grid dimensions must be integers, got {self.dims!r}")
        dims = tuple((int(h), int(w)) for h, w in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1:
            raise InvalidScheduleError("schedule needs at least one scale")
        if any(h < 1 or w < 1 for h, w in dims):
            raise InvalidScheduleError("all grid dimensions must be >= 1")
        areas = [h * w for h, w in dims]
        if any(a > b for a, b in zip(areas, areas[1:])):
            raise InvalidScheduleError("site counts must be non-decreasing")
        fh, fw = dims[-1]
        for k, (h, w) in enumerate(dims, start=1):
            if h > fh or w > fw:
                raise InvalidScheduleError(
                    f"scale {k} grid {(h, w)} does not fit in the final grid {(fh, fw)}"
                )

    @property
    def num_scales(self) -> int:
        return len(self.dims)

    @property
    def final_dims(self) -> tuple[int, int]:
        return self.dims[-1]

    def grid(self, k: int) -> tuple[int, int]:
        if not 1 <= k <= self.num_scales:
            raise InvalidScheduleError(f"scale {k} outside 1..{self.num_scales}")
        return self.dims[k - 1]

    def sites(self, k: int) -> int:
        h, w = self.grid(k)
        return h * w

    def prefix_sites(self, k: int) -> int:
        """Total site count over scales 1..k-1."""
        return sum(self.sites(j) for j in range(1, k))


@dataclass(frozen=True, eq=False)
class Codebook:
    """Per-scale tables of code vectors, shape (K, V, d); compared and hashed
    by identity, as its vectors are an array."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 3:
            raise InvalidInputError("codebook must have shape (K, V, d)")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("codebook vectors must be finite")
        object.__setattr__(self, "vectors", v)

    @property
    def num_scales(self) -> int:
        return self.vectors.shape[0]

    @property
    def vocab(self) -> int:
        return self.vectors.shape[1]

    @property
    def latent_dim(self) -> int:
        return self.vectors.shape[2]

    def table(self, k: int) -> np.ndarray:
        if not (integral(k) and 1 <= k <= self.num_scales):
            raise InvalidScheduleError(f"scale {k!r} outside 1..{self.num_scales}")
        return self.vectors[k - 1]

    @classmethod
    def seeded(cls, num_scales: int, vocab: int, latent_dim: int, seed: int) -> "Codebook":
        """Unit-norm vectors drawn uniformly on the sphere, fixed per seed."""
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(num_scales, vocab, latent_dim))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        return cls(v)


@dataclass(frozen=True)
class TokenMap:
    """Token ids for one scale, shape (h_k, w_k)."""

    k: int
    ids: np.ndarray

    def __post_init__(self):
        if not integral(self.k):
            raise InvalidInputError(f"scale {self.k!r} is not an integer")
        # A list's ids are checked one by one: NumPy would read its bools as ints.
        ids = self.ids if isinstance(self.ids, np.ndarray) else np.asarray(self.ids, dtype=object)
        if not (all(map(integral, ids.flat)) if ids.dtype == object else ids.dtype.kind in "iu"):
            raise InvalidInputError(f"token ids must be integers, got {self.ids!r}")
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 2:
            raise InvalidInputError("token map must be a 2-d id grid")
        object.__setattr__(self, "ids", ids)

    def key(self) -> tuple[int, ...]:
        return tuple(self.ids.ravel().tolist())


def nn_index_map(source: int, target: int) -> np.ndarray:
    """Target index i reads source index floor(i * source / target)."""
    return (np.arange(target) * source) // target


def dequantize(k: int, ids: np.ndarray, book: Codebook) -> np.ndarray:
    """Scale k's code vector of each id: one map's (h_k, w_k) ids give
    (h_k, w_k, d), and a stack (n, h_k, w_k) is looked up at once."""
    if ids.min() < 0 or ids.max() >= book.vocab:
        raise InvalidTokenError(f"token ids must lie in [0, {book.vocab}) at scale {k}")
    return book.table(k)[ids]


# Grids are (h, w, d), or (n, h, w, d) for a stack of n samples: the
# resampling functions act on the last three axes.


def upsample(grid: np.ndarray, target: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbour replication of (..., h, w, d) onto the target grid."""
    h, w = grid.shape[-3:-1]
    th, tw = target
    if th < h or tw < w:
        raise InvalidScheduleError(f"cannot upsample {(h, w)} to smaller {target}")
    return grid[..., nn_index_map(h, th)[:, None], nn_index_map(w, tw)[None, :], :]


def pool(grid: np.ndarray, target: tuple[int, int]) -> np.ndarray:
    """Mean over the blocks induced by the nearest-neighbour index map.

    Adjoint of :func:`upsample`: each source site contributes to the pooled
    site it would have been replicated from, in row-major order.
    """
    h, w = grid.shape[-3:-1]
    th, tw = target
    if th > h or tw > w:
        raise InvalidScheduleError(f"cannot pool {(h, w)} to larger {target}")
    sites = (nn_index_map(th, h)[:, None], nn_index_map(tw, w)[None, :])
    out = np.zeros(grid.shape[:-3] + (th, tw) + grid.shape[-1:])
    counts = np.zeros((th, tw))
    np.add.at(out, (...,) + sites + (slice(None),), grid)
    np.add.at(counts, sites, 1.0)
    return out / counts[..., None]


def accumulate_latent(prev: np.ndarray, k: int, ids: np.ndarray, book: Codebook) -> np.ndarray:
    """prev + upsample(dequantize(k, ids)); pure, prev untouched. One latent
    (fh, fw, d) takes one map's ids (h_k, w_k); a stack of latents
    (n, fh, fw, d) takes the stacked ids (n, h_k, w_k) of its maps."""
    return prev + upsample(dequantize(k, ids, book), prev.shape[-3:-1])


def quantize_sites(grid: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Nearest codebook vector (Euclidean) per site; ties to the lower id."""
    dist = np.linalg.norm(grid[..., None, :] - table, axis=-1)
    return np.argmin(dist, axis=-1)


def encode_multiscale(
    image: np.ndarray, schedule: ScaleSchedule, book: Codebook
) -> list[TokenMap] | list[list[TokenMap]]:
    """Greedy residual quantization into K coarse-to-fine token maps.

    ``image`` is one (fh, fw, d) image, which gives its list of maps, or a
    stack (n, fh, fw, d), encoded in one pass per scale, which gives one
    list of maps per image.
    """
    fh, fw = schedule.final_dims
    if image.ndim not in (3, 4) or image.shape[-3:] != (fh, fw, book.latent_dim):
        raise InvalidInputError(
            f"image shape {image.shape} != {(fh, fw, book.latent_dim)}"
        )
    residual = image.astype(float).copy()
    scale_ids = []
    for k in range(1, schedule.num_scales + 1):
        pooled = pool(residual, schedule.grid(k))
        ids = quantize_sites(pooled, book.table(k))
        residual -= upsample(dequantize(k, ids, book), (fh, fw))
        scale_ids.append(ids)
    if image.ndim == 3:
        return [TokenMap(k, ids) for k, ids in enumerate(scale_ids, start=1)]
    return [
        [TokenMap(k, ids[i]) for k, ids in enumerate(scale_ids, start=1)]
        for i in range(len(image))
    ]


def decode_maps(maps: list[TokenMap], schedule: ScaleSchedule, book: Codebook) -> np.ndarray:
    """Accumulate all scales into the finest-resolution latent."""
    fh, fw = schedule.final_dims
    latent = np.zeros((fh, fw, book.latent_dim))
    for tmap in maps:
        latent = accumulate_latent(latent, tmap.k, tmap.ids, book)
    return latent


def synthetic_images(
    schedule: ScaleSchedule, latent_dim: int, seed: int, count: int
) -> list[np.ndarray]:
    """Seeded mixtures of axis-aligned Gaussian bumps on the finest grid.

    Each image sums three bumps with random centre, per-axis width in
    [0.5, 2.0] grid units, and a random d-vector amplitude; bit-for-bit
    reproducible given the seed.

    Every parameter is drawn image by image and bump by bump; then each bump
    layer is evaluated for all images at once and added in bump order, so
    every image equals one built alone. A bump's centre and widths take one
    draw of four uniforms u, scaled afterwards as ``rng.uniform(lo, hi)``
    scales its own draw, lo + (hi - lo) * u: the same stream and bits.
    """
    rng = np.random.default_rng(seed)
    h, w = schedule.final_dims
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    # One row per bump layer and image: centre y, x, width y, x, amplitude.
    params = np.empty((3, count, 4 + latent_dim))
    for i in range(count):
        for b in range(3):
            params[b, i, :4] = rng.random(4)
            params[b, i, 4:] = rng.normal(size=latent_dim)
    params[..., :4] = np.array([0.0, 0.0, 0.5, 0.5]) + np.array([h, w, 1.5, 1.5]) * params[..., :4]
    images = np.zeros((count, h, w, latent_dim))
    for layer in params:
        cy, cx, sy, sx = (layer[:, c, None, None] for c in range(4))
        bump = np.exp(-(((ys - cy) / sy) ** 2 + ((xs - cx) / sx) ** 2) / 2.0)
        images += bump[..., None] * layer[:, None, None, 4:]
    return list(images)


def write_ppm(image: np.ndarray, path) -> None:
    """Dump an image with d <= 3 as plain-text PPM, channels padded to 3.

    Values are min-max scaled to 0..255 per image. One line per image row.
    """
    if image.shape[-1] > 3:
        raise InvalidInputError("PPM output requires latent dimension <= 3")
    h, w, d = image.shape
    rgb = np.zeros((h, w, 3))
    rgb[..., :d] = image
    lo, hi = rgb.min(), rgb.max()
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pixels = np.round((rgb - lo) * scale).astype(int).reshape(h, -1).tolist()
    lines = [f"P3\n{w} {h}\n255"] + [" ".join(map(str, row)) for row in pixels]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_image_csv(image: np.ndarray, path) -> None:
    """Dump per-site vectors as CSV rows (row, col, v_0..v_{d-1}).

    Formatted in ``csv.writer``'s layout (CRLF line ends, ``repr`` of
    floats) in one pass.
    """
    h, w, d = image.shape
    values = np.asarray(image, dtype=float).reshape(h * w, d).tolist()
    lines = [",".join(["row", "col"] + [f"v{i}" for i in range(d)])]
    lines.extend(
        ",".join([str(u // w), str(u % w), *map(repr, row)])
        for u, row in enumerate(values)
    )
    lines.append("")
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))
