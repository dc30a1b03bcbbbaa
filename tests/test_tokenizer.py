"""Multi-scale residual tokenizer: schedules, codebooks, encode/decode_maps."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixlab.errors import InvalidInputError, InvalidScheduleError, InvalidTokenError
from prefixlab.tokenizer import (
    Codebook,
    ScaleSchedule,
    TokenMap,
    accumulate_latent,
    decode_maps,
    dequantize,
    encode_multiscale,
    nn_index_map,
    pool,
    quantize_sites,
    synthetic_images,
    upsample,
    write_image_csv,
    write_ppm,
)


def decaying_codebook(num_scales, decay=4.0):
    """Zero-inclusive, well-separated directions with geometric magnitude decay.

    Including the zero vector guarantees greedy residual quantization never
    increases the residual norm; the decay keeps finer-scale mass too small
    to flip coarser quantization decisions, so roundtrips are exact.
    """
    tables = []
    for k in range(num_scales):
        c = decay ** -k
        tables.append([[0.0, 0.0], [c, 0.0], [0.0, c], [-c, 0.0]])
    return Codebook(np.asarray(tables))


class TestScaleSchedule:
    def test_basic_accessors(self):
        sched = ScaleSchedule(((1, 1), (2, 2), (4, 4)))
        assert sched.num_scales == 3
        assert sched.final_dims == (4, 4)
        assert sched.grid(2) == (2, 2)
        assert sched.sites(3) == 16
        assert sched.prefix_sites(1) == 0
        assert sched.prefix_sites(3) == 1 + 4

    def test_rejects_empty(self):
        with pytest.raises(InvalidScheduleError):
            ScaleSchedule(())

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(InvalidScheduleError):
            ScaleSchedule(((1, 0),))

    def test_rejects_decreasing_site_counts(self):
        with pytest.raises(InvalidScheduleError):
            ScaleSchedule(((2, 2), (1, 1)))

    @pytest.mark.parametrize(
        "dims, scale",
        [(((1, 2), (2, 1)), 1), (((1, 1), (1, 2), (2, 1)), 2), (((3, 1), (2, 2)), 1)],
    )
    def test_rejects_grid_outside_final_grid(self, dims, scale):
        with pytest.raises(InvalidScheduleError, match=f"scale {scale} grid"):
            ScaleSchedule(dims)

    def test_accepts_grids_that_fit_but_do_not_nest(self):
        sched = ScaleSchedule(((1, 2), (2, 1), (2, 2)))
        assert sched.final_dims == (2, 2)

    def test_scale_index_out_of_range(self):
        sched = ScaleSchedule(((1, 1),))
        with pytest.raises(InvalidScheduleError):
            sched.grid(2)


class TestCodebook:
    def test_seeded_unit_norm_and_deterministic(self):
        a = Codebook.seeded(3, 5, 2, seed=9)
        b = Codebook.seeded(3, 5, 2, seed=9)
        assert np.array_equal(a.vectors, b.vectors)
        norms = np.linalg.norm(a.vectors, axis=-1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        assert (a.num_scales, a.vocab, a.latent_dim) == (3, 5, 2)

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidInputError):
            Codebook(np.zeros((2, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_vectors(self, value):
        vectors = np.zeros((2, 3, 2))
        vectors[1, 2, 0] = value
        with pytest.raises(InvalidInputError, match="finite"):
            Codebook(vectors)

    @pytest.mark.parametrize("k", [0, -1, 3])
    def test_table_outside_the_scales_raises(self, k):
        schedule = ScaleSchedule(((1, 1), (1, 1)))
        book = Codebook.seeded(2, 3, 2, seed=0)
        ids = np.zeros((1, 1), dtype=np.int64)
        for decode in (lambda: book.table(k), lambda: dequantize(k, ids, book),
                       lambda: decode_maps([TokenMap(k, ids)], schedule, book)):
            with pytest.raises(InvalidScheduleError, match=f"scale {k} outside 1..2"):
                decode()


# Each entry point rejects float and bool values where it needs integers.
NON_INTEGER_VALUES = {
    "token_map_floats": (lambda: TokenMap(1, [[0.7, 1.9]]), InvalidInputError),
    "token_map_float_array": (lambda: TokenMap(1, np.zeros((1, 2))), InvalidInputError),
    "token_map_bools": (lambda: TokenMap(1, [[True, False]]), InvalidInputError),
    "token_map_bool_among_ints": (lambda: TokenMap(1, [[True, 1]]), InvalidInputError),
    "token_map_bool_array": (lambda: TokenMap(1, np.ones((1, 2), bool)), InvalidInputError),
    "schedule_floats": (lambda: ScaleSchedule(((1.5, 1), (2.9, 2))), InvalidScheduleError),
    "schedule_bools": (lambda: ScaleSchedule(((True, True),)), InvalidScheduleError),
}


@pytest.mark.parametrize("build, error", NON_INTEGER_VALUES.values(), ids=NON_INTEGER_VALUES)
def test_non_integer_values_rejected(build, error):
    with pytest.raises(error, match="integers"):
        build()


@pytest.mark.parametrize("k", [1.5, 1.0, True])
def test_scale_index_must_be_an_integer(k):
    with pytest.raises(InvalidInputError, match=f"scale {k!r} is not an integer"):
        TokenMap(k, [[0]])
    with pytest.raises(InvalidScheduleError, match=f"scale {k!r} outside"):
        Codebook.seeded(2, 3, 2, seed=0).table(k)


def test_numpy_integers_accepted():
    assert TokenMap(1, [[np.int64(1), np.uint8(2)]]).key() == (1, 2)
    assert TokenMap(np.int64(2), [[0]]).k == 2
    book = Codebook.seeded(2, 3, 2, seed=0)
    assert np.array_equal(book.table(np.int32(2)), book.vectors[1])
    assert TokenMap(1, np.ones((1, 2), np.int32)).ids.dtype == np.int64
    assert ScaleSchedule(((np.int64(1), np.int32(2)),)).dims == ((1, 2),)


class TestResampling:
    def test_nn_index_map_examples(self):
        assert nn_index_map(2, 4).tolist() == [0, 0, 1, 1]
        assert nn_index_map(1, 3).tolist() == [0, 0, 0]
        assert nn_index_map(3, 3).tolist() == [0, 1, 2]

    def test_upsample_replicates_blocks(self):
        grid = np.arange(4.0).reshape(2, 2, 1)
        up = upsample(grid, (4, 4))
        assert up.shape == (4, 4, 1)
        assert up[0, 0, 0] == up[1, 1, 0] == 0.0
        assert up[2, 3, 0] == 3.0

    def test_upsample_rejects_shrinking(self):
        with pytest.raises(InvalidScheduleError):
            upsample(np.zeros((2, 2, 1)), (1, 1))

    def test_pool_rejects_growing(self):
        with pytest.raises(InvalidScheduleError):
            pool(np.zeros((1, 1, 1)), (2, 2))

    def test_pool_inverts_upsample_on_aligned_grids(self):
        rng = np.random.default_rng(0)
        grid = rng.normal(size=(2, 2, 3))
        np.testing.assert_allclose(pool(upsample(grid, (6, 6)), (2, 2)), grid)

    def test_pool_is_block_mean(self):
        grid = np.asarray([[1.0, 3.0], [5.0, 7.0]])[..., None]
        np.testing.assert_allclose(pool(grid, (1, 1)), [[[4.0]]])


class TestQuantization:
    def test_dequantize_then_quantize_is_identity_on_codes(self):
        book = Codebook.seeded(1, 6, 3, seed=2)
        ids = np.arange(6).reshape(2, 3)
        vectors = dequantize(1, ids, book)
        assert np.array_equal(quantize_sites(vectors, book.table(1)), ids)

    def test_out_of_range_token_raises(self):
        book = Codebook.seeded(1, 2, 2, seed=0)
        with pytest.raises(InvalidTokenError):
            dequantize(1, np.asarray([[5]]), book)
        with pytest.raises(InvalidTokenError):
            dequantize(1, np.asarray([[-1]]), book)

    def test_ties_break_to_lower_id(self):
        table = np.asarray([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ids = quantize_sites(np.asarray([[[1.0, 0.0]]]), table)
        assert ids[0, 0] == 0

    def test_token_map_requires_2d(self):
        with pytest.raises(InvalidInputError):
            TokenMap(1, np.asarray([1, 2]))

    def test_token_map_rejects_a_stack(self):
        with pytest.raises(InvalidInputError):
            TokenMap(1, np.zeros((1, 2, 2), dtype=np.int64))

    def test_stacked_accumulate_equals_per_map(self):
        book = Codebook.seeded(2, 4, 2, seed=3)
        ids = np.random.default_rng(0).integers(0, 4, (3, 2, 2))
        prev = np.random.default_rng(1).normal(size=(3, 2, 2, 2))
        stacked = accumulate_latent(prev, 2, ids, book)
        for i in range(3):
            single = accumulate_latent(prev[i], 2, ids[i], book)
            assert stacked[i].tobytes() == single.tobytes()
        with pytest.raises(InvalidTokenError):
            accumulate_latent(prev, 2, ids + 4, book)


class TestEncodeDecode:
    def test_single_scale_exact_code_match(self):
        book = Codebook.seeded(1, 5, 2, seed=4)
        image = book.table(1)[3][None, None, :]
        sched = ScaleSchedule(((1, 1),))
        maps = encode_multiscale(image, sched, book)
        assert maps[0].ids.tolist() == [[3]]
        np.testing.assert_allclose(decode_maps(maps, sched, book), image)

    def test_shape_mismatch_raises(self):
        book = Codebook.seeded(1, 2, 2, seed=0)
        with pytest.raises(InvalidInputError):
            encode_multiscale(np.zeros((2, 2, 2)), ScaleSchedule(((1, 1),)), book)

    def test_roundtrip_recovers_maps_with_separated_codebook(self):
        sched = ScaleSchedule(((1, 1), (2, 2), (4, 4)))
        book = decaying_codebook(3)
        rng = np.random.default_rng(3)
        for _ in range(20):
            maps = [
                TokenMap(k, rng.integers(0, 4, sched.grid(k))) for k in (1, 2, 3)
            ]
            latent = decode_maps(maps, sched, book)
            recovered = encode_multiscale(latent, sched, book)
            for a, b in zip(maps, recovered):
                assert np.array_equal(a.ids, b.ids)

    def test_residual_norm_nonincreasing_with_zero_code(self):
        sched = ScaleSchedule(((1, 1), (2, 2), (4, 4)))
        book = decaying_codebook(3)
        for image in synthetic_images(sched, 2, seed=0, count=20):
            residual = image.copy()
            prev = np.linalg.norm(residual)
            for k in (1, 2, 3):
                ids = quantize_sites(pool(residual, sched.grid(k)), book.table(k))
                residual = residual - upsample(
                    dequantize(k, ids, book), sched.final_dims
                )
                cur = np.linalg.norm(residual)
                assert cur <= prev + 1e-12
                prev = cur

    def test_accumulate_is_order_independent(self):
        sched = ScaleSchedule(((1, 1), (2, 2), (4, 4)))
        book = Codebook.seeded(3, 4, 2, seed=1)
        rng = np.random.default_rng(8)
        maps = [TokenMap(k, rng.integers(0, 4, sched.grid(k))) for k in (1, 2, 3)]
        fh, fw = sched.final_dims
        forward = np.zeros((fh, fw, 2))
        for m in maps:
            forward = accumulate_latent(forward, m.k, m.ids, book)
        backward = np.zeros((fh, fw, 2))
        for m in reversed(maps):
            backward = accumulate_latent(backward, m.k, m.ids, book)
        np.testing.assert_allclose(forward, backward, atol=1e-12)

    def test_accumulate_leaves_input_untouched(self):
        book = Codebook.seeded(1, 2, 2, seed=0)
        prev = np.zeros((1, 1, 2))
        accumulate_latent(prev, 1, np.asarray([[1]]), book)
        assert np.array_equal(prev, np.zeros((1, 1, 2)))

    def test_roundtrip_error_bounded_by_final_residual(self):
        sched = ScaleSchedule(((1, 1), (2, 2)))
        book = Codebook.seeded(2, 4, 2, seed=6)
        image = synthetic_images(sched, 2, seed=1, count=1)[0]
        residual = image.copy()
        for k in (1, 2):
            ids = quantize_sites(pool(residual, sched.grid(k)), book.table(k))
            residual = residual - upsample(
                dequantize(k, ids, book), sched.final_dims
            )
        maps = encode_multiscale(image, sched, book)
        err = image - decode_maps(maps, sched, book)
        np.testing.assert_allclose(err, residual, atol=1e-12)


@st.composite
def stacked_cases(draw):
    """A schedule of up to three scales under a final grid of at most 5x5,
    a codebook for it and a seeded stack of images."""
    fh, fw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    coarse = draw(st.lists(st.tuples(st.integers(1, fh), st.integers(1, fw)), max_size=2))
    dims = sorted(coarse, key=lambda d: d[0] * d[1]) + [(fh, fw)]
    sched = ScaleSchedule(tuple(dims))
    dim, vocab, seed = draw(st.integers(1, 3)), draw(st.integers(2, 5)), draw(st.integers(0, 999))
    book = Codebook.seeded(sched.num_scales, vocab, dim, seed=seed)
    images = np.stack(synthetic_images(sched, dim, seed, count=draw(st.integers(1, 4))))
    return sched, book, images


class TestStackedEncode:
    @given(stacked_cases())
    @settings(max_examples=40, deadline=None)
    def test_stack_equals_per_image_encode(self, case):
        sched, book, images = case
        stacked = encode_multiscale(images, sched, book)
        assert len(stacked) == len(images)
        for image, maps in zip(images, stacked):
            single = encode_multiscale(image, sched, book)
            assert [m.k for m in maps] == [m.k for m in single]
            for a, b in zip(maps, single):
                assert a.ids.shape == b.ids.shape and np.array_equal(a.ids, b.ids)

    def test_stack_shape_mismatch_raises(self):
        book = Codebook.seeded(1, 2, 2, seed=0)
        with pytest.raises(InvalidInputError):
            encode_multiscale(np.zeros((3, 2, 2, 2)), ScaleSchedule(((1, 1),)), book)


def reference_synthetic_images(schedule, latent_dim, seed, count):
    """One image at a time, one bump at a time: the loop that
    ``synthetic_images`` evaluates layer by layer over all images."""
    rng = np.random.default_rng(seed)
    h, w = schedule.final_dims
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    images = []
    for _ in range(count):
        img = np.zeros((h, w, latent_dim))
        for _ in range(3):
            cy, cx = rng.uniform(0, h), rng.uniform(0, w)
            sy, sx = rng.uniform(0.5, 2.0, size=2)
            amp = rng.normal(size=latent_dim)
            bump = np.exp(-(((ys - cy) / sy) ** 2 + ((xs - cx) / sx) ** 2) / 2.0)
            img += bump[..., None] * amp
        images.append(img)
    return images


class TestSyntheticImages:
    def test_reproducible_and_shaped(self):
        sched = ScaleSchedule(((1, 1), (2, 2)))
        a = synthetic_images(sched, 3, seed=5, count=4)
        b = synthetic_images(sched, 3, seed=5, count=4)
        assert len(a) == 4
        assert a[0].shape == (2, 2, 3)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    @given(st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_seed_prefix_stability(self, seed):
        sched = ScaleSchedule(((2, 2),))
        one = synthetic_images(sched, 2, seed=seed, count=1)
        two = synthetic_images(sched, 2, seed=seed, count=2)
        assert np.array_equal(one[0], two[0])

    @given(
        st.sampled_from([((1, 1),), ((1, 1), (2, 2), (4, 4)), ((1, 2), (3, 5)), ((2, 1), (7, 3))]),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_one_image_at_a_time_bit_for_bit(self, dims, latent_dim, seed, count):
        schedule = ScaleSchedule(dims)
        got = synthetic_images(schedule, latent_dim, seed, count)
        expected = reference_synthetic_images(schedule, latent_dim, seed, count)
        assert len(got) == count
        for a, b in zip(got, expected):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestImageDump:
    def test_ppm_header_and_range(self, tmp_path):
        image = np.asarray([[[0.0], [1.0]], [[2.0], [3.0]]])
        path = tmp_path / "img.ppm"
        write_ppm(image, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P3"
        assert lines[1] == "2 2"
        assert lines[2] == "255"
        values = [int(v) for line in lines[3:] for v in line.split()]
        assert min(values) == 0 and max(values) == 255

    def test_ppm_rejects_deep_latents(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_ppm(np.zeros((1, 1, 4)), tmp_path / "img.ppm")

    def test_csv_dump_roundtrips_values(self, tmp_path):
        image = np.arange(8.0).reshape(2, 2, 2)
        path = tmp_path / "img.csv"
        write_image_csv(image, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["row", "col", "v0", "v1"]
        back = np.zeros_like(image)
        for row in rows[1:]:
            back[int(row[0]), int(row[1])] = [float(row[2]), float(row[3])]
        assert np.array_equal(back, image)

