"""The one-pass trace and image writers against the csv.writer / per-value
formatting they replaced, byte for byte."""

import csv
import math

import numpy as np
import pytest

from prefixlab.guidance import GuidanceConfig
from prefixlab.sampler import SamplerConfig, rollouts, trace_to_csv
from prefixlab.tokenizer import write_image_csv, write_ppm


def reference_trace_csv(result, path):
    vocab = result.trace[0].logits.shape[-1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["step", "site", "sampled_id"] + [f"logit_{v}" for v in range(vocab)]
        )
        for step, tmap in zip(result.trace, result.maps):
            flat_ids = tmap.ids.ravel()
            flat_logits = step.logits.reshape(-1, vocab)
            for u in range(flat_ids.shape[0]):
                writer.writerow(
                    [step.k, u, int(flat_ids[u])]
                    + [repr(float(x)) for x in flat_logits[u]]
                )


def reference_ppm(image, path):
    h, w, d = image.shape
    rgb = np.zeros((h, w, 3))
    rgb[..., :d] = image
    lo, hi = rgb.min(), rgb.max()
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pixels = np.round((rgb - lo) * scale).astype(int)
    with open(path, "w") as fh:
        fh.write(f"P3\n{w} {h}\n255\n")
        for row in pixels:
            fh.write(" ".join(str(v) for v in row.reshape(-1)) + "\n")


def reference_image_csv(image, path):
    h, w, d = image.shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col"] + [f"v{i}" for i in range(d)])
        for i in range(h):
            for j in range(w):
                writer.writerow([i, j] + [repr(float(x)) for x in image[i, j]])


def assert_same_bytes(tmp_path, ours, reference, value):
    ours(value, tmp_path / "ours")
    reference(value, tmp_path / "reference")
    assert (tmp_path / "ours").read_bytes() == (tmp_path / "reference").read_bytes()


# Values whose repr is short, long, exponent-form, tiny or negative zero.
AWKWARD = [math.log(1e-9), 1e-300, -0.5, -0.0, 0.1 + 0.2, 123456789.125, -2.5e-17]


def test_trace_csv(tmp_path, small_tabular, small_book):
    gconfig = GuidanceConfig(gamma=1.0, lam=1.0, reference="exact-marginal")
    result = rollouts(
        small_tabular, 0, [(gconfig, SamplerConfig(top_k=2, seed=3))], small_book, 1
    )[0][0]
    assert_same_bytes(tmp_path, trace_to_csv, reference_trace_csv, result)
    # The same sample with its logits swapped for awkward values.
    step = result.trace[1]
    logits = np.resize(np.asarray(AWKWARD), step.logits.shape)
    object.__setattr__(step, "logits", logits)
    assert_same_bytes(tmp_path, trace_to_csv, reference_trace_csv, result)
    assert f",{AWKWARD[1]!r}," in (tmp_path / "ours").read_text()


@pytest.mark.parametrize("channels", [1, 2, 3])
def test_ppm(tmp_path, channels):
    image = np.random.default_rng(channels).normal(size=(3, 5, channels))
    assert_same_bytes(tmp_path, write_ppm, reference_ppm, image)


def test_flat_ppm_is_all_zero(tmp_path):
    image = np.full((2, 3, 3), 0.7)
    assert_same_bytes(tmp_path, write_ppm, reference_ppm, image)
    assert (tmp_path / "ours").read_text().split()[4:] == ["0"] * 18


@pytest.mark.parametrize("channels", [1, 4])
def test_image_csv(tmp_path, channels):
    image = np.random.default_rng(channels).normal(size=(3, 2, channels))
    image.flat[: len(AWKWARD)] = AWKWARD[: image.size]
    assert_same_bytes(tmp_path, write_image_csv, reference_image_csv, image)
