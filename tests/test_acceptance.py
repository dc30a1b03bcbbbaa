"""Acceptance gate: ten end-to-end checks with fixed tolerances.

Each test prints one PASS/FAIL line so the suite doubles as a report when
run with ``pytest -s tests/test_acceptance.py``.
"""

import contextlib
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import prefixlab
from prefixlab.corruption import (
    CorruptionVariant,
    apply_corruption,
    plan_corruption,
    selection_size,
)
from prefixlab.guidance import BranchLogits, GuidanceConfig, compose_cfg_vpg, guided_step
from prefixlab.model import (
    NULL_CONDITION,
    TokenMap,
    build_tabular,
    embed_prefix,
    embedding_params,
    enumerate_prefix_keys,
)
from prefixlab.oracle import (
    augmented_cfg,
    augmented_vpg,
    kl_divergence,
    prefix_marginal,
    prefix_marginal_sites,
    prefix_posterior,
    softmax,
)
from prefixlab.sampler import (
    SamplerConfig,
    rollouts,
    truncated_site_law,
)
from prefixlab.harness import toy_frechet
from prefixlab.tokenizer import (
    Codebook,
    ScaleSchedule,
    decode_maps,
    dequantize,
    encode_multiscale,
    pool,
    quantize_sites,
    synthetic_images,
    upsample,
)
from tests.conftest import fixture_m1, stacked_ids

SCHEDULE = ScaleSchedule(((1, 1), (1, 1)))
POPULATION = [(v, c) for v in (2, 3, 5) for c in (1, 2, 3)]


@contextlib.contextmanager
def report(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL {description}")
        raise
    print(f"[criterion {number:2d}] PASS {description}")


def model_population(count=100):
    for i in range(count):
        vocab, conds = POPULATION[i % len(POPULATION)]
        yield build_tabular(SCHEDULE, vocab, conds, seed=i)


def test_criterion_1_cfg_identity():
    with report(1, "CFG logit rule matches the augmented law (100 models, KL < 1e-9)"):
        start = time.perf_counter()
        worst = 0.0
        for model in model_population():
            for c in range(model.num_conditions):
                for k in (1, 2):
                    for key in enumerate_prefix_keys(SCHEDULE, model.vocab, k):
                        cond = model.row(c, k, key)
                        null = model.row(NULL_CONDITION, k, key)
                        for gamma in (0.0, 0.5, 1.0, 1.5, 3.0):
                            guided = softmax(
                                (1 + gamma) * np.log(cond) - gamma * np.log(null)
                            ).reshape(-1)
                            oracle = augmented_cfg(model, c, key, gamma).probs
                            worst = max(worst, kl_divergence(guided, oracle))
        elapsed = time.perf_counter() - start
        assert worst < 1e-9, f"max KL {worst:.3e}"
        assert elapsed < 10.0, f"runtime {elapsed:.2f}s"


def test_criterion_2_prefix_contrast_identity():
    lams = (0.0, 0.5, 1.0, 1.3, 1.8, 2.4, 3.0)
    with report(2, "prefix-contrast rule matches the augmented law (KL < 1e-9)"):
        start = time.perf_counter()
        worst = 0.0
        for model in model_population():
            for c in range(model.num_conditions):
                for k in (1, 2):
                    marg = prefix_marginal_sites(model, c, k)
                    for key in enumerate_prefix_keys(SCHEDULE, model.vocab, k):
                        cond = model.row(c, k, key)
                        for lam in lams:
                            guided = softmax(
                                (1 + lam) * np.log(cond) - lam * np.log(marg)
                            ).reshape(-1)
                            oracle = augmented_vpg(model, c, key, lam).probs
                            worst = max(worst, kl_divergence(guided, oracle))
        elapsed = time.perf_counter() - start
        assert worst < 1e-9, f"max KL {worst:.3e}"
        assert elapsed < 10.0, f"runtime {elapsed:.2f}s"


def test_criterion_3_composition_closed_form():
    with report(3, "sequential composition equals the four-term closed form (< 1e-12)"):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            b = BranchLogits(*(rng.normal(size=(1, 1, 4)) for _ in range(4)))
            for gamma in (0.0, 1.5):
                for lam in (0.0, 0.2, 1.0):
                    closed = (
                        (1 + lam) * (1 + gamma) * b.cond_gen
                        - (1 + lam) * gamma * b.null_gen
                        - lam * (1 + gamma) * b.cond_corr
                        + lam * gamma * b.null_corr
                    )
                    diff = np.max(np.abs(compose_cfg_vpg(b, gamma, lam) - closed))
                    worst = max(worst, float(diff))
        assert worst < 1e-12, f"max abs logit difference {worst:.3e}"


def test_criterion_4_hand_derived_fixture_values():
    with report(4, "hand-derived fixture values reproduced to 1e-4"):
        model = fixture_m1()
        marg = prefix_marginal(model, 0, k=2)
        np.testing.assert_allclose(marg.probs, [0.5, 0.5], atol=1e-4)
        post = prefix_posterior(model, 0, outcome=(0,), k=2)
        assert post.as_dict()[((0,),)] == pytest.approx(0.9, abs=1e-4)
        aug = augmented_vpg(model, 0, [(0,)], strength=1.0)
        np.testing.assert_allclose(aug.probs, [0.6923, 0.3077], atol=1e-4)


def test_criterion_5_corruption_invariants():
    with report(5, "selection rounding exact on 50 pairs; corruption invariants hold"):
        schedules = [
            ScaleSchedule(((1, 1), (1, 1))),
            ScaleSchedule(((1, 1), (2, 2))),
            ScaleSchedule(((1, 1), (2, 2), (4, 4))),
            ScaleSchedule(((1, 1), (2, 2), (4, 4), (4, 4))),
            ScaleSchedule(((2, 2), (3, 3), (4, 4))),
        ]
        fractions = ("0.0", "0.1", "0.2", "0.25", "0.3", "0.5", "0.6", "0.7", "0.9", "1.0")
        pairs = 0
        for sched in schedules:
            k = sched.num_scales
            sites = sched.prefix_sites(k)
            for text in fractions:
                expected = math.floor(Fraction(text) * sites + Fraction(1, 2))
                assert selection_size(sched, k, float(text)) == expected, (text, sites)
                pairs += 1
        assert pairs == 50

        sched = ScaleSchedule(((1, 1), (2, 2), (4, 4)))
        book = Codebook.seeded(3, 3, 2, seed=7)
        rng = np.random.default_rng(0)
        maps = [TokenMap(k, rng.integers(0, 3, sched.grid(k))) for k in (1, 2)]
        params = embedding_params(sched, book.latent_dim, 4, 11)
        emb = embed_prefix(stacked_ids([maps]), book, sched, params)

        # Full-embedding outputs stay inside the same-scale embedding set.
        plan = plan_corruption(
            sched, 3, 1.0, CorruptionVariant.SAME_SCALE_FULL_EMBEDDING, seed=1
        )
        out = apply_corruption(emb, [plan], book, sched, params)
        for j, grid in enumerate(out.grids):
            originals = emb.grids[j].reshape(-1, grid.shape[-1])
            for vec in grid.reshape(-1, grid.shape[-1]):
                assert any(np.array_equal(vec, o) for o in originals)

        # Zero fraction is the identity for every selection-based variant.
        for variant in (
            CorruptionVariant.RANDOM_CODEBOOK,
            CorruptionVariant.SAME_SCALE_TOKEN,
            CorruptionVariant.SAME_SCALE_POSITION,
            CorruptionVariant.SAME_SCALE_FULL_EMBEDDING,
        ):
            plan = plan_corruption(sched, 3, 0.0, variant, seed=2, book=book)
            out = apply_corruption(emb, [plan], book, sched, params)
            for a, b in zip(out.grids, emb.grids):
                assert np.array_equal(a, b)

        # Same-scale variants cannot change 1x1 scales: the only donor is
        # the site itself.
        scalar_sched = ScaleSchedule(((1, 1), (1, 1)))
        scalar_book = Codebook.seeded(2, 3, 2, seed=7)
        scalar_params = embedding_params(scalar_sched, scalar_book.latent_dim, 4, 11)
        scalar_emb = embed_prefix([np.asarray([[[1]]])], scalar_book, scalar_sched, scalar_params)
        for variant in (
            CorruptionVariant.SAME_SCALE_TOKEN,
            CorruptionVariant.SAME_SCALE_POSITION,
            CorruptionVariant.SAME_SCALE_FULL_EMBEDDING,
        ):
            plan = plan_corruption(scalar_sched, 2, 1.0, variant, seed=3)
            out = apply_corruption(scalar_emb, [plan], scalar_book, scalar_sched, scalar_params)
            np.testing.assert_allclose(
                out.grids[0], scalar_emb.grids[0], atol=1e-12
            )


def test_criterion_6_tokenizer_roundtrip():
    with report(6, "residual norms non-increasing and codebook roundtrips exact (100 images)"):
        sched = ScaleSchedule(((1, 1), (2, 2), (4, 4)))
        # Zero-inclusive codebook with per-scale magnitude decay: the zero
        # code guarantees monotone residual norms, the decay exact roundtrips.
        tables = []
        for k in range(3):
            c = 4.0 ** -k
            tables.append([[0.0, 0.0], [c, 0.0], [0.0, c], [-c, 0.0]])
        book = Codebook(np.asarray(tables))

        for image in synthetic_images(sched, 2, seed=0, count=100):
            residual = image.copy()
            prev = np.linalg.norm(residual)
            for k in (1, 2, 3):
                ids = quantize_sites(pool(residual, sched.grid(k)), book.table(k))
                residual = residual - upsample(
                    dequantize(k, ids, book), sched.final_dims
                )
                cur = np.linalg.norm(residual)
                assert cur <= prev + 1e-12, f"residual grew at scale {k}"
                prev = cur

        rng = np.random.default_rng(1)
        for _ in range(100):
            maps = [TokenMap(k, rng.integers(0, 4, sched.grid(k))) for k in (1, 2, 3)]
            latent = decode_maps(maps, sched, book)
            recovered = encode_multiscale(latent, sched, book)
            for a, b in zip(maps, recovered):
                assert np.array_equal(a.ids, b.ids)
            np.testing.assert_allclose(
                decode_maps(recovered, sched, book), latent, atol=1e-12
            )


def test_criterion_7_sampler_laws(small_count, small_book):
    with report(7, "truncation laws, rollout determinism and trace replay hold"):
        rng = np.random.default_rng(4)
        for _ in range(20):
            logits = rng.normal(size=5)
            law = truncated_site_law(
                logits, SamplerConfig(temperature=1.0, top_k=5, top_p=1.0)
            )
            np.testing.assert_allclose(law, softmax(logits), atol=1e-12)

        law = truncated_site_law(
            np.log(np.asarray([0.5, 0.3, 0.2])), SamplerConfig(top_p=0.7)
        )
        np.testing.assert_allclose(law, [0.625, 0.375, 0.0], atol=1e-9)

        model = fixture_m1()
        book = Codebook.seeded(2, 2, 2, seed=7)
        a = rollouts(model, 0, [(GuidanceConfig(), SamplerConfig(seed=5))], book, 1)[0][0]
        b = rollouts(model, 0, [(GuidanceConfig(), SamplerConfig(seed=5))], book, 1)[0][0]
        assert [m.key() for m in a.maps] == [m.key() for m in b.maps]
        for ra, rb in zip(a.trace, b.trace):
            assert np.array_equal(ra.logits, rb.logits)

        gconfig = GuidanceConfig(gamma=0.5, lam=1.0, fraction=0.5, reference="corrupted")
        result = rollouts(small_count, 1, [(gconfig, SamplerConfig(seed=9))], small_book, 1)[0][0]
        for idx, recorded in enumerate(result.trace):
            replayed = guided_step(
                small_count, result.condition, list(result.maps[:idx]), gconfig,
                book=small_book, plan=recorded.plans[0],
            )
            assert np.array_equal(recorded.logits, replayed.logits)


def test_criterion_8_toy_frechet():
    with report(8, "image-set distance: 0 on identical sets, 9.0 on the 1-D case"):
        rng = np.random.default_rng(2)
        images = [rng.normal(size=(2, 2, 2)) for _ in range(6)]
        assert toy_frechet(images, images) < 1e-9
        s = np.sqrt(0.5)
        a = [np.asarray([[[-s]]]), np.asarray([[[s]]])]
        b = [x + 3.0 for x in a]
        assert toy_frechet(a, b) == pytest.approx(9.0, abs=1e-6)


def test_criterion_9_branch_counts(small_tabular, small_count, small_book):
    with report(9, "branch evaluations follow the 1/2/2/4 table; masks skip the contrast"):
        tab_prefix = [TokenMap(1, np.asarray([[1]]))]
        expected = {(0.0, 0.0): 1, (1.0, 0.0): 2, (0.0, 1.0): 2, (1.0, 1.0): 4}
        for (gamma, lam), count in expected.items():
            config = GuidanceConfig(gamma=gamma, lam=lam, reference="exact-marginal")
            step = guided_step(small_tabular, 0, tab_prefix, config)
            assert step.evaluations == count, (gamma, lam)
            config = GuidanceConfig(
                gamma=gamma, lam=lam, fraction=1.0, reference="corrupted"
            )
            plan = plan_corruption(small_count.schedule, 2, 1.0, config.variant, 0)
            step = guided_step(small_count, 0, tab_prefix, config, book=small_book,
                               plan=plan)
            assert step.evaluations == count, (gamma, lam)

        masked = GuidanceConfig(lam=1.0, fraction=1.0, scale_mask=(3,), reference="corrupted")
        step = guided_step(small_count, 0, tab_prefix, masked, book=small_book)
        assert step.evaluations == 1
        assert step.branches.cond_corr is None
        assert step.plans[0] is None


def test_criterion_10_end_to_end_verify(tmp_path):
    with report(10, "`verify` on the shipped default config exits 0 in under 60 s"):
        # The child imports the same package source as this test run.
        src = str(Path(prefixlab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "prefixlab.cli", "verify",
             "--output-dir", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert "all identities hold" in proc.stdout
        assert elapsed < 60.0, f"runtime {elapsed:.2f}s"
