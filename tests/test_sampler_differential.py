"""Monte-Carlo sampling against the exact rollout law.

Each case draws N full rollouts with fixed seeds and compares the empirical
sequence frequencies with ``rollout_distribution`` in total variation. The
bound is explicit: for N i.i.d. draws from a law with K outcomes,
E[TV] <= 0.5 * sqrt(K / N) (Cauchy-Schwarz), and one draw moves TV by at most
1 / N, so McDiarmid's inequality adds sqrt(log(1 / delta) / (2 N)) with
failure probability delta. A sampler that draws from the wrong law (for
example the untruncated one) lands far outside it.
"""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from prefixlab.corruption import CorruptionVariant, plan_corruption
from prefixlab.guidance import GuidanceConfig, guided_step
from prefixlab.model import TokenMap
from prefixlab.sampler import (
    SamplerConfig,
    rollout_distribution,
    rollouts,
    truncate_and_sample,
)

DRAWS = 3000
DELTA = 1e-6


def tv_bound(outcomes: int, draws: int, delta: float = DELTA) -> float:
    return 0.5 * math.sqrt(outcomes / draws) + math.sqrt(math.log(1 / delta) / (2 * draws))


def total_variation(law, samples) -> float:
    exact = law.as_dict()
    counts = Counter(samples)
    n = len(samples)
    keys = set(exact) | set(counts)
    return 0.5 * sum(abs(counts.get(s, 0) / n - exact.get(s, 0.0)) for s in keys)


def assert_close_in_tv(law, samples):
    support = int(np.count_nonzero(law.probs))
    tv = total_variation(law, samples)
    bound = tv_bound(support, len(samples))
    assert tv <= bound, f"TV {tv:.4f} over bound {bound:.4f} ({support} outcomes)"


TABULAR_CASES = {
    "unguided": (GuidanceConfig(), SamplerConfig()),
    "cfg": (GuidanceConfig(gamma=1.5), SamplerConfig()),
    "vpg": (GuidanceConfig(lam=1.0, reference="exact-marginal"), SamplerConfig()),
    "cfg_vpg_top_k": (
        GuidanceConfig(gamma=1.0, lam=1.0, reference="exact-marginal"),
        SamplerConfig(top_k=2),
    ),
    "cfg_top_p": (GuidanceConfig(gamma=0.5), SamplerConfig(temperature=0.7, top_p=0.8)),
}


@pytest.mark.parametrize("case", sorted(TABULAR_CASES))
def test_rollout_frequencies_match_exact_law(case, small_tabular, small_book):
    # Schedule (1,1),(2,2) with V = 3: five sites, 243 sequences untruncated.
    gconfig, sconfig = TABULAR_CASES[case]
    law = rollout_distribution(small_tabular, 1, gconfig, sconfig)
    samples = [
        tuple(m.key() for m in result.maps)
        for result in rollouts(
            small_tabular, 1, [(gconfig, replace(sconfig, seed=0))], small_book, DRAWS
        )[0]
    ]
    assert_close_in_tv(law, samples)


@pytest.mark.parametrize("variant", [
    CorruptionVariant.SAME_SCALE_TOKEN, CorruptionVariant.UNIFORM_PREFIX,
])
def test_fixed_plan_sampling_matches_exact_law(variant, small_count, small_book):
    schedule = small_count.schedule
    plan = plan_corruption(schedule, 2, 1.0, variant, seed=5, vocab=small_book.vocab)
    gconfig = GuidanceConfig(
        gamma=1.0, lam=1.5, fraction=1.0, variant=variant, reference="corrupted"
    )
    sconfig = SamplerConfig(top_k=2, top_p=0.9)
    law = rollout_distribution(
        small_count, 0, gconfig, sconfig, fixed_plans={2: plan}
    )
    rng = np.random.default_rng(2024)
    samples = []
    for _ in range(DRAWS):
        maps = []
        for k in range(1, schedule.num_scales + 1):
            step = guided_step(
                small_count, 0, maps, gconfig,
                plan=plan if k == 2 else None,
            )
            ids = truncate_and_sample(step.logits[None], sconfig, [rng])[0]
            maps.append(TokenMap(k, ids))
        samples.append(tuple(m.key() for m in maps))
    assert_close_in_tv(law, samples)
