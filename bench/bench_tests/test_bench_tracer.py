"""The layer tracer restores what it wraps and counts deterministically."""

import importlib
import json
import math

import pytest

from tracer import LAYERS, Tracer


def _bindings():
    """Every module-level and class-level binding in the package."""
    snapshot = {}
    for layer in ("__init__",) + LAYERS:
        name = "prefixlab" if layer == "__init__" else f"prefixlab.{layer}"
        mod = importlib.import_module(name)
        for attr, value in vars(mod).items():
            snapshot[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("prefixlab"):
                for cattr, cvalue in vars(value).items():
                    snapshot[(f"{value.__module__}.{value.__qualname__}", cattr)] = cvalue
    return snapshot


def test_uninstall_restores_every_binding():
    import prefixlab
    from prefixlab import guidance, model, sampler, tokenizer

    before = _bindings()
    original_step = guidance.guided_step
    tracer = Tracer()
    with tracer:
        # Definitions, copies made by ``from .x import y`` and class methods.
        assert guidance.guided_step is not original_step
        assert sampler.guided_step is guidance.guided_step
        assert prefixlab.guided_step is guidance.guided_step
        assert model.TabularModel.row.__wrapped__ is before[("prefixlab.model.TabularModel", "row")]
        assert tokenizer.Codebook.__dict__["seeded"].__func__.__wrapped__ is (
            before[("prefixlab.tokenizer.Codebook", "seeded")].__func__)
        during = _bindings()
        assert sum(during[k] is not v for k, v in before.items()) > 100
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k, v in before.items() if after[k] is not v]
    assert changed == []


def _write(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


SWEEP = {
    "schedule": [[1, 1], [2, 2]], "vocab": 2, "num_conditions": 2,
    "model": {"kind": "tabular", "seed": 4},
    "guidance": {"gamma": 1.0, "reference": "exact-marginal"},
    "sampler": {"top_k": 1, "seed": 2},
    "sweep": {"lambdas": [0.0, 1.0, 2.0], "metric": "exact_kl", "seed": 2},
}
ABLATE = {
    "schedule": [[1, 1], [2, 2]], "vocab": 3, "num_conditions": 2, "latent_dim": 2,
    "model": {"kind": "count", "corpus_count": 12, "corpus_seed": 1},
    "guidance": {"gamma": 1.0},
    "ablate": {"lambdas": [1.0], "n_p": 0.5, "seed": 3, "n_samples": 3},
}


def _traced(tmp_path, *argv):
    from prefixlab import cli

    tracer = Tracer()
    with tracer:
        assert cli.main(list(argv) + ["--output-dir", str(tmp_path / "out")]) == 0
    return tracer


def _counts(tracer):
    report = tracer.report(1.0)
    return report["calls"], report["distinct"], report["sums"]


@pytest.mark.parametrize("command,config", [("sweep", SWEEP), ("ablate", ABLATE)])
def test_same_seed_gives_same_counts(tmp_path, command, config):
    path = _write(tmp_path, "config.json", config)
    first = _counts(_traced(tmp_path, command, "--config", path))
    second = _counts(_traced(tmp_path, command, "--config", path))
    assert first == second
    calls, distinct, sums = first
    assert sums["guidance.branch_evals"] > 0
    if command == "sweep":
        assert sums["sampler.law_outcomes"] > 0
        assert distinct["sampler.rollout_distribution"] == [4, 6]
    else:
        assert distinct["model.embedding_params"][0] == 1
        assert calls["harness.toy_frechet"] == 5


def test_self_times_and_outside_time_add_up_to_wall(tmp_path):
    import time

    from prefixlab import cli

    path = _write(tmp_path, "config.json", SWEEP)
    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        cli.main(["sweep", "--config", path, "--output-dir", str(tmp_path / "out")])
        time.sleep(0.01)  # time outside every span
        wall = time.perf_counter() - start
    report = tracer.report(wall)
    self_total = sum(layer["self_s"] for layer in report["layers"].values())
    assert all(layer["self_s"] >= 0 for layer in report["layers"].values())
    assert report["outside_s"] >= 0.01
    assert math.isclose(self_total + report["outside_s"], wall, rel_tol=0, abs_tol=1e-6)
