"""The benchmark's correctness gates fail when they should."""

import json
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, replay_traces


@pytest.fixture(autouse=True)
def one_repeat(monkeypatch):
    monkeypatch.setattr(run, "MIN_REPEATS", 1)


def _run(workload, **kwargs):
    result, context = run.run_benchmark(workload, 0, 0, False, setup_repeats=1, **kwargs)
    return result, context["problems"]


def test_tampered_exact_kl_reference_fails():
    references = json.loads(run.REFERENCES.read_text())
    references["exact_kl"]["0"][2] *= 1 + 1e-9
    result, problems = _run("exact_kl", references=references)
    assert not result["correct"]
    assert result["failed"] == 0
    assert [p for p in problems if p.startswith("cell 2:")]


def test_all_cells_failing_fails():
    patch = {"guidance": {"reference": "corrupted"}, "sweep": {"lambdas": [1.0, 2.0]}}
    result, _ = _run("exact_kl", patch=patch)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert result["metrics"]["ok_ratio"]["value"] == 0.0


def test_zero_verify_models_fails():
    result, problems = _run("verify", patch={"verify": {"models": 0}})
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert any("checked 0 models" in p for p in problems)


def test_sample_replay_catches_changed_logits_and_ids(tmp_path):
    from prefixlab import cli

    config = WORKLOADS["sample"].config(5, run.ROOT)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["sample", "--config", str(path), "--count", "2",
                     "--output-dir", str(out)]) == 0
    assert replay_traces(config, out, [0, 1]) == []

    trace = out / "sample_0001_trace.csv"
    lines = trace.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-12)
    trace.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    assert any("logits differ" in p for p in replay_traces(config, out, [1]))

    cells = lines[1].split(",")
    cells[2] = "7"  # outside the vocabulary
    trace.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
    assert any("outside support" in p for p in replay_traces(config, out, [1]))


def test_benchmark_json_lists_every_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = {name: unit for name, (unit, _, _) in run.LAYER_METRICS.items()}
    layer[run.TRACE_OVERHEAD] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer


def test_times_are_scaled_to_the_reference_host(monkeypatch):
    # A host twice as slow as the reference host halves every time.
    monkeypatch.setattr(run, "host_reference_s", lambda: 2 * run.REFERENCE_HOST_S)
    result, context = run.run_benchmark("exact_kl", 0, 0, False, setup_repeats=1)
    metrics = result["metrics"]
    assert metrics["run_s"]["value"] == pytest.approx(context["run_s_mean"] / 2)
    assert metrics["setup_s"]["value"] == pytest.approx(context["setup_s_quartiles"][1] / 2)
