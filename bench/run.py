"""prefixlab benchmark: four CLI workloads, end-to-end metrics, per-layer split.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``verify``, ``exact_kl``, ``ablate`` and ``sample`` (see
``workloads.py``). The seed is written into the generated config; the CLI
receives only that config. Every command runs through ``prefixlab.cli.main``
in a fresh child process, one at a time (closed loop, one client), with BLAS
pinned to one thread.

``--trace 0`` measures the end-to-end metrics with tracing off:

- ``setup_s``: median wall time of a fresh interpreter that imports
  ``prefixlab``, loads the config and builds the workload's model;
- ``run_s``: mean wall time of one command, repeated for S seconds;
- ``items_per_s``: work items (models, cells, rollouts or samples) per second
  of the mean command;
- ``peak_rss_mb``: median peak resident memory of the command's process;
- ``ok_ratio``: 1 - failed/attempted items (``failed`` and ``attempted``
  are also printed as whole counts).

Both times are host-scaled: the host is shared, and other tenants slow every
process on it by up to 1.5x in phases lasting seconds to minutes, which moves
a run's times by more than a regression bound. So a fixed pure-Python
reference loop is timed right after every set-up and every command, and each
time is scaled by ``REFERENCE_HOST_S`` over the same statistic of the loops
that followed the same kind of step: the time the step would have taken on a
host where the loop takes ``REFERENCE_HOST_S``. The loop is benchmark code,
so no change to the package moves it. ``run_s`` is a ratio of means, that is
of the commands' total time to the loops' total time, because the slowdown
multiplies both totals alike; a ratio of medians spread about twice as much
across runs. ``setup_s`` is a ratio of medians. The unscaled quartiles and
the reference times are printed as context.

``--trace 1`` alternates untraced commands with commands run under the layer
tracer (``tracer.py``) and reports the per-layer metrics of ``LAYER_METRICS``.

Every command's outputs pass the workload's correctness gate. The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it holds context that is not gated: sample
counts, unscaled quartiles and the reference loop's times. The exit code is 0
when every gate passed, 1 when one failed, and 2 when the package sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Outcome, merge_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCES = BENCH / "references.json"

# One BLAS thread per child: the load shape is one single-threaded command at
# a time, and unpinned BLAS spreads toy_frechet's eigh/cov over every core.
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

MIN_REPEATS = 3
# Iterations of the host reference loop, and the loop time that host-scaled
# figures are expressed at (about the loop's fastest time on a 2-vCPU Xeon
# VM under KVM).
REFERENCE_LOOPS = 2_000_000
REFERENCE_HOST_S = 0.16
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 150.0


def _calls(qualname):
    return lambda r: r["calls"].get(qualname, 0)


def _incl(*qualnames):
    return lambda r: sum(r["incl_s"].get(q, 0.0) for q in qualnames)


def _sum(name):
    return lambda r: r["sums"][name]


def _distinct_ratio(group):
    def value(r):
        distinct, calls = r["distinct"][group]
        return distinct / calls if calls else 0.0
    return value


def _evals_per_step(r):
    steps = r["calls"].get("guidance.guided_step", 0)
    return r["sums"]["guidance.branch_evals"] / steps if steps else 0.0


def _layer(layer, key):
    return lambda r: r["layers"][layer][key]


def _output(key):
    return lambda r: r["output"][key]


# name -> (unit, better, value from one traced report). Counts and ratios are
# deterministic and must repeat exactly across traced runs; seconds are
# medians over the traced runs.
LAYER_METRICS = {}
for _name in ("cli", "config", "tokenizer", "model", "corruption", "guidance",
              "oracle", "sampler", "harness"):
    LAYER_METRICS[f"{_name}.self_s"] = ("s", "lower", _layer(_name, "self_s"))
    LAYER_METRICS[f"{_name}.calls"] = ("count", "lower", _layer(_name, "calls"))
for _q in ("oracle.prefix_marginal", "oracle.prefix_marginal_sites",
           "oracle.enumerate_prefixes", "oracle.step_map_distribution",
           "oracle.softmax", "sampler.truncated_site_law", "sampler.truncated_law",
           "sampler.truncate_and_sample", "sampler.rollout",
           "sampler.rollout_distribution", "model.predict_logits",
           "model.embed_prefix", "model.embedding_params",
           "model.context_signature", "corruption.plan_corruption",
           "corruption.apply_corruption", "guidance.guided_step",
           "tokenizer.accumulate_latent", "tokenizer.decode_maps",
           "tokenizer.encode_multiscale", "harness.exact_kl",
           "harness.toy_frechet"):
    LAYER_METRICS[f"{_q}.calls"] = ("count", "lower", _calls(_q))
LAYER_METRICS.update({
    "model.thresholds.calls": ("count", "lower", _calls("model.SignatureSpec.thresholds")),
    "model.row.calls": ("count", "lower", _calls("model.TabularModel.row")),
    "oracle.identity_rows": ("count", "higher", _sum("oracle.identity_rows")),
    "oracle.marginal.distinct_ratio": ("ratio", "higher", _distinct_ratio("oracle.marginal")),
    "sampler.rollout_distribution.distinct_ratio": (
        "ratio", "higher", _distinct_ratio("sampler.rollout_distribution")),
    "sampler.law_outcomes": ("count", "higher", _sum("sampler.law_outcomes")),
    "model.embedding_params.distinct_ratio": (
        "ratio", "higher", _distinct_ratio("model.embedding_params")),
    "corruption.plan_sites": ("count", "lower", _sum("corruption.plan_sites")),
    "guidance.branch_evals": ("count", "lower", _sum("guidance.branch_evals")),
    "guidance.evals_per_step": ("ratio", "lower", _evals_per_step),
    "harness.cells": ("count", "higher", _sum("harness.cells")),
    "sampler.trace_write_s": ("s", "lower", _incl("sampler.trace_to_csv")),
    "model.build_s": ("s", "lower", _incl(
        "model.build_tabular", "model.tabular_from_rows", "model.fit_count_model")),
    "tokenizer.write_s": ("s", "lower", _incl(
        "tokenizer.write_ppm", "tokenizer.write_image_csv")),
    "harness.write_s": ("s", "lower", _incl(
        "harness.write_sweep_csv", "harness.write_sweep_svg")),
    "cli.output_bytes": ("bytes", "lower", _output("bytes")),
    "cli.files_written": ("count", "lower", _output("files")),
})
TRACE_OVERHEAD = "trace.overhead_s"

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "items_per_s": "1/s",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PREFIXLAB_OUTPUT_DIR", None)
    env.update(BLAS_PINS, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


def run_child(argv: list[str], log_dir: Path) -> Child:
    """Run one child process to completion; wall time and rusage from wait4."""
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                 out_path.read_text(), err_path.read_text())


def host_reference_s() -> float:
    """A fixed pure-Python loop; its time tracks the host's speed only."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _output_stats(out_dir: Path) -> dict:
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    return {"files": len(files), "bytes": sum(p.stat().st_size for p in files)}


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


class Run:
    """One benchmark run of one workload, in its own work directory."""

    def __init__(self, workload: str, seed: int, work: Path, *,
                 patch: dict | None = None, references: dict | None = None):
        self.workload = WORKLOADS[workload]
        self.config = self.workload.config(seed, ROOT)
        if patch:
            self.config = merge_config(self.config, patch)
        self.references = references if references is not None else json.loads(
            REFERENCES.read_text())
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1))
        self.out_dir = work / "out"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Host-speed reference after every command; measure() scales the
        # mean command time by it.
        self.host_s: list[float] = []

    def _record(self, outcome: Outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems

    def command(self, traced: bool):
        """Run the workload's command once, check its outputs, return the child
        and (when traced) the tracer report."""
        cli = self.workload.cli_args(self.config_path, fresh_dir(self.out_dir))
        report_path = self.work / "trace.json"
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(report_path)] + cli
        else:
            argv = [sys.executable, "-m", "prefixlab.cli"] + cli
        child = run_child(argv, self.work)
        self.host_s.append(host_reference_s())
        if child.code != 0:
            self.problems.append(f"stderr: {child.stderr.strip()[-300:]}")
        self._record(self.workload.check(
            self.config, self.out_dir, child.stdout, child.code, self.references))
        if not traced:
            return child, None
        if not report_path.is_file():
            self.problems.append("traced run wrote no report")
            return child, None
        report = json.loads(report_path.read_text())
        report_path.unlink()
        report["output"] = _output_stats(self.out_dir)
        return child, report

    def setup_times(self, repeats: int) -> tuple[list[float], list[float]]:
        """Wall times of ``repeats`` set-ups, and the host reference loop's
        time after each."""
        argv = [sys.executable, str(BENCH / "setup_model.py"),
                str(self.config_path), self.workload.command]
        times, host = [], []
        for _ in range(repeats):
            child = run_child(argv, self.work)
            if child.code != 0:
                self.problems.append(f"set-up exited with code {child.code}")
            times.append(child.wall_s)
            host.append(host_reference_s())
        return times, host

    def measure(self, seconds: float, setup_repeats: int) -> tuple[dict, dict]:
        setup, setup_host = self.setup_times(setup_repeats)
        walls, rss = [], []
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_REPEATS or time.perf_counter() < deadline:
            child, _ = self.command(traced=False)
            walls.append(child.wall_s)
            rss.append(child.rss_mb)
        setup_scale = REFERENCE_HOST_S / statistics.median(setup_host)
        run_scale = REFERENCE_HOST_S / statistics.fmean(self.host_s)
        run_s = statistics.fmean(walls) * run_scale
        ok = 1.0 - self.failed / self.attempted
        values = {
            "setup_s": statistics.median(setup) * setup_scale,
            "run_s": run_s,
            "items_per_s": self.workload.items(self.config) / run_s,
            "peak_rss_mb": statistics.median(rss),
            "ok_ratio": ok,
        }
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}
        context = {"setup_samples": len(setup), "setup_s_quartiles": _quartiles(setup),
                   "setup_host_reference_s_quartiles": _quartiles(setup_host),
                   "run_samples": len(walls), "run_s_quartiles": _quartiles(walls),
                   "run_s_mean": statistics.fmean(walls),
                   "setup_scale": setup_scale, "run_scale": run_scale}
        return metrics, context

    def trace(self, seconds: float) -> tuple[dict, dict]:
        walls, traced_walls, reports = [], [], []
        deadline = time.perf_counter() + seconds
        # At least two traced runs, so their counts can be compared.
        while len(reports) < 2 or time.perf_counter() < deadline:
            child, _ = self.command(traced=False)
            walls.append(child.wall_s)
            child, report = self.command(traced=True)
            traced_walls.append(child.wall_s)
            if report is None:
                break
            reports.append(report)
        if not reports:
            return {}, {}
        metrics = {}
        for name, (unit, _, value) in LAYER_METRICS.items():
            values = [value(r) for r in reports]
            if unit == "s":
                metrics[name] = {"value": statistics.median(values), "unit": unit}
                continue
            # Sweep CSVs carry a runtime column, so only output size may vary.
            if name != "cli.output_bytes" and any(v != values[0] for v in values):
                self.problems.append(f"{name} differs across traced runs: {values}")
            metrics[name] = {"value": values[0], "unit": unit}
        metrics[TRACE_OVERHEAD] = {
            "value": statistics.median(traced_walls) - statistics.median(walls),
            "unit": "s"}
        self.problems += self.workload.check_trace(metrics, self.references)
        context = {"traced_samples": len(reports), "untraced_samples": len(walls),
                   "traced_wall_s_quartiles": _quartiles(traced_walls),
                   "outside_span_s": [r["outside_s"] for r in reports]}
        return metrics, context


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, *,
                  patch: dict | None = None, references: dict | None = None,
                  setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Run one workload; return (result, context). ``patch`` is merged into
    the generated config and ``references`` replaces the recorded ones."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    work = fresh_dir(WORK / f"{workload}-{os.getpid()}")
    try:
        run = Run(workload, seed, work, patch=patch, references=references)
        if trace:
            metrics, context = run.trace(seconds)
        else:
            metrics, context = run.measure(seconds, setup_repeats)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    result = {
        "correct": not run.problems and run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    context.update(workload=workload, seed=seed, trace=int(trace),
                   host_reference_s_quartiles=_quartiles(run.host_s),
                   failed_ratio=run.failed / run.attempted if run.attempted else 1.0,
                   problems=run.problems[:20])
    return result, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "prefixlab" / "cli.py").is_file():
        print(f"bench: no prefixlab sources under {SRC}", file=sys.stderr)
        return 2
    result, context = run_benchmark(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
