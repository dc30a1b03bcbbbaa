"""Record the reference values the correctness gates compare against.

Usage, from the repository root: python3 bench/record_references.py

Runs the ``exact_kl`` sweep once for every model seed the benchmark folds its
seed onto, and ``verify`` once under the tracer, and writes the cell values
and the identity-row count to ``bench/references.json``. Only re-record when
a change is meant to alter these values, and say so with the change.
"""

import csv
import json
import shutil
import sys

import run
from workloads import EXACT_KL_MODEL_SEEDS, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work = run.fresh_dir(run.WORK / "record")
    try:
        exact = {}
        workload = WORKLOADS["exact_kl"]
        for model_seed in range(EXACT_KL_MODEL_SEEDS):
            config = workload.config(model_seed, run.ROOT)
            (work / "config.json").write_text(json.dumps(config))
            out = run.fresh_dir(work / "out")
            child = run.run_child(
                [sys.executable, "-m", "prefixlab.cli"]
                + workload.cli_args(work / "config.json", out), work)
            (path,) = out.glob("sweep_*.csv")
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            if child.code != 0 or any(r["error"] for r in rows):
                raise SystemExit(f"exact_kl failed for model seed {model_seed}")
            exact[str(model_seed)] = [float(r["value"]) for r in rows]
        verify = run.Run("verify", 0, work, references={})
        _, report = verify.command(traced=True)
        rows = report["sums"]["oracle.identity_rows"]
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(
        {"verify": {"identity_rows": rows}, "exact_kl": exact}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
