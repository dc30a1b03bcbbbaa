"""Hash the outputs of a fixed set of CLI runs, to show that a change leaves
every command output byte-identical.

Usage, from the repository root:

    python tools/output_digest.py SRC_DIR --seeds 5 8

SRC_DIR is the ``src`` directory of the checkout to run; the default config
of the ``verify`` run is read from the checkout around it. For each seed the
script runs, each in a fresh ``python -m prefixlab.cli`` child with
``PYTHONPATH=SRC_DIR`` and one BLAS thread:

- the ``verify`` (18 models), ``exact_kl``, ``ablate`` and ``sample``
  configs of ``bench/workloads.py``, ``sample`` cut to 12 samples;
- that ``verify`` config on the multi-site schedule ``(1,1),(1,2),(2,2)``
  with 4 models over V in {2, 3} and C in {2, 3}, so the
  ``identity_report.csv`` it writes (model 0: V=2, C=2) covers several
  conditions, prefixes and sites;
- a count-model ``sample`` of 12 with the corrupted reference, lambda 1,
  n_p 0.5 and the ``uniform_prefix`` variant.

It prints one ``sha256  path`` line per output file, stdout and stderr of
each run, and one ``exit N  path`` line per run. Before hashing, the output
directory is replaced by ``<out>`` in stdout and stderr, the elapsed time is
cut from ``verify``'s summary line, and the ``runtime_ms`` column is dropped
from every CSV that has one; nothing else in the outputs depends on the
host. Run it on two checkouts and ``diff`` the two listings.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # import the bench module without writing under bench/
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS, merge_config  # noqa: E402

SAMPLES = 12
# The corrupted-reference guidance of the count-model sample run.
CORRUPTED = {"lambda": 1.0, "n_p": 0.5, "variant": "uniform_prefix",
             "reference": "corrupted"}
# The multi-site verify run; its model 0 has V=2 and C=2.
MULTISITE_VERIFY = {"schedule": [[1, 1], [1, 2], [2, 2]],
                    "verify": {"models": 4, "vocab_grid": [2, 3],
                               "condition_grid": [2, 3]}}
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def runs(seed: int, checkout: Path):
    """(name, CLI command, config) of every run at ``seed``."""
    for name in ("verify", "exact_kl", "ablate", "sample"):
        workload = WORKLOADS[name]
        yield name, workload.command, workload.config(seed, checkout)
    yield ("verify_multisite", "verify",
           merge_config(WORKLOADS["verify"].config(seed, checkout), MULTISITE_VERIFY))
    count_sample = merge_config(WORKLOADS["ablate"].config(seed, checkout),
                                {"guidance": CORRUPTED})
    yield "count_sample_corrupted", "sample", count_sample


def normalized(path: Path) -> bytes:
    """The file's bytes, with a ``runtime_ms`` CSV column dropped."""
    data = path.read_bytes()
    if path.suffix != ".csv":
        return data
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    if not rows or "runtime_ms" not in rows[0]:
        return data
    drop = rows[0].index("runtime_ms")
    out = io.StringIO(newline="")
    csv.writer(out).writerows(row[:drop] + row[drop + 1:] for row in rows)
    return out.getvalue().encode()


def digest(src: Path, seed: int, work: Path) -> list[str]:
    lines = []
    env = {k: v for k, v in os.environ.items() if k != "PREFIXLAB_OUTPUT_DIR"}
    env.update(BLAS_PINS, PYTHONPATH=str(src))
    for name, command, config in runs(seed, src.parent):
        run_dir = work / f"seed{seed}" / name
        out_dir = run_dir / "out"
        run_dir.mkdir(parents=True)
        config_path = run_dir / "config.json"
        config_path.write_text(json.dumps(config))
        argv = [command, "--config", str(config_path), "--output-dir", str(out_dir)]
        if command == "sample":
            argv += ["--count", str(SAMPLES)]
        proc = subprocess.run(
            [sys.executable, "-m", "prefixlab.cli", *argv],
            cwd=run_dir, env=env, capture_output=True, text=True,
        )
        label = f"seed{seed}/{name}"
        stdout = re.sub(r"(tolerance \S+), [0-9.]+s$", r"\1", proc.stdout, flags=re.M)
        for stream, text in (("stdout", stdout), ("stderr", proc.stderr)):
            text = text.replace(str(out_dir), "<out>")
            lines.append(f"{hashlib.sha256(text.encode()).hexdigest()}  {label}/{stream}")
        files = sorted(p for p in out_dir.rglob("*") if p.is_file()) if out_dir.is_dir() else []
        for path in files:
            digest_hex = hashlib.sha256(normalized(path)).hexdigest()
            lines.append(f"{digest_hex}  {label}/{path.relative_to(out_dir)}")
        lines.append(f"exit {proc.returncode}  {label}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="the src directory of a checkout")
    parser.add_argument("--seeds", type=int, nargs="+", default=[5, 8])
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "prefixlab" / "cli.py").is_file():
        print(f"no prefixlab package under {src}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="output_digest_") as tmp:
        for seed in args.seeds:
            for line in digest(src, seed, Path(tmp)):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
