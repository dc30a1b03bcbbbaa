"""The benchmark's four CLI workloads: configs made from a seed, and the
correctness gate each workload's outputs must pass.

Each workload loads one layer of the package and leaves the others idle:

- ``verify``: the shipped default config, cut to ``VERIFY_MODELS`` tabular
  models (two passes over its nine vocabulary and condition pairs) so a run
  holds enough commands for a steady median. Nearly all of its time is in
  ``oracle``; it never touches ``sampler``, ``corruption`` or the
  embeddings. A marginal cache shows here and a sampler change should not.
- ``exact_kl``: an exact-KL sweep on a multi-site tabular model. It uses the
  sampler's exact-law form, per-prefix marginals, and repeated baseline laws.
  It is not in ``BENCHMARK.json``'s workload list: its run times spread the
  most under host-speed drift, and its layers are also measured on
  ``verify`` and ``ablate``. Run it by name to measure the exact laws.
- ``ablate``: all five corruption variants on a count model. The only
  workload that uses ``corruption``, the prefix embeddings, context
  signatures and ``toy_frechet``; its corpus fit dominates set-up.
- ``sample``: ``SAMPLE_COUNT`` guided samples with trace CSVs and PPM images,
  the write path of ``cli``, ``tokenizer`` and ``sampler``.

The checks import ``prefixlab`` (the caller puts it on ``sys.path``) and use
only its public functions.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

# exact_kl reference values are recorded per model seed; the benchmark seed is
# folded onto this many model seeds so every seed has a recorded reference.
EXACT_KL_MODEL_SEEDS = 32
SAMPLE_COUNT = 192
# Samples whose traces are replayed through ``guided_step`` on every repeat.
SAMPLE_REPLAY_EVERY = 48
REL_TOL = 1e-12
# Models one verify command checks: two passes over the default config's
# nine (vocabulary, conditions) pairs, instead of its 100 models.
VERIFY_MODELS = 18


@dataclass
class Outcome:
    """What one command run produced: items attempted and failed, and every
    correctness problem found in its outputs."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def merge_config(base: dict, patch: dict) -> dict:
    """``base`` with ``patch`` merged in, nested sections key by key."""
    out = dict(base)
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge_config(out[key], value)
        else:
            out[key] = value
    return out


def _seeded(config: dict, seed: int, model_seed: int | None = None) -> dict:
    return merge_config(config, {
        "model": {"seed": seed if model_seed is None else model_seed,
                  "corpus_seed": seed},
        "sampler": {"seed": seed},
        "sweep": {"seed": seed},
        "ablate": {"seed": seed},
    })


_BASE = {
    "version": 1,
    "codebook_seed": 7,
    "embed_dim": 4,
    "embed_seed": 11,
    "condition": 0,
}


class Workload:
    name = ""
    command = ""

    def config(self, seed: int, root: Path) -> dict:
        raise NotImplementedError

    def cli_args(self, config_path: Path, out_dir: Path) -> list[str]:
        return [self.command, "--config", str(config_path),
                "--output-dir", str(out_dir)]

    def items(self, config: dict) -> int:
        """Work items one command performs when every item succeeds."""
        raise NotImplementedError

    def check(self, config: dict, out_dir: Path, stdout: str, code: int,
              references: dict) -> Outcome:
        raise NotImplementedError

    def check_trace(self, layer_metrics: dict, references: dict) -> list[str]:
        return []


def _failed_exit(outcome: Outcome, code: int) -> Outcome:
    """A non-zero exit code counts as every item failed."""
    if code != 0:
        outcome.failed = outcome.attempted
        outcome.problems.append(f"exit code {code}")
    return outcome


def _sweep_rows(out_dir: Path, stem: str) -> list[dict] | None:
    """Rows of the command's one sweep CSV, or None unless there is exactly one."""
    found = list(out_dir.glob(f"{stem}_*.csv"))
    if len(found) != 1:
        return None
    with open(found[0], newline="") as fh:
        return list(csv.DictReader(fh))


class Verify(Workload):
    name = "verify"
    command = "verify"

    def config(self, seed, root):
        text = (root / "src" / "prefixlab" / "data" / "default_config.json").read_text()
        return merge_config(_seeded(json.loads(text), seed),
                            {"verify": {"models": VERIFY_MODELS}})

    def items(self, config):
        return config["verify"]["models"]

    def check(self, config, out_dir, stdout, code, references):
        configured = self.items(config)
        # Zero models checked is a vacuous pass: count it as one failed item.
        outcome = Outcome(attempted=max(configured, 1))
        match = re.search(r"verify: (\d+) models, max KL ([^,\s]+), tolerance", stdout)
        if match is None:
            outcome.problems.append("no verify summary line")
        else:
            models, max_kl = int(match.group(1)), float(match.group(2))
            if models != configured or models == 0:
                outcome.problems.append(
                    f"checked {models} models, configured {configured}")
            if not max_kl <= config["verify"]["tolerance"]:
                outcome.problems.append(f"max KL {max_kl} over tolerance")
        if outcome.problems:
            outcome.failed = outcome.attempted
        return _failed_exit(outcome, code)

    def check_trace(self, layer_metrics, references):
        rows = layer_metrics["oracle.identity_rows"]["value"]
        expected = references["verify"]["identity_rows"]
        if rows != expected:
            return [f"traced identity rows {rows}, reference {expected}"]
        return []


class ExactKL(Workload):
    name = "exact_kl"
    command = "sweep"

    def config(self, seed, root):
        return _seeded({
            **_BASE,
            "schedule": [[1, 1], [2, 2], [2, 2]],
            "vocab": 3,
            "num_conditions": 2,
            "latent_dim": 2,
            "model": {"kind": "tabular"},
            "guidance": {"gamma": 1.0, "lambda": 0.0, "n_p": 0.0,
                         "reference": "exact-marginal"},
            # Top-k alone keeps exactly two tokens per site whatever the
            # model seed, so every seed enumerates the same number of laws.
            "sampler": {"temperature": 1.0, "top_k": 2, "top_p": 1.0},
            "sweep": {"lambdas": [0.0, 0.5, 1.0, 1.5, 2.0, 3.0], "n_ps": [0.0],
                      "replicates": 1, "metric": "exact_kl"},
        }, seed, model_seed=seed % EXACT_KL_MODEL_SEEDS)

    def items(self, config):
        sweep = config["sweep"]
        return len(sweep["lambdas"]) * len(sweep["n_ps"]) * sweep["replicates"]

    def check(self, config, out_dir, stdout, code, references):
        outcome = Outcome(attempted=max(self.items(config), 1))
        rows = _sweep_rows(out_dir, "sweep")
        if rows is None:
            outcome.problems.append("no single sweep CSV")
            outcome.failed = outcome.attempted
            return _failed_exit(outcome, code)
        if len(rows) != self.items(config):
            outcome.problems.append(f"{len(rows)} cells, expected {self.items(config)}")
        expected = references["exact_kl"].get(str(config["model"]["seed"]))
        if expected is None:
            outcome.problems.append(f"no reference for model seed {config['model']['seed']}")
            expected = []
        for i, row in enumerate(rows):
            if row["error"]:
                outcome.failed += 1
                outcome.problems.append(f"cell {i}: {row['error']}")
            elif i < len(expected):
                value, ref = float(row["value"]), expected[i]
                if not abs(value - ref) <= REL_TOL * abs(ref):
                    outcome.problems.append(f"cell {i}: {value!r} != reference {ref!r}")
        return _failed_exit(outcome, code)


class Ablate(Workload):
    name = "ablate"
    command = "ablate"

    def config(self, seed, root):
        return _seeded({
            **_BASE,
            "schedule": [[1, 1], [2, 2], [4, 4]],
            "vocab": 4,
            "num_conditions": 2,
            "latent_dim": 3,
            "model": {"kind": "count", "alpha": 1.0, "signature_bins": 4,
                      "signature_seed": 0, "include_null": True,
                      "corpus_count": 200},
            "guidance": {"gamma": 1.0, "reference": "corrupted"},
            "sampler": {"temperature": 1.0, "top_k": None, "top_p": 1.0},
            "ablate": {"lambdas": [0.0, 0.5, 1.0], "n_p": 0.25,
                       "replicates": 1, "n_samples": 24},
        }, seed)

    def _cells(self, config):
        from prefixlab.corruption import CorruptionVariant

        ab = config["ablate"]  # every corruption variant at each lambda
        return len(ab["lambdas"]) * len(CorruptionVariant) * ab["replicates"]

    def items(self, config):
        return self._cells(config) * config["ablate"]["n_samples"]

    def check(self, config, out_dir, stdout, code, references):
        per_cell = config["ablate"]["n_samples"]
        outcome = Outcome(attempted=max(self.items(config), 1))
        rows = _sweep_rows(out_dir, "ablate")
        if rows is None:
            outcome.problems.append("no single ablate CSV")
            outcome.failed = outcome.attempted
            return _failed_exit(outcome, code)
        if len(rows) != self._cells(config):
            outcome.problems.append(f"{len(rows)} cells, expected {self._cells(config)}")
        for i, row in enumerate(rows):
            if row["error"] or not math.isfinite(float(row["value"])):
                outcome.failed += per_cell
                outcome.problems.append(f"cell {i}: {row['error'] or row['value']}")
        return _failed_exit(outcome, code)


class Sample(Workload):
    name = "sample"
    command = "sample"

    def config(self, seed, root):
        return _seeded({
            **_BASE,
            "schedule": [[1, 1], [2, 2], [8, 8]],
            "vocab": 3,
            "num_conditions": 2,
            "latent_dim": 3,
            "model": {"kind": "tabular"},
            "guidance": {"gamma": 1.0, "lambda": 0.0,
                         "reference": "exact-marginal"},
            "sampler": {"temperature": 1.0, "top_k": 2, "top_p": 0.9},
        }, seed)

    def cli_args(self, config_path, out_dir):
        return super().cli_args(config_path, out_dir) + ["--count", str(SAMPLE_COUNT)]

    def items(self, config):
        return SAMPLE_COUNT

    def check(self, config, out_dir, stdout, code, references):
        outcome = Outcome(attempted=SAMPLE_COUNT)
        for i in range(SAMPLE_COUNT):
            stem = out_dir / f"sample_{i:04d}"
            if not (Path(f"{stem}_trace.csv").is_file() and Path(f"{stem}.ppm").is_file()):
                outcome.failed += 1
        if outcome.failed:
            outcome.problems.append(f"{outcome.failed} samples without trace or image")
        outcome.problems += replay_traces(
            config, out_dir, range(0, SAMPLE_COUNT, SAMPLE_REPLAY_EVERY))
        return _failed_exit(outcome, code)


def replay_traces(config: dict, out_dir: Path, samples) -> list[str]:
    """Recompute every step of the given samples from their recorded token
    prefixes and compare with their trace CSVs.

    The guided logits must match bit for bit and every sampled id must lie
    in the support of the truncated law. Neither check depends on the random
    stream, so a sampler that draws differently still passes.
    """
    import numpy as np

    from prefixlab.config import parse_config
    from prefixlab.guidance import guided_step
    from prefixlab.model import build_tabular
    from prefixlab.sampler import trace_from_csv, truncated_site_law
    from prefixlab.tokenizer import TokenMap

    cfg = parse_config(config)
    book = cfg.codebook()
    model = build_tabular(cfg.schedule, cfg.vocab, cfg.num_conditions, cfg.model.seed)
    problems = []
    for i in samples:
        path = out_dir / f"sample_{i:04d}_trace.csv"
        if not path.is_file():
            problems.append(f"sample {i}: no trace")
            continue
        trace = trace_from_csv(path)
        maps = []
        for k in range(1, cfg.schedule.num_scales + 1):
            h, w = cfg.schedule.grid(k)
            recorded = trace.get(k, {})
            if sorted(recorded) != list(range(h * w)):
                problems.append(f"sample {i} step {k}: sites missing from trace")
                break
            step = guided_step(model, cfg.condition, maps, cfg.guidance, book=book)
            logits = np.stack([recorded[u][1] for u in range(h * w)])
            ids = np.asarray([recorded[u][0] for u in range(h * w)])
            flat = step.logits.reshape(h * w, -1)
            if logits.shape != flat.shape or not np.array_equal(logits, flat):
                problems.append(f"sample {i} step {k}: logits differ from replay")
            outside = [
                u for u in range(h * w)
                if not 0 <= ids[u] < flat.shape[1]
                or truncated_site_law(flat[u], cfg.sampler)[ids[u]] == 0.0
            ]
            if outside:
                problems.append(f"sample {i} step {k} sites {outside}: ids outside support")
                break
            maps.append(TokenMap(k, ids.reshape(h, w)))
    return problems


WORKLOADS = {w.name: w for w in (Verify(), ExactKL(), Ablate(), Sample())}
