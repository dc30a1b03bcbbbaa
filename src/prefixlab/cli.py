"""Single executable exposing the laboratory.

Subcommands: verify (oracle identity suites), sample (guided rollouts),
sweep (lambda x n_p x variant grids) and ablate (all corruption variants at
a fixed fraction). Exit codes: 0 ok, 1 identity failure or no identity
checked, 2 config error, 3 IO failure, 4 every sweep cell failed.

Each flag overrides the config key its help names, and the output directory
can also be set with the PREFIXLAB_OUTPUT_DIR environment variable (flag over
environment over file). Flags are written into the config's JSON object
before it is parsed, so they pass the same checks as the file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    config_to_json,
    corpus_from_csv,
    parse_config,
    read_config,
)
from .corruption import CorruptionVariant
from .errors import PrefixLabError
from .harness import ExperimentSpec, SweepGrid, run_sweep, write_sweep_csv, write_sweep_svg
from .model import build_tabular, fit_count_model, SignatureSpec
from .oracle import verify_identities, write_report_csv
from .sampler import rollouts, trace_to_csv
from .tokenizer import encode_multiscale, synthetic_images, write_image_csv, write_ppm

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SWEEP = 4

# Samples rolled out together by the sample command before they are written.
SAMPLE_BLOCK = 64


def _scale_mask(text: str):
    if text == "all":
        return None
    try:
        return [int(k) if k.strip().isdigit() else k for k in text.split(",")]
    except ValueError:  # a digit int() does not read, such as '²'
        raise argparse.ArgumentTypeError(
            f"expected comma-separated scale numbers or 'all', got {text!r}") from None


def _top_k(text: str):
    try:
        return int(text) or None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, 0 for no truncation, got {text!r}") from None


# Flag -> (the config key it overrides, its text as a JSON value, help).
# A scale that is not a number stays text, for parse_config to reject by
# key name.
FLAGS = {
    "--output-dir": ("output_dir", str, "output directory"),
    "--condition": ("condition", int, "class condition"),
    "--gamma": ("guidance.gamma", float, "CFG strength"),
    "--lambda": ("guidance.lambda", float, "prefix-guidance strength"),
    "--n-p": ("guidance.n_p", float, "corruption fraction"),
    "--variant": ("guidance.variant", str, "corruption variant: "
                  + ", ".join(v.value for v in CorruptionVariant)),
    "--reference": ("guidance.reference", str, "weak-prefix reference: corrupted, exact-marginal"),
    "--scale-mask": ("guidance.scale_mask", _scale_mask, "comma-separated scales, 'all' for null"),
    "--temperature": ("sampler.temperature", float, "sampling temperature"),
    "--top-k": ("sampler.top_k", _top_k, "top-k truncation, 0 for null (no truncation)"),
    "--top-p": ("sampler.top_p", float, "top-p truncation"),
    "--seed": ("sampler.seed", int, "sampler seed"),
}


def _resolve_config(args) -> RunConfig:
    """The config file (or ``RunConfig()``'s JSON form) with PREFIXLAB_OUTPUT_DIR
    and then every given flag written over its keys, parsed once."""
    if args.config is not None:
        data = read_config(args.config)
    else:
        data = config_to_json(RunConfig())
    if os.environ.get("PREFIXLAB_OUTPUT_DIR"):
        data["output_dir"] = os.environ["PREFIXLAB_OUTPUT_DIR"]
    given = vars(args)
    for key, _, _ in FLAGS.values():
        if key in given:
            section, _, name = key.rpartition(".")
            target = data.setdefault(section, {}) if section else data
            if isinstance(target, dict):  # else parse_config names the bad section
                target[name] = given[key]
    return parse_config(data)


def _build_model(cfg: RunConfig, book):
    spec = cfg.model
    if spec.kind == "tabular":
        return build_tabular(cfg.schedule, cfg.vocab, cfg.num_conditions, spec.seed)
    if spec.corpus_path is not None:
        corpus = corpus_from_csv(
            spec.corpus_path, cfg.schedule, cfg.vocab, cfg.num_conditions
        )
    else:
        corpus = _synthetic_corpus(cfg, book, spec.corpus_count, spec.corpus_seed)
    return fit_count_model(
        corpus, cfg.schedule, book, cfg.vocab, cfg.num_conditions,
        alpha=spec.alpha,
        spec=SignatureSpec(spec.signature_bins, spec.signature_seed),
        embed_seed=cfg.embed_seed, embed_dim=cfg.embed_dim,
        include_null=spec.include_null,
    )


def _synthetic_corpus(cfg: RunConfig, book, count: int, seed: int):
    images = np.stack(synthetic_images(cfg.schedule, cfg.latent_dim, seed, count))
    return [
        (i % cfg.num_conditions, maps)
        for i, maps in enumerate(encode_multiscale(images, cfg.schedule, book))
    ]


def cmd_verify(cfg: RunConfig) -> int:
    os.makedirs(cfg.output_dir, exist_ok=True)
    spec = cfg.verify
    combos = [(v, c) for v in spec.vocab_grid for c in spec.condition_grid]
    start = time.perf_counter()
    max_kls = []
    checked = failed_rows = failed_models = 0
    failures = []
    # The models of one cycle of the condition grid share a vocabulary, so
    # each cycle is checked in one call; only its models are built at a time.
    width = len(spec.condition_grid)
    for first in range(0, spec.models, width):
        run = [(i,) + combos[i % len(combos)]
               for i in range(first, min(first + width, spec.models))]
        reports = verify_identities(
            [build_tabular(cfg.schedule, vocab, conds, seed=cfg.model.seed + i)
             for i, vocab, conds in run], spec).split()
        for (i, vocab, conds), report in zip(run, reports):
            max_kls.append(report.max_kl)
            checked += report.kl.size
            failed = report.failures()
            if failed:
                failed_rows += len(failed)
                failed_models += 1
                failures += [(i, vocab, conds, row) for row in failed[:5]]
            if i == 0:
                write_report_csv(
                    report, os.path.join(cfg.output_dir, "identity_report.csv")
                )
    elapsed = time.perf_counter() - start
    worst = float(np.max(max_kls, initial=0.0))  # NaN if any model's is
    print(
        f"verify: {spec.models} models, max KL {worst:.3e}, "
        f"tolerance {spec.tolerance:.1e}, {elapsed:.2f}s"
    )
    if checked == 0:
        print("verify: FAIL nothing was checked (0 identity rows)")
        return EXIT_IDENTITY
    if failures:
        print(f"verify: FAIL {failed_rows} identity rows in {failed_models} "
              f"of {spec.models} models")
        for i, vocab, conds, row in failures[:10]:
            print(
                f"  FAIL model {i} (V={vocab}, C={conds}): {row.kind} "
                f"c={row.condition} k={row.scale} prefix={row.prefix} "
                f"gamma={row.gamma} lambda={row.lam} KL={row.kl:.3e}"
            )
        return EXIT_IDENTITY
    print("verify: all identities hold")
    return EXIT_OK


def cmd_sample(cfg: RunConfig, count: int) -> int:
    if count < 1:
        raise ConfigError(f"bad value for --count: {count} is not at least 1")
    os.makedirs(cfg.output_dir, exist_ok=True)
    book = cfg.codebook()
    model = _build_model(cfg, book)
    # Samples are rolled out in blocks and each block is written before the
    # next starts, so memory stays bounded whatever the count. Seeds are per
    # sample, so the block size does not change any output.
    for start in range(0, count, SAMPLE_BLOCK):
        sconfig = replace(cfg.sampler, seed=cfg.sampler.seed + start)
        block = min(SAMPLE_BLOCK, count - start)
        results = rollouts(model, cfg.condition, cfg.guidance, sconfig, book, block)
        # The block's samples share steps; each shared step is formatted once.
        formatted: dict = {}
        for i, result in enumerate(results, start=start):
            stem = os.path.join(cfg.output_dir, f"sample_{i:04d}")
            trace_to_csv(result, stem + "_trace.csv", formatted)
            if cfg.latent_dim <= 3:
                write_ppm(result.latent, stem + ".ppm")
            else:
                write_image_csv(result.latent, stem + ".csv")
            tokens = [m.key() for m in result.maps]
            print(f"sample {i}: seed={result.seed} tokens={tokens}")
    return EXIT_OK


def _run_grid(cfg: RunConfig, grid: SweepGrid, guidance, stem: str) -> int:
    """Build the model and reference images, run ``grid``, and write its CSV and SVG."""
    book = cfg.codebook()
    model = _build_model(cfg, book)
    reference_images = ()
    if grid.metric == "toy_frechet":
        reference_images = tuple(
            synthetic_images(
                cfg.schedule, cfg.latent_dim, cfg.model.corpus_seed, grid.n_samples
            )
        )
    spec = ExperimentSpec(
        model=model, book=book, condition=cfg.condition, guidance=guidance,
        sampler=cfg.sampler, reference_images=reference_images,
    )
    rows = run_sweep(grid, spec)
    os.makedirs(cfg.output_dir, exist_ok=True)
    csv_path = os.path.join(cfg.output_dir, f"{stem}_{grid.grid_hash()}.csv")
    write_sweep_csv(rows, csv_path)
    svg_path = write_sweep_svg(rows, grid, cfg.output_dir)
    ok = [r for r in rows if r.error == ""]
    print(f"{stem}: {len(ok)}/{len(rows)} cells ok -> {csv_path}")
    print(f"{stem}: plot {svg_path}")
    return EXIT_OK if ok else EXIT_SWEEP


def cmd_sweep(cfg: RunConfig) -> int:
    return _run_grid(cfg, cfg.sweep, cfg.guidance, "sweep")


def cmd_ablate(cfg: RunConfig) -> int:
    if cfg.model.kind != "count":
        raise ConfigError("ablate needs a count model (corrupted-prefix reference)")
    ab = cfg.ablate
    grid = SweepGrid(
        lambdas=ab.lambdas,
        fractions=(ab.fraction,),
        variants=tuple(CorruptionVariant),
        scale_masks=(cfg.guidance.scale_mask,),
        replicates=ab.replicates,
        seed=ab.seed,
        metric="toy_frechet",
        n_samples=ab.n_samples,
    )
    return _run_grid(cfg, grid, replace(cfg.guidance, reference="corrupted"), "ablate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefixlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = config_to_json(RunConfig())
    # The flags every subcommand shares, declared once.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run config (default: the built-in RunConfig())")
    for flag, (key, kind, text) in FLAGS.items():
        section, _, name = key.rpartition(".")
        default = (defaults[section] if section else defaults)[name]
        common.add_argument(
            flag, dest=key, metavar=name.upper(), type=kind, default=argparse.SUPPRESS,
            help=f"{text} (config key {key}, default {json.dumps(default)})",
        )

    sub.add_parser("verify", parents=[common], help="run the oracle identity suites")
    p_sample = sub.add_parser("sample", parents=[common],
                              help="guided rollouts with traces and images")
    p_sample.add_argument("--count", type=int, default=4, help="number of samples (default %(default)s)")
    sub.add_parser("sweep", parents=[common], help="lambda x n_p x variant sweep to CSV/SVG")
    sub.add_parser("ablate", parents=[common], help="all corruption variants at fixed n_p")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "sample":
            return cmd_sample(cfg, args.count)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        return cmd_ablate(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PrefixLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
