"""Single executable exposing the laboratory.

Subcommands: verify (oracle identity suites), sample (guided rollouts),
sweep (lambda x n_p x variant grids) and ablate (all corruption variants at
a fixed fraction). Exit codes: 0 ok, 1 identity failure or no identity
checked, 2 config error, 3 IO failure, 4 every sweep cell failed.

Flags mirror config keys and override file values; the output directory can
also be overridden with the PREFIXLAB_OUTPUT_DIR environment variable.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import os
import sys
import time
from dataclasses import replace

from .config import (
    ConfigError,
    RunConfig,
    corpus_from_csv,
    load_config,
    parse_config,
)
from .corruption import CorruptionVariant
from .errors import PrefixLabError
from .harness import ExperimentSpec, SweepGrid, run_sweep, write_sweep_csv, write_sweep_svg
from .model import build_tabular, fit_count_model, SignatureSpec
from .oracle import verify_identities, write_report_csv
from .sampler import rollout, trace_to_csv
from .tokenizer import encode_multiscale, synthetic_images, write_image_csv, write_ppm

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SWEEP = 4


def default_config_text() -> str:
    return (
        importlib.resources.files("prefixlab.data")
        .joinpath("default_config.json")
        .read_text()
    )


def _resolve_config(args) -> RunConfig:
    if args.config is not None:
        cfg = load_config(args.config)
    else:
        cfg = parse_config(json.loads(default_config_text()))
    overrides = {}
    guidance = cfg.guidance
    if args.gamma is not None:
        guidance = replace(guidance, gamma=args.gamma)
    if getattr(args, "lam", None) is not None:
        guidance = replace(guidance, lam=args.lam)
    if args.n_p is not None:
        guidance = replace(guidance, fraction=args.n_p)
    if args.variant is not None:
        guidance = replace(guidance, variant=CorruptionVariant(args.variant))
    if args.reference is not None:
        guidance = replace(guidance, reference=args.reference)
    if args.scale_mask is not None:
        mask = None if args.scale_mask == "all" else frozenset(
            int(k) for k in args.scale_mask.split(",")
        )
        guidance = replace(guidance, scale_mask=mask)
    sampler = cfg.sampler
    if args.temperature is not None:
        sampler = replace(sampler, temperature=args.temperature)
    if args.top_k is not None:
        sampler = replace(sampler, top_k=args.top_k if args.top_k > 0 else None)
    if args.top_p is not None:
        sampler = replace(sampler, top_p=args.top_p)
    if args.seed is not None:
        sampler = replace(sampler, seed=args.seed)
    if args.condition is not None:
        overrides["condition"] = args.condition
    out_dir = (
        args.output_dir
        or os.environ.get("PREFIXLAB_OUTPUT_DIR")
        or cfg.output_dir
    )
    return replace(
        cfg, guidance=guidance, sampler=sampler, output_dir=out_dir, **overrides
    )


def _build_model(cfg: RunConfig, book):
    spec = cfg.model
    if spec.kind == "tabular":
        return build_tabular(cfg.schedule, cfg.vocab, cfg.num_conditions, spec.seed)
    if spec.corpus_path is not None:
        corpus = corpus_from_csv(spec.corpus_path, cfg.schedule)
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
    images = synthetic_images(cfg.schedule, cfg.latent_dim, seed, count)
    return [
        (i % cfg.num_conditions, encode_multiscale(img, cfg.schedule, book))
        for i, img in enumerate(images)
    ]


def cmd_verify(cfg: RunConfig) -> int:
    os.makedirs(cfg.output_dir, exist_ok=True)
    spec = cfg.verify
    combos = [(v, c) for v in spec.vocab_grid for c in spec.condition_grid]
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    failures = []
    for i in range(spec.models):
        vocab, conds = combos[i % len(combos)]
        model = build_tabular(cfg.schedule, vocab, conds, seed=i)
        report = verify_identities(
            model, spec.tolerance, spec.gammas, spec.lambdas
        )
        worst = max(worst, report.max_kl)
        checked += len(report.rows)
        if not report.passed:
            for row in report.failures()[:5]:
                failures.append((i, vocab, conds, row))
        if i == 0:
            write_report_csv(
                report, os.path.join(cfg.output_dir, "identity_report.csv")
            )
    elapsed = time.perf_counter() - start
    print(
        f"verify: {spec.models} models, max KL {worst:.3e}, "
        f"tolerance {spec.tolerance:.1e}, {elapsed:.2f}s"
    )
    if checked == 0:
        print("verify: FAIL nothing was checked (0 identity rows)")
        return EXIT_IDENTITY
    if failures:
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
    os.makedirs(cfg.output_dir, exist_ok=True)
    book = cfg.codebook()
    model = _build_model(cfg, book)
    for i in range(count):
        sconfig = replace(cfg.sampler, seed=cfg.sampler.seed + i)
        result = rollout(
            model, cfg.condition, cfg.guidance, sconfig, book, cfg.schedule
        )
        stem = os.path.join(cfg.output_dir, f"sample_{i:04d}")
        trace_to_csv(result, stem + "_trace.csv")
        if cfg.latent_dim <= 3:
            write_ppm(result.image, stem + ".ppm")
        else:
            write_image_csv(result.image, stem + ".csv")
        tokens = [m.key() for m in result.maps]
        print(f"sample {i}: seed={sconfig.seed} tokens={tokens}")
    return EXIT_OK


def _experiment(cfg: RunConfig, metric: str, n_samples: int, book, model):
    reference_images = ()
    if metric == "toy_frechet":
        reference_images = tuple(
            synthetic_images(
                cfg.schedule, cfg.latent_dim, cfg.model.corpus_seed, max(n_samples, 2)
            )
        )
    return ExperimentSpec(
        model=model, book=book, schedule=cfg.schedule, condition=cfg.condition,
        gamma=cfg.guidance.gamma, metric=metric, sampler=cfg.sampler,
        reference=cfg.guidance.reference, n_samples=n_samples,
        reference_images=reference_images,
    )


def _emit_sweep(cfg: RunConfig, grid: SweepGrid, spec: ExperimentSpec, stem: str) -> int:
    rows = run_sweep(grid, spec)
    os.makedirs(cfg.output_dir, exist_ok=True)
    csv_path = os.path.join(cfg.output_dir, f"{stem}_{grid.grid_hash()}.csv")
    write_sweep_csv(rows, csv_path)
    svg_paths = write_sweep_svg(rows, grid, cfg.output_dir)
    ok = [r for r in rows if r.error == ""]
    print(f"{stem}: {len(ok)}/{len(rows)} cells ok -> {csv_path}")
    for path in svg_paths:
        print(f"{stem}: plot {path}")
    if not ok:
        return EXIT_SWEEP
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    book = cfg.codebook()
    model = _build_model(cfg, book)
    grid = cfg.sweep.grid()
    spec = _experiment(cfg, cfg.sweep.metric, cfg.sweep.n_samples, book, model)
    return _emit_sweep(cfg, grid, spec, "sweep")


def cmd_ablate(cfg: RunConfig) -> int:
    if cfg.model.kind != "count":
        raise ConfigError("ablate needs a count model (corrupted-prefix reference)")
    book = cfg.codebook()
    model = _build_model(cfg, book)
    ab = cfg.ablate
    grid = SweepGrid(
        lambdas=ab.lambdas,
        fractions=(ab.fraction,),
        variants=tuple(CorruptionVariant),
        scale_masks=(cfg.guidance.scale_mask,),
        replicates=ab.replicates,
        seed=ab.seed,
    )
    spec = _experiment(cfg, "toy_frechet", ab.n_samples, book, model)
    spec = replace(spec, reference="corrupted")
    return _emit_sweep(cfg, grid, spec, "ablate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefixlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = RunConfig()

    def common(p):
        p.add_argument("--config", help="JSON run config (default: shipped config)")
        p.add_argument("--output-dir", help=f"output directory (default {defaults.output_dir})")
        p.add_argument("--condition", type=int, help=f"class condition (default {defaults.condition})")
        p.add_argument("--gamma", type=float, help="CFG strength (default 0.0)")
        p.add_argument("--lambda", dest="lam", type=float, help="prefix-guidance strength (default 0.0)")
        p.add_argument("--n-p", type=float, help="corruption fraction (default 0.0)")
        p.add_argument(
            "--variant", choices=[v.value for v in CorruptionVariant],
            help="corruption variant (default same_scale_full_embedding)",
        )
        p.add_argument(
            "--reference", choices=["corrupted", "exact-marginal"],
            help="weak-prefix reference (default exact-marginal)",
        )
        p.add_argument("--scale-mask", help="comma-separated scales or 'all' (default all)")
        p.add_argument("--temperature", type=float, help="sampling temperature (default 1.0)")
        p.add_argument("--top-k", type=int, help="top-k truncation, 0 disables (default none)")
        p.add_argument("--top-p", type=float, help="top-p truncation (default 1.0)")
        p.add_argument("--seed", type=int, help="sampler seed (default 0)")

    common(sub.add_parser("verify", help="run the oracle identity suites"))
    p_sample = sub.add_parser("sample", help="guided rollouts with traces and images")
    common(p_sample)
    p_sample.add_argument("--count", type=int, default=4, help="number of samples (default 4)")
    common(sub.add_parser("sweep", help="lambda x n_p x variant sweep to CSV/SVG"))
    common(sub.add_parser("ablate", help="all corruption variants at fixed n_p"))
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
        if args.command == "ablate":
            return cmd_ablate(cfg)
        raise ConfigError(f"unknown command {args.command}")
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
