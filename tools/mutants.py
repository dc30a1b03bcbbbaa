"""Apply hand-written one-line mutants to copies of the checkout and run the
tier-1 suite on each, to show which faults the suite kills.

Usage, from the repository root:

    python tools/mutants.py [NAME ...]

With no NAME every mutant of ``MUTANTS`` runs, one at a time. For each, the
script copies the checkout (without ``.git`` and caches) to a fresh temporary
directory, replaces the mutant's ``old`` text with ``new`` in its file (the
``old`` text must occur there exactly once, or the script stops), and runs

    python -m pytest -q -x -rfE -p no:cacheprovider --hypothesis-seed=0

in the copy, with ``PYTHONPATH=src`` and no bytecode written, leaving out
``tests/test_mutants.py``: it checks that each ``old`` text occurs once in
the unmutated checkout, so in a mutated copy it fails for every mutant. It
prints one line per mutant: ``killed`` with the first failing test, or
``survived``.
An equivalent mutant changes no behaviour any input can show; it is expected
to survive and its line gives the reason. The exit code is 1 when a mutant
that is not marked equivalent survives, else 0. A run takes 15-40 s per
mutant on a 2-vCPU host, so this is a tool, not a test.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
          "-p", "no:cacheprovider", "--hypothesis-seed=0",
          "--ignore=tests/test_mutants.py"]
# A mutant that hangs the suite counts as killed after this long.
TIMEOUT_S = 900
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                 ".pytest_cache", ".bench_work", "out")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    # Why no input can tell the mutant from the original; None if one can.
    equivalent: str | None = None


MUTANTS = (
    Mutant("extrapolate_drops_base_weight", "src/prefixlab/guidance.py",
           "return (1 + strength) * base - strength * reference",
           "return strength * base - strength * reference"),
    Mutant("extrapolate_uses_base_as_reference", "src/prefixlab/guidance.py",
           "return (1 + strength) * base - strength * reference",
           "return (1 + strength) * base - strength * base"),
    Mutant("composition_skips_cfg_on_corrupted_branch", "src/prefixlab/guidance.py",
           "extrapolate(g_gen, g_corr, lam)",
           "extrapolate(g_gen, branches.cond_corr, lam)"),
    Mutant("branch_pair_null_at_condition", "src/prefixlab/guidance.py",
           "evaluate(NULL_CONDITION) if needs_cfg else None",
           "evaluate(condition) if needs_cfg else None"),
    Mutant("exact_marginal_pair_at_condition", "src/prefixlab/guidance.py",
           "np.log(prefix_marginal_sites(model, c, k))",
           "np.log(prefix_marginal_sites(model, condition, k))"),
    Mutant("oracle_imports_guidance_at_load", "src/prefixlab/oracle.py",
           "from .errors import InvalidInputError",
           "from . import guidance\nfrom .errors import InvalidInputError"),
    # At the end of the module, where it loads without a cycle error.
    Mutant("config_imports_oracle_at_load", "src/prefixlab/config.py",
           "            corpus.append((condition, maps))\n    return corpus\n",
           "            corpus.append((condition, maps))\n    return corpus\n\n\n"
           "from .oracle import VerifySpec\n"),
    Mutant("verifier_null_marginal_from_condition_0", "src/prefixlab/oracle.py",
           "per_model(marginals)", "per_model(lambda m, c: marginals(m, 0))"),
    Mutant("stacked_pass_reads_first_model_null_rows", "src/prefixlab/oracle.py",
           "per_model(rows)", "per_model(lambda m, c: rows(models[0], c))"),
    Mutant("grouped_pass_reads_first_scale_marginals", "src/prefixlab/oracle.py",
           "prefix_marginal_sites(model, condition, k),",
           "prefix_marginal_sites(model, condition, scales[0][0]),"),
    Mutant("verifier_gamma_column_from_lambdas", "src/prefixlab/oracle.py",
           "guidance.compose_cfg_vpg(branches, gamma, lam)",
           "guidance.compose_cfg_vpg(branches, lam, lam)"),
    Mutant("verifier_one_array_power_per_block", "src/prefixlab/oracle.py",
           "np.stack([_normalized_power_ratio(cond, ref, s) for s in block])",
           "_normalized_power_ratio(cond, ref, column(block))"),
    Mutant("marginal_ignores_prefix_weights", "src/prefixlab/oracle.py",
           "(probs[..., None, None] * laws(signed)).sum(axis=-3)",
           "laws(signed).sum(axis=-3)"),
    Mutant("chain_law_keeps_zero_mass", "src/prefixlab/oracle.py",
           "(joint > 0.0)", "(joint >= 0.0)"),
    Mutant("walk_takes_row_0_for_every_live_row", "src/prefixlab/oracle.py",
           "signed.take(rows)", "signed.take(np.zeros_like(rows))"),
    Mutant("joint_law_reversed_site_order", "src/prefixlab/oracle.py",
           "for site in np.moveaxis(laws, 1, 0):",
           "for site in np.moveaxis(laws, 1, 0)[::-1]:"),
    Mutant("identity_tolerance_ten_times", "src/prefixlab/oracle.py",
           "~(self.kl <= self.tolerance)", "~(self.kl <= 10 * self.tolerance)"),
    Mutant("failures_drop_nan_rows", "src/prefixlab/oracle.py",
           "~(self.kl <= self.tolerance)", "self.kl > self.tolerance"),
    Mutant("truncation_unstable_sort", "src/prefixlab/sampler.py",
           'kind="stable"', 'kind="quicksort"'),
    Mutant("top_p_drops_crossing_token", "src/prefixlab/sampler.py",
           "(cum < threshold).sum(axis=-1) + 1", "(cum < threshold).sum(axis=-1)"),
    Mutant("cdf_inversion_strict", "src/prefixlab/sampler.py",
           "cdf[rows] <= uniforms[..., None]", "cdf[rows] < uniforms[..., None]",
           equivalent="differs only when a uniform equals a normalized "
                      "cumulative sum exactly, which a double draw does not hit"),
    Mutant("group_key_drops_newest_map", "src/prefixlab/sampler.py",
           "(lane, signed.signature[i])", "(lane, signed.signature[i][:-1])"),
    Mutant("rollouts_plan_from_first_sample", "src/prefixlab/sampler.py",
           "plan_seeds[i]", "plan_seeds[0]"),
    Mutant("lanes_seeded_from_first_lane", "src/prefixlab/sampler.py",
           "seeds = [s.seed + i for _, s in lanes", "seeds = [sconfig.seed + i for _, s in lanes"),
    Mutant("rollouts_stack_rows_misaligned", "src/prefixlab/sampler.py",
           "signed.take(firsts)", "signed.take(range(len(firsts)))"),
    # The name stays referenced, so only the behaviour changes.
    Mutant("rollouts_codebook_fit_unchecked", "src/prefixlab/sampler.py",
           "    check_codebook(model, book)\n", "    False and check_codebook(model, book)\n"),
    Mutant("count_model_foreign_codebook_accepted", "src/prefixlab/model.py",
           "isinstance(model, CountModel) and book is not model.book",
           "isinstance(model, CountModel) and False"),
    Mutant("signed_stack_step_off_by_one", "src/prefixlab/model.py",
           "return len(self.signature[0]) + 1", "return len(self.signature[0])"),
    Mutant("stack_read_by_another_model", "src/prefixlab/guidance.py",
           "if signed.model is not model:", "if False:"),
    Mutant("stacked_rows_read_first_row_lambda", "src/prefixlab/guidance.py",
           "c.lam if flag else 0.0", "configs[0].lam if flag else 0.0"),
    Mutant("missing_plan_not_rejected", "src/prefixlab/guidance.py",
           "p is None and draws[id(c)]", "False"),
    Mutant("empty_plan_shortcut_for_uniform_prefix", "src/prefixlab/config.py",
           "self.variant is CorruptionVariant.UNIFORM_PREFIX", "False"),
    Mutant("no_site_step_draws_plan", "src/prefixlab/config.py",
           "or selection_size(schedule, k, self.fraction) > 0", "or True"),
    Mutant("apply_corruption_skips_step_check", "src/prefixlab/corruption.py",
           "if p.step != step:", "if False:"),
    Mutant("stacked_corruption_reads_row_0_plan", "src/prefixlab/corruption.py",
           "(i, u, du, n) for i, p in enumerate(plans)",
           "(i, u, du, n) for i, p in enumerate([plans[0]] * len(plans))"),
    Mutant("token_reading_keeps_target_id", "src/prefixlab/corruption.py",
           "parts[j - 1][u] = key[j - 1][du] if token", "parts[j - 1][u] = key[j - 1][u] if token"),
    Mutant("selection_size_rounds_down", "src/prefixlab/corruption.py",
           "(2 * p * sites + q) // (2 * q)", "(2 * p * sites) // (2 * q)"),
    Mutant("full_embedding_keeps_target", "src/prefixlab/corruption.py",
           "grids[j - 1][tgt] = embedding.grids[j - 1][don]",
           "grids[j - 1][tgt] = embedding.grids[j - 1][tgt]"),
    Mutant("token_variant_keeps_target_token", "src/prefixlab/corruption.py",
           "content, at = embedding.pooled[j - 1][don], tgt",
           "content, at = embedding.pooled[j - 1][tgt], tgt"),
    Mutant("position_variant_keeps_target_position", "src/prefixlab/corruption.py",
           "content, at = embedding.pooled[j - 1][tgt], don",
           "content, at = embedding.pooled[j - 1][tgt], tgt"),
    Mutant("extend_carries_row_0_signature", "src/prefixlab/model.py",
           "[s + (tuple(b),) for s, b in zip(signed.signature, bins)]",
           "[signed.signature[0] + (tuple(b),) for b in bins]"),
    Mutant("tabular_extend_carries_row_0_key", "src/prefixlab/model.py",
           "[s + (tuple(p),) for s, p in zip(signed.signature, parts)]",
           "[signed.signature[0] + (tuple(p),) for p in parts]"),
    Mutant("map_rule_skips_grid_shape", "src/prefixlab/model.py",
           "if (part.k, part.ids.shape) != (j, schedule.grid(j)):", "if part.k != j:"),
    Mutant("count_model_null_rows_unchecked", "src/prefixlab/model.py",
           "if not self.include_null:", "if False:"),
    Mutant("condition_check_accepts_any", "src/prefixlab/model.py",
           "if condition is not NULL_CONDITION and not integral(condition):", "if False:"),
    Mutant("null_row_is_condition_0", "src/prefixlab/model.py",
           "np.mean([self.rows(c, k, keys) for c in range(self.num_conditions)], axis=0)",
           "self.rows(0, k, keys)"),
    Mutant("count_smoothing_unnormalized", "src/prefixlab/model.py",
           "(totals + self.alpha * self.vocab)", "(totals + self.alpha)"),
    Mutant("null_counts_keep_first_condition", "src/prefixlab/model.py",
           "null += table", "null[...] = table"),
    Mutant("guidance_fraction_bound_finite_only", "src/prefixlab/config.py",
           'fraction: float = bounded(0.0, UNIT_INTERVAL, "n_p")',
           'fraction: float = bounded(0.0, UNIT_INTERVAL._replace(holds=lambda v: v == v), "n_p")'),
    Mutant("bound_check_skips_tuple_members", "src/prefixlab/errors.py",
           "return [m for v in value for m in _members(v)]", "return []"),
    Mutant("exact_kl_abs_of_total", "src/prefixlab/harness.py",
           "max(total, 0.0)", "abs(total)",
           equivalent="differs only when rounding makes a KL of equal laws "
                      "negative, and both then give a value within rounding of 0"),
)


def first_failure(output: str) -> str:
    """The first FAILED or ERROR line of pytest's short summary."""
    match = re.search(r"^(?:FAILED|ERROR) (\S+)", output, flags=re.M)
    return match.group(1) if match else "(no test named; see the pytest output)"


def run_mutant(mutant: Mutant, work: Path) -> tuple[bool, str]:
    """(killed, first failing test) of one mutant, in a fresh copy under ``work``."""
    copy = work / mutant.name
    shutil.copytree(ROOT, copy, ignore=IGNORED)
    path = copy / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(
            f"mutant {mutant.name}: {mutant.old!r} occurs {count} times in {mutant.file}"
        )
    path.write_text(text.replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True, f"(timed out after {TIMEOUT_S} s)"
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    if proc.returncode == 0:
        return False, ""
    return True, first_failure(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)
    missed = 0
    with tempfile.TemporaryDirectory(prefix="mutants_") as tmp:
        for mutant in chosen:
            killed, test = run_mutant(mutant, Path(tmp))
            if killed:
                print(f"killed    {mutant.name}  {test}", flush=True)
            elif mutant.equivalent:
                print(f"survived  {mutant.name}  (equivalent: {mutant.equivalent})",
                      flush=True)
            else:
                missed += 1
                print(f"survived  {mutant.name}", flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
