"""Command-line entry point: subcommands, overrides and exit codes."""

import csv
import json
import os
from importlib.resources import files

import numpy as np
import pytest

from prefixlab import cli
from prefixlab.cli import (
    EXIT_CONFIG,
    EXIT_IDENTITY,
    EXIT_IO,
    EXIT_OK,
    EXIT_SWEEP,
    FLAGS,
    _build_model,
    _resolve_config,
    _synthetic_corpus,
    build_parser,
    main,
)
from prefixlab.config import corpus_to_csv, parse_config
from prefixlab.model import TabularModel


def count_model_config(tmp_path, **extra):
    data = {
        "schedule": [[1, 1], [1, 1]],
        "vocab": 2,
        "num_conditions": 2,
        "model": {"kind": "count", "corpus_count": 8, "corpus_seed": 5},
        "ablate": {"lambdas": [0.0, 1.0], "n_p": 0.5, "n_samples": 4},
        "sweep": {
            "lambdas": [0.0, 1.0],
            "metric": "toy_frechet",
            "n_samples": 4,
        },
        "guidance": {"reference": "corrupted", "n_p": 0.5},
    }
    data.update(extra)
    path = tmp_path / "count.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestVerify:
    def test_default_config_exits_zero(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = {"verify": {"models": 6}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["verify", "--config", str(path), "--output-dir", str(out_dir)])
        assert code == EXIT_OK
        assert (out_dir / "identity_report.csv").exists()
        printed = capsys.readouterr().out
        assert "max KL" in printed
        assert "all identities hold" in printed

    def test_model_seed_sets_the_checked_models(self, tmp_path):
        def report(name, seed):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"model": {"seed": seed}, "verify": {"models": 1}}))
            out_dir = tmp_path / name
            assert main(["verify", "--config", str(path), "--output-dir", str(out_dir)]) == EXIT_OK
            return (out_dir / "identity_report.csv").read_bytes()

        assert report("a", 1) == report("again", 1)
        assert report("a", 1) != report("b", 2)

    def test_nothing_checked_fails(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"verify": {"models": 0}}))
        code = main(["verify", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_IDENTITY
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("verify: 0 models, max KL")
        assert lines[1:] == ["verify: FAIL nothing was checked (0 identity rows)"]

    def test_infinite_tolerance_exits_two(self, tmp_path, capsys):
        # Python's json reads Infinity; an infinite tolerance would pass any KL.
        path = tmp_path / "cfg.json"
        path.write_text('{"verify": {"models": 1, "tolerance": Infinity}}')
        code = main(["verify", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "'tolerance'" in capsys.readouterr().err

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        out_dir = tmp_path / "envout"
        monkeypatch.setenv("PREFIXLAB_OUTPUT_DIR", str(out_dir))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"verify": {"models": 2}}))
        assert main(["verify", "--config", str(cfg)]) == EXIT_OK
        assert (out_dir / "identity_report.csv").exists()

    def test_output_dir_flag_overrides_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PREFIXLAB_OUTPUT_DIR", str(tmp_path / "envout"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"verify": {"models": 2}}))
        out_dir = tmp_path / "flagout"
        assert main(["verify", "--config", str(cfg), "--output-dir", str(out_dir)]) == EXIT_OK
        assert (out_dir / "identity_report.csv").exists()
        assert not (tmp_path / "envout").exists()


class TestSample:
    def test_writes_traces_and_images(self, tmp_path, capsys):
        out_dir = tmp_path / "samples"
        code = main(
            ["sample", "--count", "2", "--output-dir", str(out_dir), "--seed", "4"]
        )
        assert code == EXIT_OK
        names = sorted(os.listdir(out_dir))
        assert "sample_0000_trace.csv" in names
        assert "sample_0001.ppm" in names
        assert "tokens=" in capsys.readouterr().out

    def test_block_size_changes_no_output(self, tmp_path, capsys, monkeypatch):
        def run(block):
            monkeypatch.setattr(cli, "SAMPLE_BLOCK", block)
            out_dir = tmp_path / f"block_{block}"
            args = ["sample", "--count", "5", "--output-dir", str(out_dir), "--seed", "3"]
            assert main(args) == EXIT_OK
            files = {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}
            return files, capsys.readouterr().out

        whole = run(64)
        assert len(whole[0]) == 10
        assert run(2) == whole
        assert run(1) == whole

    def test_guidance_flag_overrides(self, tmp_path):
        out_dir = tmp_path / "guided"
        code = main(
            [
                "sample", "--count", "1", "--output-dir", str(out_dir),
                "--lambda", "1.0", "--reference", "exact-marginal",
                "--top-k", "1",
            ]
        )
        assert code == EXIT_OK
        with open(out_dir / "sample_0000_trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["step", "site", "sampled_id"]
        assert len(rows) == 3  # header + one site per scale


class TestSweep:
    def test_tabular_exact_kl_sweep(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "--output-dir", str(out_dir)])
        assert code == EXIT_OK
        names = os.listdir(out_dir)
        csvs = [n for n in names if n.startswith("sweep_") and n.endswith(".csv")]
        svgs = [n for n in names if n.endswith(".svg")]
        assert len(csvs) == 1 and len(svgs) == 1
        assert "cells ok" in capsys.readouterr().out

    def test_all_cells_failing_exits_four(self, tmp_path):
        # The corrupted reference on a tabular model fails every cell with
        # an active contrast, so an all-positive lambda grid exits 4.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "guidance": {"reference": "corrupted"},
                    "sweep": {"lambdas": [0.5, 1.0]},
                }
            )
        )
        out_dir = tmp_path / "bad"
        code = main(["sweep", "--config", str(cfg), "--output-dir", str(out_dir)])
        assert code == EXIT_SWEEP

    def test_count_model_frechet_sweep(self, tmp_path):
        cfg = count_model_config(tmp_path)
        out_dir = tmp_path / "csweep"
        code = main(["sweep", "--config", cfg, "--output-dir", str(out_dir)])
        assert code == EXIT_OK


class TestAblate:
    def test_runs_all_variants(self, tmp_path, capsys):
        cfg = count_model_config(tmp_path)
        out_dir = tmp_path / "ablate"
        code = main(["ablate", "--config", cfg, "--output-dir", str(out_dir)])
        assert code == EXIT_OK
        csvs = [n for n in os.listdir(out_dir) if n.startswith("ablate_")]
        assert len(csvs) == 1
        with open(out_dir / csvs[0], newline="") as fh:
            rows = list(csv.reader(fh))
        variants = {r[2] for r in rows[1:]}
        assert variants == {
            "random_codebook", "same_scale_token", "same_scale_position",
            "same_scale_full_embedding", "uniform_prefix",
        }
        assert "10/10 cells ok" in capsys.readouterr().out

    def test_rejects_tabular_model(self, tmp_path, capsys):
        code = main(["ablate", "--output-dir", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert "count model" in capsys.readouterr().err


def model_tables(model):
    return model.tables if isinstance(model, TabularModel) else model.counts


def assert_same_tables(a, b):
    ta, tb = model_tables(a), model_tables(b)
    assert ta.keys() == tb.keys()
    for key in ta:
        assert np.array_equal(ta[key], tb[key])


# A multi-site schedule with two conditions, so every table key part varies.
SHAPE = {"schedule": [[1, 1], [2, 2]], "vocab": 3, "num_conditions": 2}


class TestBuildModel:
    """Every command rebuilds its model from the resolved config, so the same
    config must give the same model."""

    @pytest.mark.parametrize(
        "model", [{"seed": 17}, {"kind": "count", "corpus_count": 8}], ids=["tabular", "count"]
    )
    def test_same_config_rebuilds_equal(self, model):
        cfg = parse_config({**SHAPE, "model": model})
        book = cfg.codebook()
        built = _build_model(cfg, book)
        assert model_tables(built)
        assert_same_tables(built, _build_model(cfg, book))

    def test_corpus_csv_count_rebuilds_equal_to_in_memory_fit(self, tmp_path):
        synthetic = parse_config({**SHAPE, "model": {"kind": "count", "corpus_count": 8}})
        book = synthetic.codebook()
        path = tmp_path / "corpus.csv"
        corpus_to_csv(_synthetic_corpus(synthetic, book, 8, synthetic.model.corpus_seed), path)
        cfg = parse_config({**SHAPE, "model": {"kind": "count", "corpus_path": str(path)}})
        model = _build_model(cfg, book)
        assert_same_tables(model, _build_model(cfg, book))
        assert_same_tables(model, _build_model(synthetic, book))


class TestExitCodes:
    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bogus_key": 1}))
        assert main(["verify", "--config", str(path)]) == EXIT_CONFIG
        assert "bogus_key" in capsys.readouterr().err

    def test_missing_config_exits_three(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["verify", "--config", missing]) == EXIT_IO
        assert "io error" in capsys.readouterr().err

    def test_invalid_flag_value_exits_two(self, tmp_path):
        code = main(
            ["sample", "--count", "1", "--output-dir", str(tmp_path / "o"),
             "--temperature", "-1.0"]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_temperature_flag_exits_two(self, tmp_path, capsys, value):
        code = main(
            ["sample", "--count", "1", "--output-dir", str(tmp_path / "o"),
             "--temperature", value]
        )
        assert code == EXIT_CONFIG
        assert "temperature" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_exits_two(self, tmp_path, capsys, count):
        out = tmp_path / "o"
        assert main(["sample", "--count", count, "--output-dir", str(out)]) == EXIT_CONFIG
        assert "--count" in capsys.readouterr().err
        assert not out.exists()

    def test_schedule_outside_final_grid_exits_two(self, tmp_path, capsys):
        path = tmp_path / "shrinking.json"
        path.write_text(json.dumps({"schedule": [[1, 2], [2, 1]]}))
        out = tmp_path / "o"
        code = main(["sample", "--count", "1", "--config", str(path), "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        assert "bad value for config key 'schedule'" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_condition_flag_exits_two(self, tmp_path, capsys):
        code = main(
            ["sample", "--count", "1", "--output-dir", str(tmp_path / "o"),
             "--condition", "1"]
        )
        assert code == EXIT_CONFIG
        assert "'condition'" in capsys.readouterr().err

    def test_corpus_id_beyond_int64_exits_two(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("0,1,99999999999999999999999\n")
        code = main(["sample", "--count", "1", "--output-dir", str(tmp_path / "o"),
                     "--config", count_model_config(
                         tmp_path, model={"kind": "count", "corpus_path": str(corpus)})])
        assert code == EXIT_CONFIG
        assert "error: corpus line 1" in capsys.readouterr().err


# Base file for the flag cases: every flag below sets a value that differs
# from it, so an ignored flag shows.
FLAG_BASE = {
    "num_conditions": 2,
    "guidance": {"scale_mask": [1]},
    "sampler": {"top_k": 3},
}
FLAG_CASES = [
    ("--output-dir", "elsewhere", "output_dir", "elsewhere"),
    ("--condition", "1", "condition", 1),
    ("--gamma", "0.5", "guidance.gamma", 0.5),
    ("--lambda", "1.5", "guidance.lambda", 1.5),
    ("--n-p", "0.25", "guidance.n_p", 0.25),
    ("--variant", "uniform_prefix", "guidance.variant", "uniform_prefix"),
    ("--reference", "corrupted", "guidance.reference", "corrupted"),
    ("--scale-mask", "1,2", "guidance.scale_mask", [1, 2]),
    ("--scale-mask", "all", "guidance.scale_mask", None),
    ("--temperature", "0.5", "sampler.temperature", 0.5),
    ("--top-k", "2", "sampler.top_k", 2),
    ("--top-k", "0", "sampler.top_k", None),
    ("--top-p", "0.9", "sampler.top_p", 0.9),
    ("--seed", "9", "sampler.seed", 9),
]


class TestFlags:
    @pytest.mark.parametrize("flag, text, key, value", FLAG_CASES)
    def test_flag_equals_file_setting_its_key(self, tmp_path, flag, text, key, value):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(FLAG_BASE))
        args = build_parser().parse_args(["sample", "--config", str(path), flag, text])
        data = json.loads(json.dumps(FLAG_BASE))
        section, _, name = key.rpartition(".")
        (data.setdefault(section, {}) if section else data)[name] = value
        assert _resolve_config(args) == parse_config(data)
        assert _resolve_config(args) != parse_config(FLAG_BASE)

    def test_cases_cover_every_flag(self):
        assert {flag for flag, *_ in FLAG_CASES} == set(FLAGS)
        assert all(FLAGS[flag][0] == key for flag, _, key, _ in FLAG_CASES)

    @pytest.mark.parametrize(
        "flag, text, key",
        [("--scale-mask", "a", "scale_mask"), ("--scale-mask", "0", "scale_mask"),
         ("--top-k", "-3", "top_k"), ("--n-p", "1.5", "n_p"),
         ("--variant", "bogus", "variant"), ("--gamma", "nan", "gamma"),
         ("--gamma", "inf", "gamma"), ("--lambda", "nan", "lambda"),
         ("--lambda", "inf", "lambda"), ("--n-p", "nan", "n_p"),
         ("--scale-mask", "7", "scale_mask"), ("--seed", "-1", "seed")],
    )
    def test_bad_flag_value_exits_two_naming_key(self, tmp_path, capsys, flag, text, key):
        code = main(["sample", "--count", "1", "--output-dir", str(tmp_path / "o"),
                     flag, text])
        assert code == EXIT_CONFIG
        assert f"'{key}'" in capsys.readouterr().err


def test_default_config_text_is_valid_json():
    data = json.loads(files("prefixlab.data").joinpath("default_config.json").read_text())
    assert data["version"] == 1
    assert data["model"]["kind"] == "tabular"
