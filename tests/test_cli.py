"""Command-line entry point: subcommands, overrides and exit codes."""

import csv
import json
import os

import pytest

from prefixlab.cli import (
    EXIT_CONFIG,
    EXIT_IDENTITY,
    EXIT_IO,
    EXIT_OK,
    EXIT_SWEEP,
    default_config_text,
    main,
)


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

    def test_nothing_checked_fails(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"verify": {"models": 0}}))
        code = main(["verify", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_IDENTITY
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("verify: 0 models, max KL")
        assert lines[1:] == ["verify: FAIL nothing was checked (0 identity rows)"]

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        out_dir = tmp_path / "envout"
        monkeypatch.setenv("PREFIXLAB_OUTPUT_DIR", str(out_dir))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"verify": {"models": 2}}))
        assert main(["verify", "--config", str(cfg)]) == EXIT_OK
        assert (out_dir / "identity_report.csv").exists()


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

    def test_out_of_range_condition_flag_exits_two(self, tmp_path, capsys):
        code = main(
            ["sample", "--count", "1", "--output-dir", str(tmp_path / "o"),
             "--condition", "1"]
        )
        assert code == EXIT_CONFIG
        assert "'condition'" in capsys.readouterr().err


def test_default_config_text_is_valid_json():
    data = json.loads(default_config_text())
    assert data["version"] == 1
    assert data["model"]["kind"] == "tabular"
