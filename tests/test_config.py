"""Strict JSON run config, plus the corpus CSV."""

import inspect
import json
import math

import numpy as np
import pytest

from prefixlab.config import (
    ConfigError,
    RunConfig,
    config_to_json,
    corpus_from_csv,
    corpus_to_csv,
    load_config,
    parse_config,
)
from prefixlab.corruption import CorruptionVariant
from prefixlab.model import SignatureSpec, fit_count_model
from prefixlab.tokenizer import ScaleSchedule


class TestParseConfig:
    def test_empty_object_gives_defaults(self):
        cfg = parse_config({})
        assert cfg == RunConfig()

    def test_shipped_default_parses(self):
        from importlib.resources import files

        data = json.loads(files("prefixlab.data").joinpath("default_config.json").read_text())
        assert parse_config(data) == RunConfig()
        # Every schema key is written out, at its RunConfig() value.
        assert data == config_to_json(RunConfig())

    def test_library_defaults_are_the_schemas(self):
        # A section class's own default is the schema's, and the library
        # functions that fit a model take every config value from the caller.
        cfg = RunConfig()
        for name in ("model", "guidance", "sampler", "verify", "sweep", "ablate"):
            section = getattr(cfg, name)
            assert type(section)() == section, name
        for fn in (fit_count_model, SignatureSpec):
            params = inspect.signature(fn).parameters.values()
            assert [p.name for p in params if p.default is not p.empty] == [], fn

    def test_json_form_parses_back(self):
        cfg = parse_config(
            {
                "schedule": [[1, 1], [2, 2]],
                "num_conditions": 2,
                "condition": 1,
                "model": {"kind": "count", "corpus_path": "corpus.csv"},
                "guidance": {"lambda": 1.0, "n_p": 0.5, "scale_mask": [2, 1],
                             "variant": "uniform_prefix"},
                "sampler": {"top_k": 2},
                "sweep": {"variants": ["random_codebook", "same_scale_token"],
                          "scale_masks": [None, [2]], "n_ps": [0.0, 1.0]},
            }
        )
        data = json.loads(json.dumps(config_to_json(cfg)))
        assert parse_config(data) == cfg

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="mystery"):
            parse_config({"mystery": 1})

    def test_unknown_section_key_named(self):
        with pytest.raises(ConfigError, match="oops"):
            parse_config({"guidance": {"oops": 1}})

    def test_unsupported_version(self):
        with pytest.raises(ConfigError, match="version"):
            parse_config({"version": 99})

    def test_guidance_key_mapping(self):
        cfg = parse_config(
            {
                "schedule": [[1, 1], [1, 1], [1, 1]],
                "guidance": {
                    "lambda": 1.5,
                    "n_p": 0.25,
                    "gamma": 0.5,
                    "variant": "uniform_prefix",
                    "scale_mask": [2, 3],
                }
            }
        )
        g = cfg.guidance
        assert g.lam == 1.5
        assert g.fraction == 0.25
        assert g.gamma == 0.5
        assert g.variant is CorruptionVariant.UNIFORM_PREFIX
        assert g.scale_mask == frozenset({2, 3})

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            parse_config({"guidance": {"variant": "nonsense"}})

    def test_bad_schedule_rejected(self):
        with pytest.raises(ConfigError, match="schedule"):
            parse_config({"schedule": [[2, 2], [1, 1]]})

    def test_bad_scalar_value_rejected(self):
        with pytest.raises(ConfigError, match="vocab"):
            parse_config({"vocab": "many"})

    @pytest.mark.parametrize(
        "load, data, key",
        [
            (parse_config, {"model": {"include_null": "false"}}, "include_null"),
            (parse_config, {"vocab": 2.7}, "vocab"),
            (parse_config, {"vocab": 0}, "vocab"),
            (parse_config, {"num_conditions": True}, "num_conditions"),
            (parse_config, {"sampler": {"top_k": 2.5}}, "top_k"),
            (parse_config, {"verify": {"vocab_grid": ["a"]}}, "vocab_grid"),
            (parse_config, {"verify": {"condition_grid": []}}, "condition_grid"),
            (parse_config, {"num_conditions": 2, "condition": 2}, "condition"),
            (parse_config, {"condition": -1}, "condition"),
            (parse_config, {"schedule": [[1.5, 1], [1, 1]]}, "schedule"),
            (parse_config, {"sweep": {"scale_masks": [5]}}, "scale_masks"),
            (parse_config, {"verify": {"tolerance": math.inf}}, "tolerance"),
            (parse_config, {"verify": {"tolerance": math.nan}}, "tolerance"),
            (parse_config, {"model": {"seed": False}}, "seed"),
            (parse_config, {"guidance": {"n_p": 1.5}}, "n_p"),
            (parse_config, {"guidance": {"n_p": -0.1}}, "n_p"),
            (parse_config, {"sweep": {"n_ps": [0.5, 2.0]}}, "n_ps"),
            (parse_config, {"ablate": {"n_p": 7}}, "n_p"),
            (parse_config, {"sweep": {"replicates": 0}}, "replicates"),
            (parse_config, {"sweep": {"n_samples": 0}}, "n_samples"),
            (parse_config, {"ablate": {"replicates": 0}}, "replicates"),
            (parse_config, {"ablate": {"n_samples": -2}}, "n_samples"),
            (parse_config, {"model": {"corpus_count": 0}}, "corpus_count"),
            (parse_config, {"model": {"signature_bins": 0}}, "signature_bins"),
            (parse_config, {"model": {"alpha": 0.0}}, "alpha"),
            (parse_config, {"model": {"alpha": -1.0}}, "alpha"),
            (parse_config, {"verify": {"tolerance": -1e-9}}, "tolerance"),
            (parse_config, {"sweep": {"metric": "bogus"}}, "metric"),
            (parse_config, {"guidance": {"gamma": math.nan}}, "gamma"),
            (parse_config, {"guidance": {"lambda": math.inf}}, "lambda"),
            (parse_config, {"guidance": {"n_p": math.nan}}, "n_p"),
            (parse_config, {"verify": {"gammas": [0.0, math.inf]}}, "gammas"),
            (parse_config, {"sweep": {"lambdas": [math.nan]}}, "lambdas"),
            (parse_config, {"ablate": {"lambdas": [-1.0]}}, "lambdas"),
            (parse_config, {"guidance": {"scale_mask": [7]}}, "scale_mask"),
            (parse_config, {"guidance": {"scale_mask": [1, 3]}}, "scale_mask"),
            (parse_config, {"sweep": {"scale_masks": [None, [9]]}}, "scale_masks"),
            (parse_config, {"sweep": {"metric": "toy_frechet", "n_samples": 1}}, "n_samples"),
            (parse_config, {"ablate": {"n_samples": 1}}, "n_samples"),
            (parse_config, {"schedule": [[1, 2], [2, 1]]}, "schedule"),
            (parse_config, {"model": {"seed": -1}}, "seed"),
            (parse_config, {"codebook_seed": -1}, "codebook_seed"),
            (parse_config, {"embed_seed": -1}, "embed_seed"),
            (parse_config, {"model": {"signature_seed": -1}}, "signature_seed"),
            (parse_config, {"model": {"corpus_seed": -1}}, "corpus_seed"),
        ],
    )
    def test_malformed_scalar_rejected_by_name(self, load, data, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            load(data)

    def test_exact_kl_sweep_accepts_one_sample(self):
        # exact_kl computes laws and never reads n_samples.
        assert parse_config({"sweep": {"n_samples": 1}}).sweep.n_samples == 1

    def test_invalid_sampler_values_rejected(self):
        with pytest.raises(ConfigError, match="sampler"):
            parse_config({"sampler": {"temperature": -1.0}})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_temperature_rejected(self, value):
        with pytest.raises(ConfigError, match="sampler section: temperature"):
            parse_config({"sampler": {"temperature": value}})

    def test_codebook_derived_from_config(self):
        cfg = parse_config({"vocab": 4, "latent_dim": 3, "codebook_seed": 21})
        book = cfg.codebook()
        assert (book.num_scales, book.vocab, book.latent_dim) == (2, 4, 3)


class TestLoadConfig:
    def test_invalid_json_raises_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"vocab": 3, "num_conditions": 2, "condition": 1}))
        cfg = load_config(path)
        assert cfg.vocab == 3
        assert cfg.condition == 1


class TestCorpusCsv:
    def test_roundtrip(self, small_schedule, small_book, tmp_path):
        from tests.conftest import make_corpus

        corpus = make_corpus(small_schedule, small_book, 2, 5, seed=1)
        path = tmp_path / "corpus.csv"
        corpus_to_csv(corpus, path)
        back = corpus_from_csv(path, small_schedule, 3, 2)
        assert len(back) == 5
        for (ca, ma), (cb, mb) in zip(corpus, back):
            assert ca == cb
            for a, b in zip(ma, mb):
                assert np.array_equal(a.ids, b.ids)

    def test_row_length_mismatch_raises(self, small_schedule, tmp_path):
        from prefixlab.errors import InvalidInputError

        path = tmp_path / "corpus.csv"
        path.write_text("0,1,1\n")
        with pytest.raises(InvalidInputError):
            corpus_from_csv(path, small_schedule, 3, 2)

    @pytest.mark.parametrize(
        "row",
        ["7,0,1", "0,0,-1", "0,0,9", "x,0,1",
         "0,0,99999999999999999999999", "0,0,-99999999999999999999999"],
    )
    def test_bad_row_rejected_by_line(self, tmp_path, row):
        from prefixlab.errors import InvalidInputError

        path = tmp_path / "corpus.csv"
        path.write_text(f"1,1,0\n\n{row}\n")
        with pytest.raises(InvalidInputError, match="corpus line 3"):
            corpus_from_csv(path, ScaleSchedule(((1, 1), (1, 1))), 2, 2)

