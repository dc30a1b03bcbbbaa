"""Strict JSON run config, plus model and corpus serialization."""

import json
import math
import re

import numpy as np
import pytest

from prefixlab.config import (
    ConfigError,
    RunConfig,
    config_to_json,
    corpus_from_csv,
    corpus_to_csv,
    load_config,
    model_from_config,
    model_to_config,
    parse_config,
)
from prefixlab.corruption import CorruptionVariant
from prefixlab.model import NULL_CONDITION, TabularModel, build_tabular
from prefixlab.tokenizer import ScaleSchedule


class TestParseConfig:
    def test_empty_object_gives_defaults(self):
        cfg = parse_config({})
        assert cfg == RunConfig()

    def test_shipped_default_parses(self):
        from prefixlab.cli import default_config_text

        data = json.loads(default_config_text())
        assert parse_config(data) == RunConfig()
        # Every schema key is written out, at its RunConfig() value.
        assert data == config_to_json(RunConfig())

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
            (model_from_config,
             {"kind": "tabular", "schedule": [[1, 1]], "vocab": 2.7,
              "num_conditions": 1, "seed": 0}, "vocab"),
            (model_from_config,
             {"kind": "tabular", "schedule": [[1, 1]], "vocab": 2,
              "num_conditions": 1, "seed": False}, "seed"),
            (model_from_config,
             {"kind": "count", "schedule": [[1, 1]], "vocab": 2,
              "num_conditions": 1, "counts": [], "alpha": 1.0,
              "signature_bins": 4, "signature_seed": 0, "embed_seed": 0,
              "embed_dim": 4, "include_null": "false"}, "include_null"),
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
        ],
    )
    def test_malformed_scalar_rejected_by_name(self, load, data, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            load(data)

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

    @pytest.mark.parametrize("row", ["7,0,1", "0,0,-1", "0,0,9", "x,0,1"])
    def test_bad_row_rejected_by_line(self, tmp_path, row):
        from prefixlab.errors import InvalidInputError

        path = tmp_path / "corpus.csv"
        path.write_text(f"1,1,0\n\n{row}\n")
        with pytest.raises(InvalidInputError, match="corpus line 3"):
            corpus_from_csv(path, ScaleSchedule(((1, 1), (1, 1))), 2, 2)


class TestModelSerialization:
    def test_tabular_roundtrip(self, small_schedule):
        model = build_tabular(small_schedule, 3, 2, seed=17)
        data = json.loads(json.dumps(model_to_config(model)))
        back = model_from_config(data)
        assert isinstance(back, TabularModel)
        assert back.tables.keys() == model.tables.keys()
        for key in model.tables:
            assert np.array_equal(back.tables[key], model.tables[key])

    def test_unseeded_tabular_rejected(self, m1):
        from prefixlab.errors import InvalidInputError

        with pytest.raises(InvalidInputError):
            model_to_config(m1)

    def test_count_roundtrip(self, small_count, small_book):
        data = json.loads(json.dumps(model_to_config(small_count)))
        back = model_from_config(data)
        assert back.counts.keys() == small_count.counts.keys()
        for key in small_count.counts:
            assert np.array_equal(back.counts[key], small_count.counts[key])
        assert back.include_null
        # Null-condition rows survive the JSON round trip.
        assert any(c is NULL_CONDITION for _, c, _ in back.counts)

    @pytest.mark.parametrize(
        "mutate, key",
        [
            (lambda d: d.pop("counts"), "counts"),
            (lambda d: d["counts"][0].pop("condition"), "counts[0].condition"),
            (lambda d: d.update(counts=3), "counts"),
            (lambda d: d["counts"].__setitem__(1, 3), "counts[1]"),
            (lambda d: d["counts"][0].update(signature="ab"), "counts[0].signature"),
            (lambda d: d["counts"][3]["signature"][0].__setitem__(0, 4), "counts[3].signature"),
            (lambda d: d["counts"][3].update(signature=[]), "counts[3].signature"),
            (lambda d: d["counts"][0].update(scale=1.7), "counts[0].scale"),
            (lambda d: d["counts"][0].update(scale=9), "counts[0].scale"),
            (lambda d: d["counts"][0].update(condition=5), "counts[0].condition"),
            (lambda d: d["counts"][0].update(table=[[[1.0, 2.0]]]), "counts[0].table"),
            (lambda d: d["counts"][0].update(table=[[[1.0, -2.0, 0.0]]]), "counts[0].table"),
            (lambda d: d["counts"][0].update(table=[[[1.0, 2.0, 0.0], [1.0]]]), "counts[0].table"),
            (lambda d: d["counts"][0].update(table=[[["1", "2", "0"]]]), "counts[0].table"),
            (lambda d: d["counts"][0].update(table=[[[True, 2, 0]]]), "counts[0].table"),
            (lambda d: d["counts"][0].update(extra=1), "extra"),
            (lambda d: d["counts"].insert(1, dict(d["counts"][0])), "counts[1]"),
            (lambda d: d.update(version="1"), "version"),
        ],
        ids=[
            "no-counts", "no-condition", "counts-not-list", "entry-not-object",
            "signature-text", "signature-bin-range", "signature-shape", "scale-float",
            "scale-range", "condition-range", "table-shape", "table-negative",
            "table-ragged", "table-text", "table-bool", "unknown-key", "repeated-entry", "version-text",
        ],
    )
    def test_malformed_count_entry_rejected_by_name(self, small_count, mutate, key):
        data = json.loads(json.dumps(model_to_config(small_count)))
        mutate(data)
        with pytest.raises(ConfigError, match=re.escape(f"'{key}'")):
            model_from_config(data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            model_from_config(
                {"kind": "magic", "schedule": [[1, 1]], "vocab": 2,
                 "num_conditions": 1}
            )

    def test_version_checked(self, small_schedule):
        model = build_tabular(small_schedule, 2, 1, seed=0)
        data = model_to_config(model)
        data["version"] = 9
        with pytest.raises(ConfigError):
            model_from_config(data)
