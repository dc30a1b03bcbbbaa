"""Set-up of one workload, timed from outside by ``run.py``.

Usage: python3 bench/setup_model.py CONFIG_JSON COMMAND

A fresh interpreter imports ``prefixlab``, loads the config and builds the
model the command would use, through public functions only. For ``verify``
that is the first of its models.
"""

import sys

from prefixlab.config import load_config
from prefixlab.model import SignatureSpec, build_tabular, fit_count_model
from prefixlab.tokenizer import encode_multiscale, synthetic_images


def build(cfg, command: str):
    if command == "verify":
        spec = cfg.verify
        return build_tabular(cfg.schedule, spec.vocab_grid[0], spec.condition_grid[0], 0)
    spec = cfg.model
    if spec.kind == "tabular":
        return build_tabular(cfg.schedule, cfg.vocab, cfg.num_conditions, spec.seed)
    book = cfg.codebook()
    images = synthetic_images(cfg.schedule, cfg.latent_dim, spec.corpus_seed,
                              spec.corpus_count)
    corpus = [(i % cfg.num_conditions, encode_multiscale(img, cfg.schedule, book))
              for i, img in enumerate(images)]
    return fit_count_model(
        corpus, cfg.schedule, book, cfg.vocab, cfg.num_conditions,
        alpha=spec.alpha, spec=SignatureSpec(spec.signature_bins, spec.signature_seed),
        embed_seed=cfg.embed_seed, embed_dim=cfg.embed_dim,
        include_null=spec.include_null,
    )


if __name__ == "__main__":
    build(load_config(sys.argv[1]), sys.argv[2])
