"""Seeded CNN and HAN fits pinned as a behaviour lock.

A small separable corpus, one fixed training config and one seed give, per
neural model, a per-epoch training log, a calibrated threshold and the
held-out scores. Each model is pinned twice: with the vocabulary the fit
builds, whose table rows the training documents nearly all reach, and
(``cnn_wide``, ``han_wide``) with a pretrained table padded with
``WIDE_FILLER_ROWS`` rows that no document reaches. ``tests/test_training.py``
compares a fresh run with the committed golden at ``TOLERANCE``: this lock,
not the bytes of any one op, is the numeric contract of the neural code.

Print, per lock, how many pinned values a fresh run changes and the largest
absolute drift (exit status 1 if it is above ``TOLERANCE``) with:

    PYTHONPATH=src python tests/golden_neural.py

and regenerate the golden after an intentional change to training or
scoring with:

    PYTHONPATH=src python tests/golden_neural.py --write
"""

import json
import sys
from pathlib import Path

LOCK_PATH = Path(__file__).parent / "data" / "golden" / "neural_lock.json"

# Absolute tolerance on every pinned float. The runs are bit-deterministic
# on one machine; the margin leaves room for another BLAS build's rounding.
TOLERANCE = 1e-6

CONFIG = {"epochs": 4, "patience": 2, "batch_size": 16, "learning_rate": 1e-2,
          "embed_dim": 8, "hidden_dim": 4, "n_filters": 4, "window_sizes": [2, 3],
          "max_tokens": 40, "max_sentences": 5, "max_words_per_sentence": 10,
          "vocab_min_freq": 1, "calibrate": True, "seed": 5}

WIDE_FILLER_ROWS = 2_000
LOCKS = ("cnn", "han", "cnn_wide", "han_wide")


def _wide_table(train_docs, dim: int):
    """A trainable table over the training vocabulary plus filler words."""
    import numpy as np

    from controkit.embeddings import EmbeddingTable
    from controkit.textprep import Vocabulary, build_vocabulary

    words = build_vocabulary(train_docs, max_size=50_000, min_freq=1).words()
    words += [f"filler{i}" for i in range(WIDE_FILLER_ROWS)]
    return EmbeddingTable.random(Vocabulary.from_tokens(words), dim, np.random.default_rng(53))


def build_neural_lock(lock: str) -> dict:
    """Training log, threshold and test scores of one seeded fit; ``lock``
    is a model kind, optionally suffixed ``_wide`` for the padded table."""
    from controkit.models import TrainConfig, fit, predict
    from controkit.synthetic import make_separable_corpus, split_simple

    kind, _, wide = lock.partition("_")
    splits = split_simple(make_separable_corpus(n_docs=100, seed=51), seed=52)
    pretrained = _wide_table(splits["train"], CONFIG["embed_dim"]) if wide else None
    result = fit(kind, splits["train"], splits["validation"], TrainConfig.from_json(CONFIG),
                 pretrained=pretrained)
    return {
        "log": result.log,
        "threshold": result.classifier.threshold,
        "test_scores": [p.score for p in predict(result.classifier, splits["test"])],
    }


def _pinned_values(entry: dict) -> list:
    """Every number one lock pins, in a fixed order."""
    return ([value for epoch in entry["log"] for _, value in sorted(epoch.items())]
            + [entry["threshold"], *entry["test_scores"]])


def drift_report() -> bool:
    """Print, per lock, the count of pinned values a fresh run changes and
    their largest absolute drift from the committed golden; returns whether
    every lock stays within ``TOLERANCE``."""
    golden = json.loads(LOCK_PATH.read_text())
    within = True
    for lock in LOCKS:
        got, want = _pinned_values(build_neural_lock(lock)), _pinned_values(golden[lock])
        if len(got) != len(want):
            print(f"{lock}: {len(got)} values against {len(want)} pinned")
            within = False
            continue
        drift = [abs(a - b) for a, b in zip(got, want)]
        print(f"{lock}: {sum(d != 0 for d in drift)} of {len(drift)} values changed, "
              f"max abs drift {max(drift):.2g} (tolerance {TOLERANCE:g})")
        within = within and max(drift) <= TOLERANCE
    return within


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        lock = {"config": CONFIG, **{lock: build_neural_lock(lock) for lock in LOCKS}}
        LOCK_PATH.write_text(json.dumps(lock, indent=1, sort_keys=True) + "\n")
        print(f"wrote {LOCK_PATH}")
    elif sys.argv[1:]:
        print("usage: python tests/golden_neural.py [--write]", file=sys.stderr)
        sys.exit(2)
    else:
        sys.exit(0 if drift_report() else 1)
