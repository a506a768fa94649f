"""Seeded tf-idf and LM fits pinned bit for bit.

Two corpora: the separable synthetic one, with an empty document, a
document of one repeated token and a term found in one document only
added to its training split; and a noisy one whose words are drawn from a
Zipf law, so that many documents violate the margin at every epoch. Per
corpus the lock holds the sha256 of the tf-idf weights, idf and document
frequencies, the bias and every held-out score as ``float.hex`` strings,
and the LM's held-out scores. ``tests/test_models_lexical.py`` compares a
fresh run with the committed golden exactly.

Print, per corpus, how many pinned values a fresh run changes and the
largest absolute drift of the pinned floats (exit status 1 if any value
changed) with:

    PYTHONPATH=src python tests/golden_lexical.py

and regenerate the golden after an intentional change to lexical training
or scoring with:

    PYTHONPATH=src python tests/golden_lexical.py --write
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

LOCK_PATH = Path(__file__).parent / "data" / "golden" / "lexical_lock.json"
CORPORA = ("separable", "zipf")
FLOAT_KEYS = ("b", "test_scores")  # pinned as float.hex strings


def _sha256(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def lock_corpus(name: str):
    """(train, test) documents of one lock corpus."""
    import numpy as np

    from controkit.corpus import CONTROVERSIAL, NON_CONTROVERSIAL
    from controkit.synthetic import make_separable_corpus, split_simple

    if name == "separable":
        splits = split_simple(make_separable_corpus(n_docs=120, seed=61), seed=62)
        train, test = splits["train"], splits["test"]
        template = train[0]
        train = train + [
            replace(template, id="lock-empty", text="", label=NON_CONTROVERSIAL),
            replace(template, id="lock-repeated", text="echo " * 9 + "echo.",
                    label=CONTROVERSIAL),
            replace(template, id="lock-hapax", text=train[1].text + " solitaryword",
                    label=train[1].label),
        ]
        test = test + [replace(template, id="lock-test-empty", text=""),
                       replace(template, id="lock-test-repeated", text="echo echo echo"),
                       replace(template, id="lock-test-unseen", text="nowhere nothing")]
        return train, test
    rng = np.random.default_rng(63)
    template = make_separable_corpus(n_docs=1, seed=61)[0]
    docs = [replace(template, id=f"zipf{i}",
                    text=" ".join(f"w{k}" for k in rng.zipf(1.3, 60) % 400),
                    label=CONTROVERSIAL if i % 2 == 0 else NON_CONTROVERSIAL)
            for i in range(160)]
    return docs[:120], docs[120:]


def build_lexical_lock(name: str) -> dict:
    from controkit.models.lm import lm_train
    from controkit.models.tfidf import tfidf_train
    from controkit.textprep import tokenize

    train, test = lock_corpus(name)
    tfidf = tfidf_train(train, epochs=200, lr=0.5, l2=1e-4)
    lm = lm_train(train, mu=2000.0)
    return {
        "tfidf": {
            "n_terms": len(tfidf.terms),
            "w_sha256": _sha256(tfidf.w),
            "b": tfidf.b.hex(),
            "idf_sha256": _sha256(tfidf.idf),
            "doc_freq_sha256": _sha256(tfidf.doc_freq),
            "test_scores": [tfidf.score(tokenize(d.text)).hex() for d in test],
        },
        "lm": {"test_scores": [float(lm.score(tokenize(d.text))).hex() for d in test]},
    }


def _pinned_values(entry: dict) -> list:
    """Every ``(key, value)`` one corpus pins, in a fixed order; floats are
    read from their hex strings."""
    out = []
    for model, pinned in sorted(entry.items()):
        for key, value in sorted(pinned.items()):
            values = value if isinstance(value, list) else [value]
            out += [(f"{model}.{key}", float.fromhex(v) if key in FLOAT_KEYS else v)
                    for v in values]
    return out


def drift_report() -> bool:
    """Print, per corpus, the count of pinned values a fresh run changes and
    the largest absolute drift of the changed floats, naming any other
    changed key; returns whether no value changed."""
    golden = json.loads(LOCK_PATH.read_text())
    unchanged = True
    for name in CORPORA:
        got, want = _pinned_values(build_lexical_lock(name)), _pinned_values(golden[name])
        if [key for key, _ in got] != [key for key, _ in want]:
            print(f"{name}: {len(got)} values against {len(want)} pinned")
            unchanged = False
            continue
        changed = [(key, a, b) for (key, a), (_, b) in zip(got, want) if a != b]
        drift = max((abs(a - b) for _, a, b in changed if isinstance(a, float)), default=0.0)
        others = sorted({key for key, a, _ in changed if not isinstance(a, float)})
        print(f"{name}: {len(changed)} of {len(got)} values changed, max abs drift "
              f"{drift:.2g}" + (f"; changed: {', '.join(others)}" if others else ""))
        unchanged = unchanged and not changed
    return unchanged


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        lock = {name: build_lexical_lock(name) for name in CORPORA}
        LOCK_PATH.write_text(json.dumps(lock, indent=1, sort_keys=True) + "\n")
        print(f"wrote {LOCK_PATH}")
    elif sys.argv[1:]:
        print("usage: python tests/golden_lexical.py [--write]", file=sys.stderr)
        sys.exit(2)
    else:
        sys.exit(0 if drift_report() else 1)
