"""Time and trace a tf-idf fit at the paper's training-split scale.

5,600 documents of 600 tokens each, drawn with ``rng.zipf(1.3, 600) %
30000`` over 30,000 words from ``default_rng(0)``, with alternating
labels; 200 epochs at lr 0.5 and l2 1e-4 (the defaults). Each run times
the feature build alone (``epochs=0``) and then the whole fit; the epochs
are the difference. Each run then scores ``N_HELD_OUT`` held-out documents,
drawn the same way from ``default_rng(1)`` and tokenized beforehand, on
the fitted model. A last run takes the tracemalloc peak of one fit.
Point ``PYTHONPATH`` at the ``src`` of the tree to measure:

    PYTHONPATH=src python tests/tfidf_paper_scale.py --runs 5
"""

import argparse
import statistics
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

N_DOCS, DOC_LEN, N_WORDS = 5_600, 600, 30_000
N_HELD_OUT = 500


@dataclass
class PaperDoc:
    text: str
    label: str


def paper_corpus(n_docs: int = N_DOCS, seed: int = 0):
    from controkit.corpus import CONTROVERSIAL, NON_CONTROVERSIAL

    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(N_WORDS)]
    return [PaperDoc(" ".join(words[k] for k in rng.zipf(1.3, DOC_LEN) % N_WORDS),
                     CONTROVERSIAL if i % 2 == 0 else NON_CONTROVERSIAL)
            for i in range(n_docs)]


def main() -> None:
    from controkit.models.tfidf import tfidf_train
    from controkit.textprep import tokenize

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    docs = paper_corpus()
    held_out = [tokenize(d.text) for d in paper_corpus(N_HELD_OUT, seed=1)]
    features, totals, scores = [], [], []
    for _ in range(args.runs):
        t0 = time.perf_counter()
        tfidf_train(docs, epochs=0, lr=0.5, l2=1e-4)
        t1 = time.perf_counter()
        model = tfidf_train(docs, epochs=200, lr=0.5, l2=1e-4)
        t2 = time.perf_counter()
        for tokens in held_out:
            model.score(tokens)
        t3 = time.perf_counter()
        features.append(t1 - t0)
        totals.append(t2 - t1)
        scores.append((t3 - t2) / N_HELD_OUT * 1e3)
        print(f"features {features[-1]:.2f} s  fit {totals[-1]:.2f} s  "
              f"score {scores[-1]:.3f} ms/doc ({len(model.terms)} terms)")
    tracemalloc.start()
    tfidf_train(docs, epochs=200, lr=0.5, l2=1e-4)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"median of {args.runs}: features {statistics.median(features):.2f} s, "
          f"epochs {statistics.median(totals) - statistics.median(features):.2f} s, "
          f"fit {statistics.median(totals):.2f} s, score {statistics.median(scores):.3f} "
          f"ms/doc; tracemalloc peak {peak / 1e6:.0f} MB")


if __name__ == "__main__":
    main()
