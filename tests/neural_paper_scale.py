"""Time CNN and HAN training batches at the paper's scale and project a fit.

The table holds 50,000 words x 300 dimensions (the documented defaults:
128 filters of widths 2, 3 and 4, hidden 50, batches of 64). Each
document shape gets 64 * k
documents whose words are drawn with ``rng.zipf(1.3, n) % 50000`` from
``default_rng(0)``, with alternating labels: CNN pages of 32, 200 and 400
tokens (the encode cap) and HAN pages of 6 x 10 and 30 x 50 (sentences x
words, the caps). Each run times a one-epoch fit and a zero-epoch fit
(vocabulary lookup, encoding and set-up) on the same documents; their
difference over k is one batch. The projection is the batch time for a
5,600-document, 5-epoch fit, without validation scoring. Next to each
run's ms/doc go the minor page faults of its two fits, counted by
``getrusage(RUSAGE_SELF)`` for this process only; the first fit in a
process also faults in the heap it grows. Point ``PYTHONPATH`` at the
``src`` of the tree to measure:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/neural_paper_scale.py --batches 2 --runs 3
"""

import argparse
import math
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

N_WORDS, DIM, BATCH = 50_000, 300, 64
FIT_DOCS, FIT_EPOCHS = 5_600, 5
SHAPES = (("cnn", 1, 32), ("cnn", 1, 200), ("cnn", 1, 400), ("han", 6, 10), ("han", 30, 50))


@dataclass
class PaperDoc:
    text: str
    label: str


def paper_docs(n_docs: int, n_sentences: int, n_words: int):
    from controkit.corpus import CONTROVERSIAL, NON_CONTROVERSIAL

    rng = np.random.default_rng(0)
    docs = []
    for i in range(n_docs):
        ids = rng.zipf(1.3, (n_sentences, n_words)) % N_WORDS
        text = " ".join(" ".join(f"w{k}" for k in row) + "." for row in ids)
        docs.append(PaperDoc(text, CONTROVERSIAL if i % 2 == 0 else NON_CONTROVERSIAL))
    return docs


def paper_table():
    from controkit.embeddings import EmbeddingTable
    from controkit.textprep import Vocabulary

    vocab = Vocabulary.from_tokens([f"w{k}" for k in range(N_WORDS)])
    return EmbeddingTable.random(vocab, DIM, np.random.default_rng(1))


def main() -> None:
    from controkit.models import TrainConfig, fit

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batches", type=int, default=2, help="batches k per timed epoch")
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args()
    table = paper_table()
    batches_per_epoch = math.ceil(FIT_DOCS / BATCH)
    for kind, n_sentences, n_words in SHAPES:
        docs = paper_docs(BATCH * args.batches, n_sentences, n_words)
        shape = f"{n_words} tokens" if kind == "cnn" else f"{n_sentences}x{n_words}"
        batch_s = []
        for _ in range(args.runs):
            times, faults = [], []
            for epochs in (0, 1):
                config = TrainConfig(epochs=epochs, embed_dim=DIM, batch_size=BATCH)
                f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                t0 = time.perf_counter()
                fit(kind, docs, docs[:2], config, pretrained=table)
                times.append(time.perf_counter() - t0)
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
            batch_s.append((times[1] - times[0]) / args.batches)
            print(f"{kind} {shape}: batch {batch_s[-1] * 1e3:.0f} ms, "
                  f"{batch_s[-1] * 1e3 / BATCH:.1f} ms/doc; minor faults {faults[0]:,} "
                  f"(0 epochs), {faults[1]:,} (1 epoch)", flush=True)
        median = statistics.median(batch_s)
        print(f"{kind} {shape}: median of {args.runs}, {median * 1e3 / BATCH:.1f} ms/doc; "
              f"{FIT_DOCS:,} docs x {FIT_EPOCHS} epochs: "
              f"{median * batches_per_epoch * FIT_EPOCHS / 60:.1f} min", flush=True)


if __name__ == "__main__":
    main()
