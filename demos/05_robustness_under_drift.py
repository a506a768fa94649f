"""Why embedding-based models survive vocabulary drift and exact-lexical
models do not.

The drift corpus gives the new snapshot's positives synonym words that
never occur in the old snapshot; each synonym's pretrained vector sits
next to its old counterpart. Training on the old year and testing on the
new year starves tf-idf and the unigram language model of every positive
feature, while the convolution and attention models ride the embedding
neighborhood. Watch the Recall delta column.
"""

import os
import tempfile
import time

from controkit.embeddings import write_w2v
from controkit.experiments import run_temporal
from controkit.reports import render_temporal_table
from controkit.synthetic import make_drift_corpus, split_simple

old_docs, new_docs, (words, vectors) = make_drift_corpus(
    n_docs_per_year=400, seed=5, embed_dim=32)

tmp = tempfile.mkdtemp()
w2v_path = os.path.join(tmp, "synonyms.w2v")
write_w2v(w2v_path, words, vectors, binary=True)
print(f"wrote {len(words)} pretrained vectors (synonym pairs share a neighborhood)")

config = {
    "epochs": 3, "patience": 3, "embed_dim": 32, "hidden_dim": 16,
    "n_filters": 32, "window_sizes": [2, 3], "max_tokens": 40,
    "max_sentences": 5, "max_words_per_sentence": 10, "vocab_min_freq": 1,
    "embeddings_path": w2v_path, "fine_tune_embeddings": False,
    "calibrate": True,
}

t0 = time.time()
within, between, delta = run_temporal(
    split_simple(old_docs, seed=6), split_simple(new_docs, seed=7),
    ("tfidf", "lm", "cnn", "han"), config, seed=100, n_resamples=100)
print(f"ran within-year and between-year training in {time.time() - t0:.0f}s\n")

print(render_temporal_table(within.to_json(), between.to_json(), "'18/'18", "'09/'18",
                            "Temporal stability under vocabulary drift"))
print("between-year recall drops:")
for model, metrics in delta.items():
    w, b = metrics["recall"]["within"], metrics["recall"]["between"]
    print(f"  {model:6s} {w:.3f} -> {b:.3f}   ({metrics['recall']['delta']})")
