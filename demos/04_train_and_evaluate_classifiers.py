"""Train all four classifiers on a separable synthetic corpus and compare
them with bootstrap confidence intervals and paired significance.

The corpus uses two disjoint content vocabularies plus shared noise, so a
bag-of-words rule is perfect and every model should approach F1 = 1; the
point here is the shared train/predict/evaluate machinery, not a hard
learning problem.
"""

import time

from controkit.experiments import run_baseline_comparison
from controkit.reports import render_interval_table, render_metrics_table
from controkit.synthetic import make_separable_corpus, split_simple

splits = split_simple(make_separable_corpus(n_docs=600, seed=1), seed=2)
config = {
    "epochs": 3, "patience": 3, "embed_dim": 16, "hidden_dim": 8,
    "n_filters": 16, "window_sizes": [2, 3], "max_tokens": 40,
    "max_sentences": 5, "max_words_per_sentence": 10,
    "vocab_min_freq": 1, "calibrate": True,
}

t0 = time.time()
report, _ = run_baseline_comparison(
    splits, splits["test"], ("tfidf", "lm", "cnn", "han"),
    config, seed=3, n_resamples=200)
print(f"trained and evaluated 4 models in {time.time() - t0:.0f}s\n")

print(render_metrics_table(report.to_json(), "Point estimates"))
print(render_interval_table(report.to_json(), "With 95% bootstrap percentile intervals"))

significant_f1 = report.significance["f1"]
names = report.model_names
print("pairwise F1 differences significant at p < 0.05:")
for i in range(len(names)):
    for j in range(i + 1, len(names)):
        verdict = "significant" if significant_f1[i][j] else "not significant"
        print(f"  {names[i]} vs {names[j]}: {verdict}")
