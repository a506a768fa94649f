"""Every metric the benchmark reports, with its unit, and the layer map.

The driver line (the last line ``run.py`` prints) carries the metrics of
``BENCHMARK.json``: ``DRIVER_END_TO_END`` untraced and ``DRIVER_PER_LAYER``
traced, the same names on every workload. The end-to-end ones are
measured and non-zero on every workload. Stage metrics exist only on the
workloads that run the stage, and the timings are too noisy on a shared
host to gate, so they are printed and written to the result file but left
off that line. The per-layer counts, bytes and ratios on the line are
exact and read zero on workloads where their layer is idle; per-layer
times are left off it.
"""

from __future__ import annotations

COMPARISON = "comparison_small"
REFERENCE = "neural_reference"
CRAWL = "crawl_wiki"
WORKLOADS = (COMPARISON, REFERENCE, CRAWL)
NEURAL = (COMPARISON, REFERENCE)

# Public graph-building ops of controkit.autodiff. An op a later version
# drops is not wrapped and counts zero.
OPS = ("add", "sub", "mul", "scale", "matmul", "transpose", "reshape", "sigmoid",
       "tanh", "relu", "log", "softmax", "log_softmax", "sum_all", "max_over_rows",
       "concat", "row", "col", "element", "lookup", "windows", "dropout")

# name -> (unit, better, workloads, definition)
END_TO_END = {
    "setup_s": ("s", "lower", WORKLOADS,
                "median of the repeated in-process input set-ups (generation, "
                "table build, fixture wiki); start-up and imports are import_s"),
    "time_to_report_s": ("s", "lower", WORKLOADS,
                         "one pass: first timed call to the pass's last output "
                         "(report written, last prediction, split written)"),
    "peak_rss_mb": ("MB", "lower", WORKLOADS, "peak resident set size of the workload process"),
    "cnn_train_docs_per_s": ("docs/s", "higher", NEURAL,
                             "train docs x epochs run / cnn fit wall time"),
    "han_train_docs_per_s": ("docs/s", "higher", NEURAL,
                             "train docs x epochs run / han fit wall time"),
    "cnn_predict_docs_per_s": ("docs/s", "higher", NEURAL, "test docs / cnn predict wall time"),
    "han_predict_docs_per_s": ("docs/s", "higher", NEURAL, "test docs / han predict wall time"),
    "lexical_s": ("s", "lower", (COMPARISON,), "fit + predict of tfidf and lm"),
    "eval_s": ("s", "lower", (COMPARISON,),
               "evaluate_predictions over 4 models at 1,000 resamples"),
    "crawl_pages_per_s": ("pages/s", "higher", (CRAWL,),
                          "documents written / crawl command wall time"),
    "error_rate": ("ratio", "lower", WORKLOADS,
                   "stage calls or documents that raised or failed their output "
                   "check / attempted"),
}
# Gated by BENCHMARK.json. The timings are printed, not gated: on the 2-vCPU
# host this was measured on, the speed of the same code drifted by up to
# 1.7x over minutes, and time_to_report_s on comparison_small spread by
# 0.25 and 0.42 (quartile distance / median) over two sets of ten runs.
DRIVER_END_TO_END = ("setup_s", "peak_rss_mb")

# layer -> (metric names, end-to-end metrics it should move, workload where it
# does most of the work). On the other workloads it should not move.
LAYERS = {
    "autodiff.tape": (
        ["autodiff.tape_nodes_per_doc.cnn", "autodiff.tape_nodes_per_doc.han",
         "autodiff.grad_edges_per_doc.cnn", "autodiff.grad_edges_per_doc.han",
         "autodiff.backward_s_per_doc.cnn", "autodiff.backward_s_per_doc.han"]
        + [f"autodiff.op_calls.{op}.{k}" for op in OPS for k in ("cnn", "han")]
        + [f"autodiff.forward_self_s.{op}" for op in OPS],
        ["*_train_docs_per_s", "*_predict_docs_per_s"], COMPARISON),
    "autodiff.bytes": (
        ["autodiff.lookup_grad_bytes_per_doc.cnn", "autodiff.lookup_grad_bytes_per_doc.han",
         "autodiff.param_grad_bytes_per_doc.cnn", "autodiff.param_grad_bytes_per_doc.han"],
        ["*_train_docs_per_s", "peak_rss_mb"], REFERENCE),
    "gru": (["gru.step_calls_per_doc", "gru.step_self_s"],
            ["han_train_docs_per_s", "han_predict_docs_per_s"], COMPARISON),
    "models.neural": (
        ["models.cnn.loss_s_per_doc", "models.han.loss_s_per_doc",
         "models.han.document_vector_s_per_doc",
         "models.cnn.score_s_per_doc", "models.han.score_s_per_doc"],
        ["*_train_docs_per_s", "*_predict_docs_per_s"], f"{COMPARISON}, {REFERENCE}"),
    "models.lexical": (
        ["models.tfidf.train_s", "models.lm.train_s",
         "models.tfidf.score_s_per_doc", "models.lm.score_s_per_doc"],
        ["lexical_s"], COMPARISON),
    "optim": (["optim.adam_steps", "optim.adam_step_s", "optim.adam_bytes_per_step"],
              ["*_train_docs_per_s"], REFERENCE),
    "models.training": (["training.self_s", "training.epochs_run"],
                        ["*_train_docs_per_s"], REFERENCE),
    "textprep": (["textprep.encode_calls", "textprep.encode_s_per_doc",
                  "textprep.vocab_build_s"],
                 ["*_train_docs_per_s", "*_predict_docs_per_s"], COMPARISON),
    "metrics": (["metrics.bootstrap_ci_s", "metrics.compare_s",
                 "metrics.auc_calls", "metrics.prf_calls", "metrics.take_calls",
                 "metrics.auc_self_s", "metrics.prf_self_s", "metrics.take_self_s",
                 "metrics.resamples_drawn", "metrics.resamples_skipped",
                 "metrics.useful_resample_ratio"],
                ["eval_s"], COMPARISON),
    "crawl": (["crawl.http_requests", "crawl.pages_stored", "crawl.useful_request_ratio",
               "crawl.retry_requests", "crawl.failures.http_4xx", "crawl.failures.robots",
               "crawl.robots_requests", "crawl.fetch_s", "crawl.parse_self_s"],
              ["crawl_pages_per_s"], CRAWL),
    "corpus": (["corpus.propagate_s", "corpus.split_s", "corpus.write_s"],
               ["crawl_pages_per_s"], CRAWL),
    "reports": (["reports.dump_json_s"], ["time_to_report_s"], COMPARISON),
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if "bytes" in name:
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    if "_s_per_doc" in name:
        return "s/doc"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


PER_LAYER = {name: unit_of(name) for names, _, _ in LAYERS.values() for name in names}

# Ops that appear on the seed code's tapes; the other op/model pairs count
# zero on every workload and are left off the driver line.
_TAPE_OPS = {
    "cnn": ("add", "concat", "element", "log_softmax", "lookup", "matmul",
            "max_over_rows", "mul", "relu", "scale", "sum_all", "transpose", "windows"),
    "han": ("add", "col", "concat", "element", "log_softmax", "lookup", "matmul", "mul",
            "reshape", "row", "scale", "sigmoid", "softmax", "sub", "sum_all", "tanh",
            "transpose"),
}
# crawl.pages_stored is fixed by the crawl check (it must equal the BFS), so
# it cannot move and is left off the driver line too.
DRIVER_PER_LAYER = tuple(
    name for name, unit in PER_LAYER.items()
    if unit not in ("s", "s/doc") and name != "crawl.pages_stored"
    and (not name.startswith("autodiff.op_calls.")
         or name.split(".")[2] in _TAPE_OPS[name.split(".")[3]])
)
