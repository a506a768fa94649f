"""Span tracing of controkit from outside the package.

``Instrumentation`` replaces public controkit functions and methods with
wrappers that record a span per call, then puts the originals back. Spans
(name, start, end, parent span, document id) are kept in flat in-memory
arrays and written once, when the run ends. Only the main thread records:
the fixture server answers requests on its own threads and is not traced.

A span's self time is its duration minus the part its child spans cover.
Calls nest on one thread, so children are disjoint and the covered part is
the sum of their durations.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import Counter

import numpy as np

import requests

import controkit.autodiff as ad
import controkit.cli as cli
import controkit.corpus as corpus
import controkit.crawl as crawl
import controkit.metrics as metrics
import controkit.models.base as base
import controkit.models.han as han
import controkit.models.training as training
import controkit.reports as reports
from controkit.corpus import document_id

from catalog import OPS

# Spans whose time is the benchmark's own bookkeeping, not the program's.
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """In-memory span store plus per-pass counters and a model-kind context."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.docs: list[str] = []
        self._doc_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.doc = array("i")
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self.counters: Counter = Counter()
        self.kind = ""            # model kind of the stage being run
        self.doc_of: dict = {}    # id(encoded tokens or sentences) -> document id

    def on_main_thread(self) -> bool:
        return threading.get_ident() == self._main

    def _intern(self, table, ids, value) -> int:
        i = ids.get(value)
        if i is None:
            i = ids[value] = len(table)
            table.append(value)
        return i

    def open(self, name: str, doc: str | None = None) -> int:
        idx = len(self.start)
        self.name.append(self._intern(self.names, self._name_ids, name))
        self.doc.append(-1 if doc is None else self._intern(self.docs, self._doc_ids, doc))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def n_spans(self) -> int:
        return len(self.start)

    def aggregate(self, lo: int, hi: int) -> dict:
        """{span name: (calls, total seconds, self seconds)} over spans lo..hi-1."""
        start = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.float64)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64) - lo
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        dur = end - start
        inside = parent >= 0
        covered = np.bincount(parent[inside], weights=dur[inside], minlength=len(dur))
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {self.names[i]: (int(calls[i]), float(total[i]), float(self_s[i]))
                for i in range(k) if calls[i]}

    def retries(self, lo: int, hi: int, parent_name: str, child_name: str) -> int:
        """Calls of ``child_name`` beyond the first directly under each
        ``parent_name`` span, over spans lo..hi-1."""
        p_id = self._name_ids.get(parent_name)
        c_id = self._name_ids.get(child_name)
        if p_id is None or c_id is None:
            return 0
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        idx = np.arange(lo, hi)
        child = idx[name[lo:hi] == c_id]
        under = parent[child]
        under = under[under >= 0]
        under = under[name[under] == p_id]
        per_parent = np.unique(under, return_counts=True)[1]
        return int(np.sum(per_parent - 1))

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                 docs=np.array(self.docs, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 doc=np.frombuffer(self.doc, dtype=np.int32))


class Instrumentation:
    """Wraps controkit's public functions in spans; ``remove`` restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list = []

    def wrap(self, owner, attr, name, doc=None, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is a span name or a function of the call's arguments;
        ``doc`` maps the arguments to a document id; ``after`` receives
        (args, result) for counting and runs in a bookkeeping span so its
        cost is not charged to the caller's self time.
        """
        if not hasattr(owner, attr):
            return
        fn = getattr(owner, attr)
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            if not tracer.on_main_thread():
                return fn(*args, **kwargs)
            idx = tracer.open(name(args) if callable(name) else name,
                              doc(args) if doc is not None else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                bk = tracer.open(BOOKKEEPING)
                try:
                    after(args, result)
                finally:
                    tracer.close(bk)
            return result

        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def install(self) -> "Instrumentation":
        t = self.tracer
        c = t.counters

        for op in OPS:
            self.wrap(ad, op, f"op.{op}")

        def after_backward(args, grads):
            graph = args[0]
            kind = t.kind
            nodes = graph.nodes
            c[f"backward_calls.{kind}"] += 1
            c[f"tape_nodes.{kind}"] += len(nodes)
            lookups = 0
            for node in nodes:
                c[f"op_nodes.{node.op}.{kind}"] += 1
                if node.grad is not None and node.inputs and node._bwd is not None:
                    c[f"grad_edges.{kind}"] += len(node.inputs)
                if node.op == "lookup":
                    lookups += 1
            table = graph.params.get("embedding")
            if table is not None:
                c[f"lookup_grad_bytes.{kind}"] += lookups * table.data.nbytes
            c[f"param_grad_bytes.{kind}"] += sum(g.nbytes for g in grads.values())

        self.wrap(ad.Graph, "backward", lambda a: f"autodiff.backward.{t.kind}",
                  after=after_backward)
        self.wrap(han, "gru_step", "gru.step")
        self.wrap(han, "han_document_vector", "models.han.document_vector")

        def encoded_doc(args):
            return t.doc_of.get(id(args[2]))

        self.wrap(training, "cnn_loss", "models.cnn.loss", doc=encoded_doc)
        self.wrap(training, "han_loss", "models.han.loss", doc=encoded_doc)
        self.wrap(training, "cnn_forward", "training.validation_score.cnn",
                  doc=lambda a: a[0].doc_id)
        self.wrap(training, "han_forward", "training.validation_score.han",
                  doc=lambda a: a[0].doc_id)
        self.wrap(base.Classifier, "score_document", lambda a: f"models.{a[0].kind}.score",
                  doc=lambda a: getattr(a[1], "id", None))
        self.wrap(training, "tfidf_train", "models.tfidf.train")
        self.wrap(training, "lm_train", "models.lm.train")

        def after_adam(args, _):
            c["adam_steps"] += 1
            # computed: read p, g, m, v and write p, m, v once per element
            c["adam_bytes"] += 7 * sum(p.nbytes for p in args[0].values())

        self.wrap(training, "adam_step", "optim.adam_step", after=after_adam)

        def after_encode(args, enc):
            t.doc_of[id(enc.tokens)] = enc.doc_id
            t.doc_of[id(enc.sentences)] = enc.doc_id

        for module in (training, base):
            self.wrap(module, "encode_document", "textprep.encode",
                      doc=lambda a: getattr(a[0], "id", None), after=after_encode)
        self.wrap(training, "build_vocabulary", "textprep.vocab_build")

        def after_bootstrap(args, result):
            c["resamples_drawn"] += result.n_resamples
            c["resamples_skipped"] += result.n_skipped

        def after_compare(args, result):
            c["resamples_drawn"] += len(result.differences) + result.n_skipped
            c["resamples_skipped"] += result.n_skipped

        self.wrap(metrics, "bootstrap_ci", "metrics.bootstrap_ci", after=after_bootstrap)
        self.wrap(metrics, "compare", "metrics.compare", after=after_compare)
        self.wrap(metrics, "auc", "metrics.auc")
        self.wrap(metrics, "prf", "metrics.prf")
        self.wrap(metrics.PredictionSet, "take", "metrics.take")

        self.wrap(requests.Session, "get",
                  lambda a: "crawl.robots_get" if a[1].endswith("/robots.txt")
                  else "crawl.http_get")
        self.wrap(crawl.HttpFetcher, "fetch", "crawl.fetch", doc=lambda a: document_id(a[1]))
        self.wrap(crawl, "parse_page", "crawl.parse", doc=lambda a: document_id(a[1]))

        self.wrap(corpus, "propagate_labels", "corpus.propagate")
        self.wrap(cli, "split_dataset", "corpus.split")
        for owner, attr in ((cli, "write_documents"), (cli, "write_edges"),
                            (corpus, "write_seeds")):
            self.wrap(owner, attr, "corpus.write")
        for owner in (reports, cli):
            self.wrap(owner, "dump_json", "reports.dump_json")
        return self
