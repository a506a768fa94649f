"""Independent brute-force implementations used as test oracles.

Everything here is deliberately written from the definitions (explicit
loops, pair enumeration, hand-rolled recurrences) and never calls the
code paths it checks. The exceptions are the two scalar heads at the end,
``weighted_sum`` and ``total``, which record test-only tape nodes so that
a single op's output can be made into a loss.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from controkit import autodiff as ad


def matmul_loops(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def softmax_direct(v):
    v = np.asarray(v, dtype=np.float64)
    e = np.array([math.exp(x) for x in v])
    return e / e.sum()


def sigmoid_scalar(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def gru_scalar(x, h_prev, w, u, b) -> np.ndarray:
    """One GRU step computed coordinate by coordinate from the equations.

    ``w``, ``u`` and ``b`` are one direction's stacked arrays; their row
    blocks are read here in z, r, h order.
    """
    x = np.asarray(x, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    hidden = len(h_prev)
    gate = {name: slice(k * hidden, (k + 1) * hidden) for k, name in enumerate("zrh")}

    def affine(name, gated_h):
        w_g, u_g, b_g = w[gate[name]], u[gate[name]], b[gate[name]]
        out = np.zeros(hidden)
        for i in range(hidden):
            s = float(b_g[i])
            for j in range(len(x)):
                s += float(w_g[i, j]) * x[j]
            for j in range(hidden):
                s += float(u_g[i, j]) * gated_h[j]
            out[i] = s
        return out

    z = np.array([sigmoid_scalar(v) for v in affine("z", h_prev)])
    r = np.array([sigmoid_scalar(v) for v in affine("r", h_prev)])
    h_cand = np.tanh(affine("h", r * h_prev))
    return (1.0 - z) * h_prev + z * h_cand


def direction(arrays, d: int):
    """Direction ``d``'s (w, u, b) of a bidirectional GRU layer's (w, u, b)."""
    return tuple(arr[d] for arr in arrays)


def adam_trace(gradients, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, theta0=0.0):
    """Scalar Adam trajectory following the update equations by hand."""
    m = v = 0.0
    theta = theta0
    trace = []
    for t, g in enumerate(gradients, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        trace.append(theta)
    return trace


def cnn_scalar(tokens, params) -> np.ndarray:
    """Explicit-loop re-implementation of the convolution classifier
    (eval mode)."""
    vectors = np.asarray(params.embedding.vectors, dtype=np.float64)
    emb = [vectors[t] for t in tokens]
    dim = vectors.shape[1]
    pooled = []
    for h in params.window_sizes:
        filt = np.asarray(params.arrays[f"conv{h}.w"], dtype=np.float64)
        bias = np.asarray(params.arrays[f"conv{h}.b"], dtype=np.float64)
        for f in range(filt.shape[0]):
            best = -math.inf
            for pos in range(len(emb) - h + 1):
                s = float(bias[f])
                for i in range(h):
                    for d in range(dim):
                        s += filt[f, i * dim + d] * emb[pos + i][d]
                best = max(best, max(0.0, s))
            pooled.append(best)
    dense_w = np.asarray(params.arrays["dense.w"], dtype=np.float64)
    dense_b = np.asarray(params.arrays["dense.b"], dtype=np.float64)
    logits = [float(dense_b[c]) + sum(dense_w[c, j] * pooled[j] for j in range(len(pooled)))
              for c in range(dense_w.shape[0])]
    return softmax_direct(logits)


def han_scalar(sentences, params):
    """Explicit re-implementation of the hierarchical attention forward
    pass (eval mode), sentence by sentence, word by word."""
    vectors = np.asarray(params.embedding.vectors, dtype=np.float64)
    hidden = params.hidden_dim

    def attention_arrays(level):
        return (params.arrays[f"{level}_att.{name}"] for name in "wbu")

    def attention(states, w, b, u):
        scores = []
        for h in states:
            proj = np.tanh(np.asarray(w, dtype=np.float64) @ h + np.asarray(b, dtype=np.float64))
            scores.append(float(np.asarray(u, dtype=np.float64) @ proj))
        alpha = softmax_direct(scores)
        pooled = np.zeros(len(states[0]))
        for a, h in zip(alpha, states):
            pooled += a * h
        return pooled, alpha

    def bidirectional(xs, level):
        """Direction 0 read forward and direction 1 backward, concatenated per step."""
        w, u, b = (params.arrays[f"{level}_gru.{name}"] for name in "wub")
        h = np.zeros(hidden)
        fw = []
        for x in xs:
            h = gru_scalar(x, h, w[0], u[0], b[0])
            fw.append(h)
        h = np.zeros(hidden)
        bw = [None] * len(xs)
        for t in reversed(range(len(xs))):
            h = gru_scalar(xs[t], h, w[1], u[1], b[1])
            bw[t] = h
        return [np.concatenate([fw[t], bw[t]]) for t in range(len(xs))]

    sent_vectors = []
    word_alphas = []
    for sent in sentences:
        states = bidirectional([vectors[t] for t in sent], "word")
        pooled, alpha = attention(states, *attention_arrays("word"))
        sent_vectors.append(pooled)
        word_alphas.append(alpha)

    states = bidirectional(sent_vectors, "sent")
    doc_vec, sent_alpha = attention(states, *attention_arrays("sent"))
    dense_w = np.asarray(params.arrays["dense.w"], dtype=np.float64)
    dense_b = np.asarray(params.arrays["dense.b"], dtype=np.float64)
    logits = dense_w @ doc_vec + dense_b
    return softmax_direct(logits), word_alphas, sent_alpha


def prf_confusion(hard, true):
    """Precision/recall/F1 by enumerating the confusion table."""
    tp = fp = fn = 0
    for h, t in zip(hard, true):
        if h == 1 and t == 1:
            tp += 1
        elif h == 1 and t == 0:
            fp += 1
        elif h == 0 and t == 1:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def auc_pairs(scores, labels):
    """All (positive, negative) pair comparison with half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    assert pos and neg
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def auc_rank_sum(scores, labels):
    """Mann-Whitney U over tie-averaged ranks: the positives' rank sum less
    its least possible value, per (positive, negative) pair."""
    ranks = ranks_with_ties(list(scores))
    n_pos = sum(1 for y in labels if y == 1)
    n_neg = sum(1 for y in labels if y == 0)
    assert n_pos and n_neg
    rank_sum = sum(r for r, y in zip(ranks, labels) if y == 1)
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def ranks_with_ties(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman_hand(x, y):
    """Average-rank transform then Pearson, by explicit sums."""
    rx = ranks_with_ties(list(x))
    ry = ranks_with_ties(list(y))
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0 or syy == 0:
        return float("nan")
    return sxy / math.sqrt(sxx * syy)


def percentile_hand(values, q):
    v = sorted(float(x) for x in values)
    h = (len(v) - 1) * q / 100.0
    lo = int(math.floor(h))
    hi = min(lo + 1, len(v) - 1)
    g = h - lo
    return v[lo] + g * (v[hi] - v[lo])


def bootstrap_second(metric_of_indices, n_items, n_resamples, level, seed):
    """Second percentile-bootstrap implementation under the same seeded
    generator contract; metric_of_indices may raise ValueError to mark a
    resample undefined."""
    rng = np.random.default_rng(seed)
    values = []
    skipped = 0
    for _ in range(n_resamples):
        idx = rng.integers(0, n_items, size=n_items)
        try:
            values.append(metric_of_indices(idx))
        except ValueError:
            skipped += 1
    alpha = 100.0 * (1.0 - level) / 2.0
    return percentile_hand(values, alpha), percentile_hand(values, 100.0 - alpha), skipped


def bfs_hops(edges, start_urls):
    """Shortest hop distance from a seed set over directed edges."""
    adjacency = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
    dist = {}
    queue = deque()
    for url in start_urls:
        if url not in dist:
            dist[url] = 0
            queue.append(url)
    while queue:
        u = queue.popleft()
        for v in adjacency.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def bag_of_words_label(text, positive_words, negative_words):
    """The separable-corpus oracle: whichever class vocabulary dominates."""
    tokens = text.lower().split()
    pos = sum(1 for t in tokens if t.rstrip(".") in positive_words)
    neg = sum(1 for t in tokens if t.rstrip(".") in negative_words)
    return 1 if pos > neg else 0


def sweep_threshold(scores, labels):
    """Exhaustive threshold sweep over observed scores plus one above."""
    candidates = sorted(set(float(s) for s in scores))
    candidates.append(candidates[-1] + max(1e-9, abs(candidates[-1]) * 1e-9))
    best_t, best_f1 = None, -1.0
    for t in candidates:
        hard = [1 if s >= t else 0 for s in scores]
        _, _, f1 = prf_confusion(hard, labels)
        if f1 > best_f1:
            best_t, best_f1 = t, f1
    return best_t, best_f1


def weighted_sum(out, weights=None):
    """The scalar ``sum(out * weights)`` as one tape node (all-ones weights
    by default). Its backward hands ``out`` exactly ``weights`` (in the
    graph's dtype) as the upstream gradient of a unit loss."""
    w = np.broadcast_to(np.asarray(1.0 if weights is None else weights, dtype=out.data.dtype),
                        out.shape)

    def fwd(x):
        return np.asarray((x * w).sum(), dtype=x.dtype)

    def bwd(g, _, x):
        return (g * w,)

    return ad._record("weighted_sum", (out,), fwd, bwd)


def total(terms):
    """The sum of scalar nodes as one tape node; each term's upstream
    gradient is the total's."""
    terms = tuple(terms)

    def fwd(*xs):
        return np.asarray(sum(xs), dtype=xs[0].dtype)

    def bwd(g, _, *xs):
        return (g,) * len(xs)

    return ad._record("total", terms, fwd, bwd)
