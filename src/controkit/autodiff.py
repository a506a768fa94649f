"""Reverse-mode automatic differentiation over numpy arrays.

A :class:`Graph` is a tape of :class:`Tensor` nodes recorded in creation
order, which makes the graph acyclic with every node's inputs preceding it.
Each non-leaf node stores a pure recompute function of its input arrays and
a backward function, so a finalized graph supports three things:

* ``backward(loss)``  -- reverse accumulation of d(loss)/d(parameter),
* ``recompute()``     -- re-run the forward pass from current leaf values,
* ``grad_check(...)`` -- central finite differences against the analytic
  gradients (64-bit graphs only; 32-bit differences are too noisy).

Every op is a layer of the models, one node with a hand-written backward
rule: :func:`lookup`, :func:`conv_max_pool` (all filter widths),
:func:`attention_pool`, :func:`dropout`, :func:`linear`,
:func:`cross_entropy` and :func:`l2_penalty`; the GRU's ``gru_sequence``
lives in ``gru.py``.

Values and most gradients are dense arrays. A table is read by one
:func:`lookup` and no other op, and its gradient is a :class:`RowSparseGrad`
holding just the gathered rows, so a document's backward pass never
allocates a table-sized array. Tensors refer to their graph weakly: the
graph owns its nodes, and a dropped graph is freed at once by reference
counting.

Training math runs in float32; gradient checking builds the identical graph
in float64.
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import DimensionError, DomainError, NumericError, UsageError


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, safe for large-magnitude (even infinite) inputs."""
    x = np.asarray(x)
    e = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) below: never overflows
    return np.where(x >= 0, 1, e) / (1 + e)


MASK_LOGIT = -1e9  # a masked attention score: weight exactly 0 after stable_softmax


def stable_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis with max-subtraction for stability."""
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=-1, keepdims=True)


class RowSparseGrad:
    """Gradient of a table touched only in some rows: row ``indices[k]`` of
    the gradient is ``values[k]``, every other row is zero.

    ``indices`` are unique and sorted. ``np.asarray`` densifies and
    ``add_to`` adds into an array; arithmetic operators and other numpy
    operations are refused so that nothing densifies by accident.
    """

    __slots__ = ("indices", "values", "shape")
    __array_ufunc__ = None

    def __init__(self, indices: np.ndarray, values: np.ndarray, shape: tuple):
        self.indices = indices
        self.values = values
        self.shape = tuple(shape)

    @classmethod
    def summed(cls, indices: np.ndarray, values: np.ndarray, shape) -> "RowSparseGrad":
        """Sum the rows of ``values`` that share an index, in their order."""
        rows, inverse = np.unique(indices, return_inverse=True)
        out = np.zeros((len(rows),) + values.shape[1:], dtype=values.dtype)
        np.add.at(out, inverse, values)
        return cls(rows, out, shape)

    @property
    def nbytes(self) -> int:
        return self.indices.nbytes + self.values.nbytes

    def add_to(self, out):
        """Add the stored rows into ``out``: an array, or a RowSparseGrad with all of them.
        The indices are unique, so an indexed ``+=`` adds each row once."""
        if isinstance(out, RowSparseGrad):
            inside = np.isin(self.indices, out.indices)
            if not inside.all():
                raise UsageError(f"gradient rows {self.indices[~inside][:5].tolist()} lie "
                                 f"outside the {len(out.indices)} rows being accumulated")
            out.values[np.searchsorted(out.indices, self.indices)] += self.values
        else:
            out[self.indices] += self.values
        return out

    def __array__(self, dtype=None, copy=None):
        dense = self.add_to(np.zeros(self.shape, dtype=self.values.dtype))
        return dense if dtype is None else dense.astype(dtype, copy=False)


class Tensor:
    """One node of a computation graph: an array plus gradient bookkeeping."""

    __slots__ = ("_graph", "data", "grad", "op", "inputs", "_fwd", "_bwd", "name", "index")

    def __init__(self, graph, data, op, inputs=(), fwd=None, bwd=None, name=None):
        self._graph = weakref.ref(graph)
        self.data = data
        self.grad = None
        self.op = op
        self.inputs = inputs
        self._fwd = fwd
        self._bwd = bwd
        self.name = name
        self.index = len(graph.nodes)
        graph.nodes.append(self)

    @property
    def graph(self) -> "Graph":
        graph = self._graph()
        if graph is None:
            raise UsageError(f"the graph of {self!r} has been freed")
        return graph

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        label = f" name={self.name!r}" if self.name else ""
        return f"<Tensor #{self.index} op={self.op}{label} shape={self.data.shape}>"


class Graph:
    """Tape of recorded operations with named trainable parameters."""

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self.nodes: list[Tensor] = []
        self.params: dict[str, Tensor] = {}

    def constant(self, value, name=None) -> Tensor:
        data = np.asarray(value, dtype=self.dtype)
        return Tensor(self, data, op="const", name=name)

    def parameter(self, name: str, value) -> Tensor:
        if name in self.params:
            raise UsageError(f"parameter {name!r} already registered")
        data = np.asarray(value, dtype=self.dtype)
        t = Tensor(self, data, op="param", name=name)
        self.params[name] = t
        return t

    def recompute(self) -> None:
        """Re-run every recorded operation from current leaf values."""
        for node in self.nodes:
            if node._fwd is not None:
                node.data = node._fwd(*[t.data for t in node.inputs])

    def backward(self, loss: Tensor) -> dict[str, np.ndarray | RowSparseGrad]:
        """Reverse accumulation from a scalar loss node.

        Returns a map of parameter name to gradient; parameters the loss does
        not depend on get zero arrays. A parameter read by one :func:`lookup`
        gets a :class:`RowSparseGrad` of the rows it gathered; every other
        gradient is a dense array. A leaf read by a lookup and any other op
        (a second lookup included), or a lookup of a node that is no leaf,
        raises :class:`UsageError`. Only nodes some parameter feeds run
        their backward rule and receive gradients; the ``grad`` of
        every other node (constants, frozen tables) stays None. Raises
        :class:`NumericError` on the first non-finite gradient, naming the
        node that produced it.
        """
        if loss.graph is not self:
            raise UsageError("loss node belongs to a different graph")
        if loss.data.size != 1:
            raise UsageError(f"loss must be scalar, got shape {loss.data.shape}")
        if not np.all(np.isfinite(loss.data)):
            raise NumericError(f"loss value is non-finite at node {loss!r}")
        tape = self.nodes[: loss.index + 1]
        fed = [False] * len(tape)  # fed[i]: some parameter feeds node i
        for node in self.nodes:
            node.grad = None
        for node in tape:
            fed[node.index] = node.op == "param" or any(fed[t.index] for t in node.inputs)
        loss.grad = np.ones_like(loss.data)
        for node in reversed(tape):
            if node.grad is None or node._bwd is None or not fed[node.index]:
                continue
            in_grads = node._bwd(node.grad, node.data, *[t.data for t in node.inputs])
            for parent, g in zip(node.inputs, in_grads):
                if g is None or not fed[parent.index]:
                    continue
                row_sparse = isinstance(g, RowSparseGrad)
                if not np.all(np.isfinite(g.values if row_sparse else g)):
                    raise NumericError(
                        f"non-finite gradient flowing into {parent!r} from node {node!r}"
                    )
                if isinstance(parent.grad, RowSparseGrad) or row_sparse and (
                        parent.grad is not None or parent._bwd is not None):
                    raise UsageError(f"a lookup's gradient must be the only gradient of a "
                                     f"leaf, but {parent!r} is read by another op too or "
                                     f"is no leaf")
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g
        out = {}
        for name, p in self.params.items():
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
            out[name] = p.grad
        return out


def _record(op, inputs, fwd, bwd, name=None) -> Tensor:
    graph = inputs[0].graph
    for t in inputs[1:]:
        if t.graph is not graph:
            raise UsageError(f"operands of {op} belong to different graphs")
    data = fwd(*[t.data for t in inputs])
    return Tensor(graph, data, op=op, inputs=tuple(inputs), fwd=fwd, bwd=bwd, name=name)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The dense layer ``x @ w.T + b`` for x (n, k), w (m, k) and b (m,), as
    one node."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1] or b.shape != w.shape[:1]:
        raise DimensionError(f"linear needs x (n, k), w (m, k) and b (m,), "
                             f"got {x.shape}, {w.shape} and {b.shape}")

    def fwd(x, w, b):
        return x @ w.T + b

    def bwd(g, out, x, w, b):
        return g @ w, g.T @ x, g.sum(0)

    return _record("linear", (x, w, b), fwd, bwd)


def _log_probabilities(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def cross_entropy(logits: Tensor, target) -> Tensor:
    """Negative log-likelihood of the target classes: ``-sum_i log
    softmax(logits[i])[target[i]]`` over the rows of a 2-D node, as one
    scalar node. ``target`` is a class index per row (an int for one row).
    The backward is ``g * (softmax(logits) - onehot(target))``."""
    if logits.ndim != 2 or logits.shape[1] == 0:
        raise DomainError(f"cross_entropy needs non-empty 2-D logits, got {logits.shape}")
    rows = np.arange(logits.shape[0])
    cols = np.broadcast_to(np.asarray(target, dtype=np.int64), rows.shape)
    if np.any((cols < 0) | (cols >= logits.shape[1])):
        raise DomainError(f"cross_entropy targets {cols.tolist()} outside "
                          f"{logits.shape[1]} classes")
    onehot = np.zeros(logits.shape, dtype=logits.data.dtype)
    onehot[rows, cols] = 1

    def fwd(x):
        return np.asarray(-_log_probabilities(x)[rows, cols].sum(), dtype=x.dtype)

    def bwd(g, out, x):
        return (g * (np.exp(_log_probabilities(x)) - onehot),)

    return _record("cross_entropy", (logits,), fwd, bwd)


def l2_penalty(loss: Tensor, w: Tensor, k: float) -> Tensor:
    """The scalar ``loss + k * sum(w * w)`` as one node."""
    if loss.data.size != 1:
        raise DimensionError(f"l2_penalty needs a scalar loss, got shape {loss.shape}")

    def fwd(loss, w):
        return loss + np.asarray((w * w).sum(), dtype=w.dtype) * k

    def bwd(g, out, loss, w):
        return g, (2 * k * g) * w

    return _record("l2_penalty", (loss, w), fwd, bwd)


def lookup(table: Tensor, indices, pad_index: int = 0) -> Tensor:
    """Gather rows of an embedding table.

    The backward pass returns a :class:`RowSparseGrad` of the gathered rows,
    repeated indices summed. Positions holding ``pad_index`` are left out, so
    the padding row is excluded from updates.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError(f"lookup indices must be 1-D, got shape {idx.shape}")
    kept = idx != pad_index

    def fwd(tab):
        return tab[idx]

    def bwd(g, out, tab):
        return (RowSparseGrad.summed(idx[kept], g[kept], tab.shape),)

    return _record("lookup", (table,), fwd, bwd)


def conv_max_pool(x: Tensor, banks) -> Tensor:
    """A convolutional layer of several filter widths as one (1, sum F)
    node: for each bank (w, b) in ``banks``, w (F, width * d) and b (F,),
    text convolution, ReLU and max-over-time pooling, ``out[f]`` being the
    largest ``relu(window @ w[f] + b[f])`` over the windows of ``width``
    consecutive rows of x (T, d); the banks' pooled rows are concatenated
    in order.

    The gradient goes to each filter's first maximal window, which keeps
    backward deterministic under ties, and only where that maximum is
    positive. Only the winning positions are saved (``Graph.recompute``
    refreshes them), and the backward pass multiplies only the windows
    some filter won by ``w``.
    """
    banks = tuple(banks)
    if not banks:
        raise DimensionError("conv_max_pool needs at least one (w, b) bank")
    for w, b in banks:
        if (x.ndim != 2 or w.ndim != 2 or b.shape != w.shape[:1] or not x.shape[1]
                or not w.shape[1] or w.shape[1] % x.shape[1]):
            raise DimensionError(f"conv_max_pool needs x (T, d), w (F, width * d) and "
                                 f"b (F,), got {x.shape}, {w.shape} and {b.shape}")
    steps, dim = x.shape
    widths = [w.shape[1] // dim for w, _ in banks]
    if steps < max(widths):
        raise DimensionError(f"sequence of length {steps} shorter than window {max(widths)}")
    splits = np.cumsum([w.shape[0] for w, _ in banks])[:-1]  # bank boundaries in the row
    saved = []

    def windows(x, width):  # row i is x[i : i + width] flattened, a view
        return np.lib.stride_tricks.sliding_window_view(x, (width, dim)).reshape(
            steps - width + 1, -1)

    def fwd(x, *wb):
        saved.clear()
        pooled = []
        for width, w, b in zip(widths, wb[::2], wb[1::2]):
            # a contiguous copy of the windows multiplies faster than the strided view
            act = np.maximum(windows(x, width).copy() @ w.T + b, 0.0)
            saved.append(np.argmax(act, axis=0))
            pooled.append(act[saved[-1], np.arange(len(w))])
        return np.concatenate(pooled)[None]

    def bwd(g, out, x, *wb):
        dx, grads = np.zeros_like(x), []
        g_rows, live = np.split(g[0], splits), np.split(out[0] > 0, splits)
        for width, w, winners, g_k, live_k in zip(widths, wb[::2], saved, g_rows, live):
            gp = g_k * live_k
            # only the winning windows get a gradient
            rows, slot = np.unique(winners, return_inverse=True)
            g_act = np.zeros((len(rows), len(w)), dtype=g.dtype)
            g_act[slot, np.arange(len(w))] = gp
            g_win = g_act @ w
            for j in range(width):  # rows are unique, so each add is safe
                dx[rows + j] += g_win[:, j * dim : (j + 1) * dim]
            g_w = windows(x, width)[winners]  # a fresh array: scaled in place, no second copy
            g_w *= gp[:, None]
            grads += [g_w, gp]
        return (dx, *grads)

    return _record("conv_max_pool", (x, *(t for bank in banks for t in bank)), fwd, bwd)


def attention_pool(states: Tensor, w: Tensor, b: Tensor, u: Tensor, n_groups: int,
                   mask=None) -> tuple[Tensor, np.ndarray]:
    """Additive attention pooling as one (n_groups, rep) node, plus the
    weights of the forward pass that recorded it.

    The rows of ``states`` (N, rep) form ``n_groups`` groups of L = N /
    n_groups consecutive rows. Each row scores ``tanh(row @ w.T + b) @ u``
    for w (m, rep), b (m,) and u (m,); a softmax within each group turns
    the scores into weights (n_groups, L), and output row i is group i's
    weighted sum of rows. ``mask`` (n_groups, L), true at real rows, adds
    ``MASK_LOGIT`` to the other rows' scores, which gives them weight
    exactly 0.
    """
    if (states.ndim != 2 or w.ndim != 2 or w.shape[1] != states.shape[1]
            or b.shape != w.shape[:1] or u.shape != w.shape[:1] or n_groups < 1
            or states.shape[0] < n_groups or states.shape[0] % n_groups):
        raise DimensionError(f"attention_pool needs states (n_groups * L, rep), w (m, rep), "
                             f"b (m,) and u (m,), got {states.shape}, {w.shape}, {b.shape} "
                             f"and {u.shape} for {n_groups} groups")
    (n_rows, rep), m = states.shape, w.shape[0]
    length = n_rows // n_groups
    logit_mask = None
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n_groups, length):
            raise DimensionError(f"attention_pool mask has shape {mask.shape}, "
                                 f"expected {(n_groups, length)}")
        logit_mask = np.where(mask, 0.0, MASK_LOGIT).astype(states.data.dtype)
    saved = {}

    def fwd(x, w, b, u):
        hidden = np.tanh(x @ w.T + b)
        scores = (hidden @ u.reshape(m, 1)).reshape(n_groups, length)
        if logit_mask is not None:
            scores = scores + logit_mask
        saved["hidden"] = hidden
        saved["alpha"] = alpha = stable_softmax(scores)
        return (alpha.reshape(n_groups, 1, length)
                @ x.reshape(n_groups, length, rep)).reshape(n_groups, rep)

    def bwd(g, out, x, w, b, u):
        hidden, alpha = saved["hidden"], saved["alpha"]
        # the weighted sum, to its weights and to the rows it adds
        g3 = g.reshape(n_groups, 1, rep)
        g_alpha = g3 @ np.swapaxes(x.reshape(n_groups, length, rep), -1, -2)
        g_summed = np.swapaxes(alpha.reshape(n_groups, 1, length), -1, -2) @ g3
        # the softmax, then the scores tanh(x @ w.T + b) @ u
        g_alpha = g_alpha.reshape(n_groups, length)
        dot = np.sum(g_alpha * alpha, axis=-1, keepdims=True)
        g_scores = (alpha * (g_alpha - dot)).reshape(n_rows, 1)
        g_pre = (g_scores @ u.reshape(m, 1).T) * (1.0 - hidden * hidden)
        return (g_summed.reshape(n_rows, rep) + g_pre @ w, g_pre.T @ x,
                g_pre.sum(0), (hidden.T @ g_scores).reshape(m))

    node = _record("attention_pool", (states, w, b, u), fwd, bwd)
    return node, saved["alpha"]


def dropout(a: Tensor, rate: float, mode: str, rng=None) -> Tensor:
    """Inverted dropout: zero entries with probability ``rate`` and scale
    survivors by 1/(1-rate) in train mode; identity in eval mode.

    The train-mode node keeps the mask it sampled, so recomputing (for
    gradient checks) reuses it.
    """
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise UsageError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or rate == 0.0:
        return a
    if rng is None:
        raise UsageError("dropout in train mode needs an rng")
    mask = (rng.random(a.shape) >= rate).astype(a.graph.dtype.type) / (1.0 - rate)

    def fwd(x):
        return x * mask

    def bwd(g, out, x):
        return (g * mask,)

    return _record("dropout", (a,), fwd, bwd)


class GradCheckReport:
    """Per-parameter maximum relative error of analytic vs numeric gradients."""

    def __init__(self, per_param, nan_coordinates, step, tolerance):
        self.per_param = per_param
        self.nan_coordinates = nan_coordinates
        self.step = step
        self.tolerance = tolerance

    @property
    def max_error(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def passed(self) -> bool:
        return not self.nan_coordinates and all(
            e < self.tolerance for e in self.per_param.values()
        )

    def __repr__(self):
        worst = sorted(self.per_param.items(), key=lambda kv: -kv[1])[:3]
        status = "ok" if self.passed else "FAILED"
        return f"<GradCheckReport {status} max={self.max_error:.3g} worst={worst}>"


def grad_check(graph: Graph, loss: Tensor, step: float = 1e-4, tolerance: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    Requires a float64 graph. For every parameter coordinate the relative
    error is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8); the
    report lists the max per parameter, with NaNs recorded per-coordinate
    rather than raised.
    """
    if graph.dtype != np.float64:
        raise UsageError("grad_check requires a float64 graph")
    analytic = graph.backward(loss)
    per_param: dict[str, float] = {}
    nan_coords: list[tuple[str, int]] = []
    for name, tensor in graph.params.items():
        flat = tensor.data.reshape(-1)
        a_flat = np.asarray(analytic[name]).reshape(-1)
        worst = 0.0
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            graph.recompute()
            up = float(loss.data)
            flat[k] = orig - step
            graph.recompute()
            down = float(loss.data)
            flat[k] = orig
            numeric = (up - down) / (2.0 * step)
            denom = max(abs(a_flat[k]), abs(numeric), 1e-8)
            err = abs(a_flat[k] - numeric) / denom
            if np.isnan(err):
                nan_coords.append((name, k))
            else:
                worst = max(worst, err)
        per_param[name] = worst
    graph.recompute()
    return GradCheckReport(per_param, nan_coords, step, tolerance)
