"""Reverse-mode automatic differentiation over numpy arrays.

A :class:`Graph` is a tape of :class:`Tensor` nodes recorded in creation
order, which makes the graph acyclic with every node's inputs preceding it.
Each non-leaf node stores a pure recompute function of its input arrays and
a backward function, so a finalized graph supports three things:

* ``backward(loss)``  -- reverse accumulation of d(loss)/d(parameter),
* ``recompute()``     -- re-run the forward pass from current leaf values,
* ``grad_check(...)`` -- central finite differences against the analytic
  gradients (64-bit graphs only; 32-bit differences are too noisy).

The ops are the layers the models need, each one node with a hand-written
backward rule (:func:`lookup`, :func:`linear`, :func:`conv_max_pool`,
:func:`attention_pool`, :func:`concat`, :func:`dropout`,
:func:`cross_entropy`; the GRU's ``gru_sequence`` lives in ``gru.py``),
plus :func:`add`, :func:`mul`, :func:`scale` and :func:`sum_all` for the
l2 penalty.

Values and most gradients are dense arrays. The gradient of a table read
only through :func:`lookup` is a :class:`RowSparseGrad` holding just the
gathered rows, so a document's backward pass never allocates a table-sized
array. Tensors refer to their graph weakly: the graph owns its nodes, and a
dropped graph is freed at once by reference counting.

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
        """Add the stored rows into ``out``: an array, or a RowSparseGrad with all of them."""
        if isinstance(out, RowSparseGrad):
            inside = np.isin(self.indices, out.indices)
            if not inside.all():
                raise UsageError(f"gradient rows {self.indices[~inside][:5].tolist()} lie "
                                 f"outside the {len(out.indices)} rows being accumulated")
            np.add.at(out.values, np.searchsorted(out.indices, self.indices), self.values)
        else:
            np.add.at(out, self.indices, self.values)
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
        not depend on get zero arrays. A parameter reached only through
        :func:`lookup` gets a :class:`RowSparseGrad` of the rows it gathered;
        every other gradient is a dense array. Only nodes some parameter
        feeds run their backward rule and receive gradients; the ``grad`` of
        every other node (constants, frozen tables, dropout masks) stays
        None. Raises :class:`NumericError` on the first non-finite gradient,
        naming the node that produced it.
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
        sparse: dict[int, list[RowSparseGrad]] = {}
        for node in reversed(tape):
            parts = sparse.pop(node.index, None)
            if parts is not None:
                node.grad = _merge_sparse(node.grad, parts, dense=node._bwd is not None)
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
                if row_sparse:
                    sparse.setdefault(parent.index, []).append(g)
                elif parent.grad is None:
                    parent.grad = g.copy() if g.base is not None else g
                else:
                    parent.grad = parent.grad + g
        out = {}
        for name, p in self.params.items():
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
            out[name] = p.grad
        return out


def _merge_sparse(grad, parts: list[RowSparseGrad], dense: bool):
    """One gradient from a node's row-sparse parts plus its dense gradient
    (or None). Rows sharing an index add in the order the parts arrived;
    the result stays row-sparse unless it joins a dense gradient or feeds a
    backward rule (``dense``)."""
    if len(parts) == 1:
        merged = parts[0]
    else:
        merged = RowSparseGrad.summed(np.concatenate([p.indices for p in parts]),
                                      np.concatenate([p.values for p in parts]),
                                      parts[0].shape)
    if grad is not None:
        return merged.add_to(np.array(grad))
    return np.asarray(merged) if dense else merged


def _record(op, inputs, fwd, bwd, name=None) -> Tensor:
    graph = inputs[0].graph
    for t in inputs[1:]:
        if t.graph is not graph:
            raise UsageError(f"operands of {op} belong to different graphs")
    data = fwd(*[t.data for t in inputs])
    return Tensor(graph, data, op=op, inputs=tuple(inputs), fwd=fwd, bwd=bwd, name=name)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    def fwd(x, y):
        return x + y

    def bwd(g, out, x, y):
        return _unbroadcast(g, x.shape), _unbroadcast(g, y.shape)

    return _record("add", (a, b), fwd, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def fwd(x, y):
        return x * y

    def bwd(g, out, x, y):
        return _unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)

    return _record("mul", (a, b), fwd, bwd)


def scale(a: Tensor, k: float) -> Tensor:
    def fwd(x):
        return x * k

    def bwd(g, out, x):
        return (g * k,)

    return _record("scale", (a,), fwd, bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The dense layer ``x @ w.T + b`` for x (n, k), w (m, k) and b (m,), as
    one node. ``w.T`` enters the products as a C-ordered copy: BLAS rounds
    some shapes differently for a transposed view of ``w``."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1] or b.shape != w.shape[:1]:
        raise DimensionError(f"linear needs x (n, k), w (m, k) and b (m,), "
                             f"got {x.shape}, {w.shape} and {b.shape}")

    def fwd(x, w, b):
        return x @ w.T.copy() + b

    def bwd(g, out, x, w, b):
        return g @ w.T.copy().T, g.T @ x, g.sum(0)

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


def sum_all(a: Tensor) -> Tensor:
    def fwd(x):
        return np.asarray(x.sum(), dtype=x.dtype)

    def bwd(g, out, x):
        return (np.full_like(x, g),)

    return _record("sum_all", (a,), fwd, bwd)


def concat(tensors, axis: int) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise UsageError("concat of zero tensors")
    sizes = [t.shape[axis] for t in tensors]

    def fwd(*xs):
        return np.concatenate(xs, axis=axis)

    def bwd(g, out, *xs):
        pieces = []
        start = 0
        for n in sizes:
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + n)
            pieces.append(g[tuple(sl)])
            start += n
        return tuple(pieces)

    return _record("concat", tensors, fwd, bwd)


def lookup(table: Tensor, indices, pad_index: int | None = 0) -> Tensor:
    """Gather rows of an embedding table.

    The backward pass returns a :class:`RowSparseGrad` of the gathered rows,
    repeated indices summed. Positions holding ``pad_index`` are left out, so
    the padding row is excluded from updates.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError(f"lookup indices must be 1-D, got shape {idx.shape}")
    kept = idx != pad_index if pad_index is not None else np.ones(len(idx), dtype=bool)

    def fwd(tab):
        return tab[idx]

    def bwd(g, out, tab):
        return (RowSparseGrad.summed(idx[kept], g[kept], tab.shape),)

    return _record("lookup", (table,), fwd, bwd)


def conv_max_pool(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Text convolution, ReLU and max-over-time pooling as one (1, F) node:
    ``out[f]`` is the largest ``relu(window @ w[f] + b[f])`` over the
    windows of ``width`` consecutive rows of x (T, d), for w (F, width * d)
    and b (F,).

    The gradient goes to each filter's first maximal window, which keeps
    backward deterministic under ties, and only where that maximum is
    positive. Only the winning positions are saved (``Graph.recompute``
    refreshes them), and the backward pass multiplies only the windows
    some filter won by ``w``; ``w`` enters the products as in
    :func:`linear`.
    """
    if (x.ndim != 2 or w.ndim != 2 or b.shape != w.shape[:1] or not x.shape[1]
            or not w.shape[1] or w.shape[1] % x.shape[1]):
        raise DimensionError(f"conv_max_pool needs x (T, d), w (F, width * d) and b (F,), "
                             f"got {x.shape}, {w.shape} and {b.shape}")
    (steps, dim), width = x.shape, w.shape[1] // x.shape[1]
    if steps < width:
        raise DimensionError(f"sequence of length {steps} shorter than window {width}")
    positions = steps - width + 1
    cols = np.arange(w.shape[0])
    saved = {}

    def windows(x):  # row i is x[i : i + width] flattened, a view
        return np.lib.stride_tricks.sliding_window_view(x, (width, dim)).reshape(positions, -1)

    def fwd(x, w, b):
        act = np.maximum(windows(x).copy() @ w.T.copy() + b, 0.0)
        saved["winners"] = winners = np.argmax(act, axis=0)
        return act[winners, cols][None]

    def bwd(g, out, x, w, b):
        winners = saved["winners"]
        gp = g[0] * (out[0] > 0)
        rows, slot = np.unique(winners, return_inverse=True)  # every other window's gradient is 0
        g_act = np.zeros((len(rows), len(cols)), dtype=g.dtype)
        g_act[slot, cols] = gp
        g_win = g_act @ w.T.copy().T
        dx = np.zeros_like(x)
        # offsets from width-1 down to 0: each row adds its windows in position order
        for j in range(width - 1, -1, -1):
            dx[rows + j] += g_win[:, j * dim : (j + 1) * dim]
        return dx, gp[:, None] * windows(x)[winners], gp

    return _record("conv_max_pool", (x, w, b), fwd, bwd)


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
    exactly 0. ``w`` enters the products as in :func:`linear`.
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
        hidden = np.tanh(x @ w.T.copy() + b)
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
        return (g_summed.reshape(n_rows, rep) + g_pre @ w.T.copy().T, g_pre.T @ x,
                g_pre.sum(0), (hidden.T @ g_scores).reshape(m))

    node = _record("attention_pool", (states, w, b, u), fwd, bwd)
    return node, saved["alpha"]


def dropout(a: Tensor, rate: float, mode: str, rng=None) -> Tensor:
    """Inverted dropout: zero entries with probability ``rate`` and scale
    survivors by 1/(1-rate) in train mode; identity in eval mode.

    The sampled mask is frozen into the graph as a constant so recomputing
    (for gradient checks) reuses it.
    """
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise UsageError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or rate == 0.0:
        return a
    if rng is None:
        raise UsageError("dropout in train mode needs an rng")
    keep = (rng.random(a.shape) >= rate).astype(a.graph.dtype.type)
    mask = a.graph.constant(keep / (1.0 - rate), name="dropout_mask")
    return mul(a, mask)


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
