"""Reverse-mode automatic differentiation over numpy arrays.

A :class:`Graph` is a tape of :class:`Tensor` nodes recorded in creation
order, which makes the graph acyclic with every node's inputs preceding it.
Each non-leaf node stores a pure recompute function of its input arrays and
a backward function, so a finalized graph supports three things:

* ``backward(loss)``  -- reverse accumulation of d(loss)/d(parameter),
* ``recompute()``     -- re-run the forward pass from current leaf values,
* ``grad_check(...)`` -- central finite differences against the analytic
  gradients (64-bit graphs only; 32-bit differences are too noisy).

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
    out = np.empty_like(x, dtype=x.dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def stable_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis with max-subtraction for stability."""
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=-1, keepdims=True)


class RowSparseGrad:
    """Gradient of a table touched only in some rows: row ``indices[k]`` of
    the gradient is ``values[k]``, every other row is zero.

    ``indices`` are unique and sorted. ``np.asarray`` densifies, and adding a
    dense array gives a dense sum; other numpy operations are refused so
    that nothing densifies by accident.
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

    def add_to(self, out: np.ndarray) -> np.ndarray:
        """Add the stored rows into the dense array ``out`` in place."""
        np.add.at(out, self.indices, self.values)
        return out

    def __array__(self, dtype=None, copy=None):
        dense = self.add_to(np.zeros(self.shape, dtype=self.values.dtype))
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def __add__(self, other):
        return self.add_to(np.array(other))

    __radd__ = __add__


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

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    def __rmul__(self, other):
        return scale(self, float(other))

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


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
        every other gradient is a dense array. Raises :class:`NumericError`
        on the first non-finite gradient, naming the node that produced it.
        """
        if loss.graph is not self:
            raise UsageError("loss node belongs to a different graph")
        if loss.data.size != 1:
            raise UsageError(f"loss must be scalar, got shape {loss.data.shape}")
        if not np.all(np.isfinite(loss.data)):
            raise NumericError(f"loss value is non-finite at node {loss!r}")
        for node in self.nodes:
            node.grad = None
        loss.grad = np.ones_like(loss.data)
        sparse: dict[int, list[RowSparseGrad]] = {}
        for node in reversed(self.nodes[: loss.index + 1]):
            parts = sparse.pop(node.index, None)
            if parts is not None:
                node.grad = _merge_sparse(node.grad, parts, dense=node._bwd is not None)
            if node.grad is None or node._bwd is None:
                continue
            in_grads = node._bwd(node.grad, node.data, *[t.data for t in node.inputs])
            for parent, g in zip(node.inputs, in_grads):
                if g is None:
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
        return merged + grad
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


def _coerce(a, b):
    if not isinstance(b, Tensor):
        b = a.graph.constant(b)
    return b


def add(a: Tensor, b) -> Tensor:
    b = _coerce(a, b)

    def fwd(x, y):
        return x + y

    def bwd(g, out, x, y):
        return _unbroadcast(g, x.shape), _unbroadcast(g, y.shape)

    return _record("add", (a, b), fwd, bwd)


def sub(a: Tensor, b) -> Tensor:
    b = _coerce(a, b)

    def fwd(x, y):
        return x - y

    def bwd(g, out, x, y):
        return _unbroadcast(g, x.shape), _unbroadcast(-g, y.shape)

    return _record("sub", (a, b), fwd, bwd)


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")

    def fwd(x, y):
        return x @ y

    def bwd(g, out, x, y):
        return g @ y.T, x.T @ g

    return _record("matmul", (a, b), fwd, bwd)


def transpose(a: Tensor) -> Tensor:
    def fwd(x):
        return x.T.copy()

    def bwd(g, out, x):
        return (g.T.copy(),)

    return _record("transpose", (a,), fwd, bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def fwd(x):
        return x.reshape(shape)

    def bwd(g, out, x):
        return (g.reshape(x.shape),)

    return _record("reshape", (a,), fwd, bwd)


def sigmoid(a: Tensor) -> Tensor:
    def fwd(x):
        return stable_sigmoid(x)

    def bwd(g, out, x):
        return (g * out * (1.0 - out),)

    return _record("sigmoid", (a,), fwd, bwd)


def tanh(a: Tensor) -> Tensor:
    def fwd(x):
        return np.tanh(x)

    def bwd(g, out, x):
        return (g * (1.0 - out * out),)

    return _record("tanh", (a,), fwd, bwd)


def relu(a: Tensor) -> Tensor:
    def fwd(x):
        return np.maximum(x, 0.0)

    def bwd(g, out, x):
        return (g * (x > 0),)

    return _record("relu", (a,), fwd, bwd)


def log(a: Tensor) -> Tensor:
    def fwd(x):
        return np.log(x)

    def bwd(g, out, x):
        return (g / x,)

    return _record("log", (a,), fwd, bwd)


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis (1-D vector or row-wise for 2-D)."""
    if a.data.size == 0 or a.shape[-1] == 0:
        raise DomainError("softmax of an empty vector")

    def fwd(x):
        return stable_softmax(x)

    def bwd(g, out, x):
        dot = np.sum(g * out, axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _record("softmax", (a,), fwd, bwd)


def log_softmax(a: Tensor) -> Tensor:
    if a.data.size == 0 or a.shape[-1] == 0:
        raise DomainError("log_softmax of an empty vector")

    def fwd(x):
        m = np.max(x, axis=-1, keepdims=True)
        shifted = x - m
        return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))

    def bwd(g, out, x):
        return (g - np.exp(out) * np.sum(g, axis=-1, keepdims=True),)

    return _record("log_softmax", (a,), fwd, bwd)


def sum_all(a: Tensor) -> Tensor:
    def fwd(x):
        return np.asarray(x.sum(), dtype=x.dtype)

    def bwd(g, out, x):
        return (np.full_like(x, g),)

    return _record("sum_all", (a,), fwd, bwd)


def max_over_rows(a: Tensor) -> Tensor:
    """Column-wise maximum of a 2-D array, kept as a 1 x n row.

    The gradient is routed to the first maximal row of each column, which
    keeps backward deterministic under ties.
    """
    if a.ndim != 2:
        raise DimensionError(f"max_over_rows needs a 2-D input, got {a.shape}")

    def fwd(x):
        return x.max(axis=0, keepdims=True)

    def bwd(g, out, x):
        winners = np.argmax(x, axis=0)
        gi = np.zeros_like(x)
        gi[winners, np.arange(x.shape[1])] = g[0]
        return (gi,)

    return _record("max_over_rows", (a,), fwd, bwd)


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


def row(a: Tensor, i: int) -> Tensor:
    def fwd(x):
        return x[i : i + 1, :].copy()

    def bwd(g, out, x):
        gi = np.zeros_like(x)
        gi[i : i + 1, :] = g
        return (gi,)

    return _record("row", (a,), fwd, bwd)


def col(a: Tensor, j: int) -> Tensor:
    def fwd(x):
        return x[:, j : j + 1].copy()

    def bwd(g, out, x):
        gi = np.zeros_like(x)
        gi[:, j : j + 1] = g
        return (gi,)

    return _record("col", (a,), fwd, bwd)


def element(a: Tensor, i: int, j: int) -> Tensor:
    """Scalar pick out of a 2-D node (used for the log-likelihood of the
    target class)."""

    def fwd(x):
        return np.asarray(x[i, j], dtype=x.dtype)

    def bwd(g, out, x):
        gi = np.zeros_like(x)
        gi[i, j] = g
        return (gi,)

    return _record("element", (a,), fwd, bwd)


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


def windows(a: Tensor, width: int) -> Tensor:
    """All contiguous row-windows of a 2-D array, flattened per position.

    A (T, d) input yields (T - width + 1, width * d); row i is
    ``a[i : i + width]`` flattened. This is the im2col step of the text
    convolution.
    """
    if a.ndim != 2:
        raise DimensionError(f"windows needs a 2-D input, got {a.shape}")
    T, d = a.shape
    if T < width:
        raise DimensionError(f"sequence of length {T} shorter than window {width}")

    def fwd(x):
        view = np.lib.stride_tricks.sliding_window_view(x, (width, x.shape[1]))
        return view.reshape(x.shape[0] - width + 1, width * x.shape[1]).copy()

    def bwd(g, out, x):
        gi = np.zeros_like(x)
        cols = x.shape[1]
        for i in range(g.shape[0]):
            gi[i : i + width] += g[i].reshape(width, cols)
        return (gi,)

    return _record("windows", (a,), fwd, bwd)


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
