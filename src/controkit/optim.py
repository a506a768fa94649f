"""Adam optimizer on named parameter dictionaries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, UsageError

# Adam's usual defaults; only the learning rate is a tuned setting here
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Optimizer state: per-parameter moment accumulators and a step count."""

    lr: float = 1e-3
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    rows: dict[str, np.ndarray | None] = field(default_factory=dict)  # None: every row


_CHUNK = 1 << 16  # slice length: float32 slices of p, g, m, v and two scratch buffers fit in L2


def adam_step(params: dict[str, np.ndarray], grads: dict, state: AdamState):
    """One bias-corrected Adam update, applied in place.

    Moments for parameters not seen before start at zero. Deterministic
    given (params, grads, state). Returns (params, state) for convenience.
    The update is ``p -= lr * m_hat / (sqrt(v_hat) + eps)`` computed with
    the same operations in the same order, so the result is bit-identical
    to that expression, but walks each parameter's flat (C-contiguous) view
    in cache-sized slices through two slice-sized scratch buffers. A
    :class:`RowSparseGrad` (the same rows at every step, else ``UsageError``)
    has moments for its rows only, which are gathered (or viewed) from ``p``
    in blocks; any other row's update ``p -= 0 / (0 + eps)`` is a no-op.
    """
    for name, p in params.items():
        if name not in grads:
            raise DimensionError(f"no gradient supplied for parameter {name!r}")
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match parameter {name!r} shape {p.shape}"
            )
        if not p.flags.c_contiguous:
            raise UsageError(f"parameter {name!r} must be C-contiguous to update in place")
        if name in state.m and not np.array_equal(getattr(g, "indices", None), state.rows[name]):
            raise UsageError(f"gradient rows of {name!r} differ from those its moments hold")
    state.step += 1
    t = state.step
    correct1 = 1.0 - BETA1**t
    correct2 = 1.0 - BETA2**t
    for name, p in params.items():
        rows = getattr(grads[name], "indices", None)
        values = getattr(grads[name], "values", grads[name])
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros(values.shape, p.dtype)
            state.v[name] = np.zeros_like(m)
            state.rows[name] = rows
        width = 1 if rows is None else p[0].size  # a row block holds whole rows
        block = max(1, _CHUNK // width) * width
        flat_p, flat_g, flat_m, flat_v = (a.reshape(-1) for a in (p, values, m, state.v[name]))
        scratch = np.empty((2, min(block, values.size)), p.dtype)
        for lo in range(0, values.size, block):
            hi = min(lo + block, values.size)
            start, sel = lo, None if rows is None else rows[lo // width : hi // width]
            if sel is not None and sel[-1] - sel[0] == len(sel) - 1:  # consecutive rows
                start, sel = sel[0] * width, None
            target = flat_p[start : start + hi - lo] if sel is None else p[sel].reshape(-1)
            g = flat_g[lo:hi].astype(p.dtype, copy=False)
            m, v = flat_m[lo:hi], flat_v[lo:hi]
            step, denom = scratch[:, : hi - lo]
            np.multiply(g, 1.0 - BETA1, out=step)
            m *= BETA1
            m += step
            np.multiply(g, g, out=denom)
            denom *= 1.0 - BETA2
            v *= BETA2
            v += denom
            np.divide(m, correct1, out=step)       # m_hat
            step *= state.lr
            np.divide(v, correct2, out=denom)      # v_hat
            np.sqrt(denom, out=denom)
            denom += EPS
            step /= denom
            target -= step
            if sel is not None:
                p[sel] = target.reshape((-1,) + p.shape[1:])
    return params, state

