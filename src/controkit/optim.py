"""Adam optimizer on named parameter dictionaries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, UsageError


@dataclass
class AdamState:
    """Optimizer state: per-parameter moment accumulators and a step count.

    beta1/beta2/eps follow the optimizer's usual defaults; only the learning
    rate is a tuned setting here.
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


_CHUNK = 1 << 16  # slice length: float32 slices of p, g, m, v and two scratch buffers fit in L2


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState):
    """One bias-corrected Adam update, applied in place.

    Moments for parameters not seen before start at zero. Deterministic
    given (params, grads, state). Returns (params, state) for convenience.
    The update is ``p -= lr * m_hat / (sqrt(v_hat) + eps)`` computed with
    the same operations in the same order, so the result is bit-identical
    to that expression, but walks each parameter's flat (C-contiguous) view
    in cache-sized slices through two slice-sized scratch buffers.
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
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    correct1 = 1.0 - b1**t
    correct2 = 1.0 - b2**t
    for name, p in params.items():
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        flat_p, flat_g, flat_m, flat_v = (a.reshape(-1) for a in (p, grads[name], m, state.v[name]))
        scratch = np.empty((2, min(_CHUNK, p.size)), p.dtype)
        for lo in range(0, p.size, _CHUNK):
            hi = min(lo + _CHUNK, p.size)
            g = flat_g[lo:hi].astype(p.dtype, copy=False)
            m, v = flat_m[lo:hi], flat_v[lo:hi]
            step, denom = scratch[:, : hi - lo]
            np.multiply(g, 1.0 - b1, out=step)
            m *= b1
            m += step
            np.multiply(g, g, out=denom)
            denom *= 1.0 - b2
            v *= b2
            v += denom
            np.divide(m, correct1, out=step)       # m_hat
            step *= state.lr
            np.divide(v, correct2, out=denom)      # v_hat
            np.sqrt(denom, out=denom)
            denom += state.eps
            step /= denom
            flat_p[lo:hi] -= step
    return params, state


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their global l2 norm is at most max_norm.

    Off by default in training; exposed as a config knob. Returns the norm
    before clipping.
    """
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm
