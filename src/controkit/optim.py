"""Adam optimizer on named parameter dictionaries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError


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


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState):
    """One bias-corrected Adam update, applied in place.

    Moments for parameters not seen before start at zero. Deterministic
    given (params, grads, state). Returns (params, state) for convenience.
    The update is ``p -= lr * m_hat / (sqrt(v_hat) + eps)`` computed with
    the same operations in the same order, but in place through two
    parameter-sized scratch buffers, so the result is bit-identical to that
    expression.
    """
    for name, p in params.items():
        if name not in grads:
            raise DimensionError(f"no gradient supplied for parameter {name!r}")
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match parameter {name!r} shape {p.shape}"
            )
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    correct1 = 1.0 - b1**t
    correct2 = 1.0 - b2**t
    for name, p in params.items():
        g = grads[name].astype(p.dtype, copy=False)
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p)
            state.m[name] = m
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        step = np.multiply(g, 1.0 - b1, out=np.empty_like(p))
        m *= b1
        m += step
        denom = np.multiply(g, g, out=np.empty_like(p))
        denom *= 1.0 - b2
        v *= b2
        v += denom
        np.divide(m, correct1, out=step)       # m_hat
        step *= state.lr
        np.divide(v, correct2, out=denom)      # v_hat
        np.sqrt(denom, out=denom)
        denom += state.eps
        step /= denom
        p -= step
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
