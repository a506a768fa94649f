"""Gated recurrent unit: the cell's parameters and a whole-sequence op.

Gate convention, fixed so that checkpoints are unambiguous:

    z = sigmoid(W_z x + U_z h_prev + b_z)
    r = sigmoid(W_r x + U_r h_prev + b_r)
    h~ = tanh(W_h x + U_h (r * h_prev) + b_h)
    h  = (1 - z) * h_prev + z * h~

so forcing z to 0 returns h_prev exactly and forcing z to 1 returns h~.

:func:`gru_sequence` runs the cell over a batch of padded sequences as one
tape node with a hand-written backpropagation-through-time rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DimensionError


@dataclass
class GruParams:
    """The nine parameter blocks of one GRU cell.

    Input-to-hidden matrices are (hidden_dim, input_dim), hidden-to-hidden
    are (hidden_dim, hidden_dim), biases are (hidden_dim,).
    """

    w_z: np.ndarray
    w_r: np.ndarray
    w_h: np.ndarray
    u_z: np.ndarray
    u_r: np.ndarray
    u_h: np.ndarray
    b_z: np.ndarray
    b_r: np.ndarray
    b_h: np.ndarray

    @property
    def hidden_dim(self) -> int:
        return self.w_z.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_z.shape[1]

    @classmethod
    def random(cls, input_dim: int, hidden_dim: int, rng, scale: float = 0.1):
        """Uniform [-scale, scale] initialization for all nine blocks."""

        def u(*shape):
            return rng.uniform(-scale, scale, size=shape).astype(np.float32)

        return cls(
            w_z=u(hidden_dim, input_dim),
            w_r=u(hidden_dim, input_dim),
            w_h=u(hidden_dim, input_dim),
            u_z=u(hidden_dim, hidden_dim),
            u_r=u(hidden_dim, hidden_dim),
            u_h=u(hidden_dim, hidden_dim),
            b_z=u(hidden_dim),
            b_r=u(hidden_dim),
            b_h=u(hidden_dim),
        )

    def named_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        return {
            f"{prefix}.w_z": self.w_z,
            f"{prefix}.w_r": self.w_r,
            f"{prefix}.w_h": self.w_h,
            f"{prefix}.u_z": self.u_z,
            f"{prefix}.u_r": self.u_r,
            f"{prefix}.u_h": self.u_h,
            f"{prefix}.b_z": self.b_z,
            f"{prefix}.b_r": self.b_r,
            f"{prefix}.b_h": self.b_h,
        }

    def register(self, graph: ad.Graph, prefix: str) -> tuple[ad.Tensor, ...]:
        """The nine blocks as parameters of ``graph``, in ``named_arrays``
        order; this tuple is the ``cell`` of :func:`gru_sequence`."""
        return tuple(graph.parameter(name, arr)
                     for name, arr in self.named_arrays(prefix).items())


def gru_sequence(x: ad.Tensor, cell, n_rows: int, mask=None, reverse: bool = False) -> ad.Tensor:
    """The GRU state after every step of ``n_rows`` sequences, from a zero
    initial state, as one tape node.

    ``x`` is (n_rows * T, input_dim) with row ``i * T + t`` holding step t
    of sequence i; the result is (n_rows * T, hidden_dim) in the same row
    order. ``cell`` is the tuple :meth:`GruParams.register` returns.
    ``mask`` is an optional (n_rows, T) 0/1 array: a step whose mask is 0
    keeps the previous state. ``reverse`` runs each sequence from step T-1
    down to step 0.

    The backward pass is backpropagation through time over the gates the
    forward pass saved (``Graph.recompute`` re-runs the forward pass, so
    they always match the current inputs); each weight gradient is one
    matmul over the stacked per-step gate gradients.
    """
    hidden, input_dim = cell[0].shape
    if x.ndim != 2 or x.shape[1] != input_dim:
        raise DimensionError(f"gru_sequence input {x.shape} does not match the cell's "
                             f"input_dim {input_dim}")
    if n_rows < 1 or x.shape[0] % n_rows:
        raise DimensionError(f"gru_sequence input of {x.shape[0]} rows is not "
                             f"{n_rows} sequences of equal length")
    steps = x.shape[0] // n_rows
    keep = np.ones((n_rows, steps), dtype=bool) if mask is None else np.asarray(mask) != 0
    if keep.shape != (n_rows, steps):
        raise DimensionError(f"gru_sequence mask {keep.shape} != ({n_rows}, {steps})")
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    saved = {}

    def fwd(x, w_z, w_r, w_h, u_z, u_r, u_h, b_z, b_r, b_h):
        ax = (x @ np.concatenate((w_z, w_r, w_h)).T).reshape(n_rows, steps, 3, hidden)
        u_zr, b_zr = np.concatenate((u_z, u_r)).T, np.stack((b_z, b_r))
        # per step: the state before it, the gates z and r, the candidate, the state after it
        saved["acts"] = acts = np.empty((5, n_rows, steps, hidden), x.dtype)
        prev, z, r, cand, out = acts
        h = np.zeros((n_rows, hidden), dtype=x.dtype)
        for t in order:
            a = ax[:, t]
            # z and r in one sigmoid call over their (n_rows, 2, hidden) pre-activations
            pre_zr = a[:, :2] + (h @ u_zr).reshape(n_rows, 2, hidden) + b_zr
            acts[1:3, :, t] = ad.stable_sigmoid(pre_zr).transpose(1, 0, 2)
            cand[:, t] = np.tanh(a[:, 2] + (r[:, t] * h) @ u_h.T + b_h)
            prev[:, t] = h
            h = np.where(keep[:, t, None], (1 - z[:, t]) * h + z[:, t] * cand[:, t], h)
            out[:, t] = h
        return out.reshape(n_rows * steps, hidden)

    def bwd(g, out, x, w_z, w_r, w_h, u_z, u_r, u_h, b_z, b_r, b_h):
        prev, z, r, cand, _ = saved["acts"]
        g = g.reshape(n_rows, steps, hidden)
        u_zr = np.concatenate((u_z, u_r))
        # gradients of the z, r and candidate pre-activations
        d_pre = np.empty((3, n_rows, steps, hidden), dtype=g.dtype)
        dh = np.zeros((n_rows, hidden), dtype=g.dtype)
        for t in reversed(order):
            dh = dh + g[:, t]
            zt, rt, ct, hp = z[:, t], r[:, t], cand[:, t], prev[:, t]
            dz = dh * (ct - hp) * zt * (1 - zt)
            dc = dh * zt * (1 - ct * ct)
            d_rh = dc @ u_h
            dr = d_rh * hp * rt * (1 - rt)
            m = keep[:, t, None]
            d_pre[:, :, t] = np.where(m, (dz, dr, dc), 0)
            dh = np.where(m, dh * (1 - zt) + d_rh * rt + np.concatenate((dz, dr), 1) @ u_zr, dh)
        dz, dr, dc = d_pre.reshape(3, n_rows * steps, hidden)
        prev = prev.reshape(n_rows * steps, hidden)
        rh = r.reshape(n_rows * steps, hidden) * prev
        return (dz @ w_z + dr @ w_r + dc @ w_h, dz.T @ x, dr.T @ x, dc.T @ x,
                dz.T @ prev, dr.T @ prev, dc.T @ rh, dz.sum(0), dr.sum(0), dc.sum(0))

    return ad._record("gru_sequence", (x, *cell), fwd, bwd)
