"""Bidirectional gated recurrent unit: a layer's parameter draw and a
whole-sequence op.

Gate convention, fixed so that checkpoints are unambiguous:

    z = sigmoid(W_z x + U_z h_prev + b_z)
    r = sigmoid(W_r x + U_r h_prev + b_r)
    h~ = tanh(W_h x + U_h (r * h_prev) + b_h)
    h  = (1 - z) * h_prev + z * h~

so forcing z to 0 returns h_prev exactly and forcing z to 1 returns h~.

:func:`gru_sequence` runs both directions of the layer over a batch of
padded sequences as one tape node with a hand-written
backpropagation-through-time rule.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import DimensionError


def gru_arrays(input_dim: int, hidden_dim: int, rng, scale: float = 0.1):
    """Both directions of one GRU layer as three arrays ``(w, u, b)``, drawn
    uniform in [-scale, scale] one direction at a time as w, then u, then b.

    Each array is stacked first by direction (0 reads a sequence forward,
    1 backward), then by gate in z, r, h order: ``w`` is
    (2, 3 * hidden_dim, input_dim), ``u`` is (2, 3 * hidden_dim, hidden_dim)
    and ``b`` is (2, 3 * hidden_dim). ``w[d, :hidden_dim]`` is direction d's
    W_z, ``b[d, 2 * hidden_dim:]`` its b_h.
    """
    gates = 3 * hidden_dim
    draws = [[rng.uniform(-scale, scale, size=shape).astype(np.float32)
              for shape in ((gates, input_dim), (gates, hidden_dim), (gates,))]
             for _direction in range(2)]
    return tuple(np.stack(arrays) for arrays in zip(*draws))


def gru_sequence(x: ad.Tensor, cell, n_rows: int, mask=None) -> ad.Tensor:
    """The forward and backward GRU states at every step of ``n_rows``
    sequences, each direction from a zero initial state, as one tape node.

    ``x`` is (n_rows * T, input_dim) with row ``i * T + t`` holding step t
    of sequence i; the result is (n_rows * T, 2 * hidden_dim) in the same
    row order, direction 0's state (after reading steps 0..t) then
    direction 1's (after reading steps T-1..t). ``cell`` is the graph's
    (w, u, b) tensors, shaped as :func:`gru_arrays` draws them. ``mask`` is
    an optional (n_rows, T) 0/1 array: a step whose mask is 0 keeps the
    previous state.

    Both directions run in one step loop: direction 1's gate inputs are
    flipped into its reading order once on the way in, and its states and
    gate gradients are flipped back once, so every weight product sums its
    rows in step order. The backward pass is backpropagation through time
    over the gates the forward pass saved (``Graph.recompute`` re-runs the
    forward pass, so they always match the current inputs); each weight
    gradient is one stacked matmul over the per-step gate gradients.
    """
    _, gates, input_dim = cell[0].shape
    hidden = gates // 3
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
    # (direction, sequence, step in reading order, 1)
    keep = np.stack((keep, keep[:, ::-1]))[..., None]
    saved = {}

    def fwd(x, w, u, b):
        ax = (x @ w.transpose(0, 2, 1)).reshape(2, n_rows, steps, 3, hidden)
        ax[1] = ax[1, :, ::-1]
        u_zr, u_h = u[:, : 2 * hidden].transpose(0, 2, 1), u[:, 2 * hidden :].transpose(0, 2, 1)
        b_zr, b_h = b.reshape(2, 1, 3, hidden)[:, :, :2], b[:, None, 2 * hidden :]
        # per direction and reading step: the state before it, the gates z
        # and r, the candidate, the state after it
        saved["acts"] = acts = np.empty((5, 2, n_rows, steps, hidden), x.dtype)
        prev, z, r, cand, out = acts
        h = np.zeros((2, n_rows, hidden), dtype=x.dtype)
        for t in range(steps):
            a = ax[:, :, t]
            # z and r in one sigmoid call over their (2, n_rows, 2, hidden) pre-activations
            pre_zr = a[:, :, :2] + (h @ u_zr).reshape(2, n_rows, 2, hidden) + b_zr
            acts[1:3, :, :, t] = ad.stable_sigmoid(pre_zr).transpose(2, 0, 1, 3)
            cand[:, :, t] = np.tanh(a[:, :, 2] + (r[:, :, t] * h) @ u_h + b_h)
            prev[:, :, t] = h
            h = np.where(keep[:, :, t], (1 - z[:, :, t]) * h + z[:, :, t] * cand[:, :, t], h)
            out[:, :, t] = h
        return np.concatenate((out[0], out[1, :, ::-1]), axis=2).reshape(n_rows * steps,
                                                                          2 * hidden)

    def bwd(g, out, x, w, u, b):
        prev, z, r, cand, _ = saved["acts"]
        g = g.reshape(n_rows, steps, 2, hidden)
        g = np.stack((g[:, :, 0], g[:, ::-1, 1]))
        u_zr, u_h = u[:, : 2 * hidden], u[:, 2 * hidden :]
        # gradients of the z, r and candidate pre-activations, by direction and gate
        d_pre = np.empty((2, 3, n_rows, steps, hidden), dtype=g.dtype)
        dh = np.zeros((2, n_rows, hidden), dtype=g.dtype)
        for t in reversed(range(steps)):
            dh = dh + g[:, :, t]
            zt, rt, ct, hp = z[:, :, t], r[:, :, t], cand[:, :, t], prev[:, :, t]
            dz = dh * (ct - hp) * zt * (1 - zt)
            dc = dh * zt * (1 - ct * ct)
            d_rh = dc @ u_h
            dr = d_rh * hp * rt * (1 - rt)
            m = keep[:, :, t]
            d_pre.swapaxes(0, 1)[:, :, :, t] = np.where(m, (dz, dr, dc), 0)
            dh = np.where(m, dh * (1 - zt) + d_rh * rt + np.concatenate((dz, dr), 2) @ u_zr, dh)
        # back to step order
        d_pre[1] = d_pre[1, :, :, ::-1]
        prev, r = (np.stack((a[0], a[1, :, ::-1])).reshape(2, n_rows * steps, hidden)
                   for a in (prev, r))
        d_pre = d_pre.reshape(2, 3, n_rows * steps, hidden)
        d_pre_t = d_pre.swapaxes(2, 3)
        # one product over the three gates per direction: (2, N, 3h) @ (2, 3h, in)
        dx = d_pre.transpose(0, 2, 1, 3).reshape(2, n_rows * steps, gates) @ w
        return (dx[0] + dx[1], (d_pre_t @ x).reshape(w.shape),
                (d_pre_t @ np.stack((prev, prev, r * prev), 1)).reshape(u.shape),
                d_pre.sum(2).reshape(b.shape))

    return ad._record("gru_sequence", (x, *cell), fwd, bwd)
