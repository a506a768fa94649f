"""Gated recurrent unit cell built from autodiff primitives.

Gate convention, fixed so that checkpoints are unambiguous:

    z = sigmoid(W_z x + U_z h_prev + b_z)
    r = sigmoid(W_r x + U_r h_prev + b_r)
    h~ = tanh(W_h x + U_h (r * h_prev) + b_h)
    h  = (1 - z) * h_prev + z * h~

so forcing z to 0 returns h_prev exactly and forcing z to 1 returns h~.
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


class BoundGru:
    """A GRU cell's parameters registered in one graph.

    Weight matrices are transposed once at bind time so each step is plain
    row-matrix matmuls; the transpose nodes are shared by all steps.
    """

    def __init__(self, graph: ad.Graph, prefix: str, params: GruParams):
        self.input_dim = params.input_dim
        self.hidden_dim = params.hidden_dim
        reg = {}
        for name, arr in params.named_arrays(prefix).items():
            reg[name.rsplit(".", 1)[1]] = graph.parameter(name, arr)
        self.w_z_t = ad.transpose(reg["w_z"])
        self.w_r_t = ad.transpose(reg["w_r"])
        self.w_h_t = ad.transpose(reg["w_h"])
        self.u_z_t = ad.transpose(reg["u_z"])
        self.u_r_t = ad.transpose(reg["u_r"])
        self.u_h_t = ad.transpose(reg["u_h"])
        self.b_z = reg["b_z"]
        self.b_r = reg["b_r"]
        self.b_h = reg["b_h"]


def gru_step(x: ad.Tensor, h_prev: ad.Tensor, cell: BoundGru, mask: ad.Tensor | None = None) -> ad.Tensor:
    """One GRU update for a batch of row vectors (or single 1-D vectors).

    ``mask`` is an optional (n, 1) 0/1 tensor: rows with mask 0 keep
    h_prev unchanged, which is how padded timesteps are skipped.
    """
    squeeze = x.ndim == 1
    if squeeze:
        x = ad.reshape(x, (1, x.shape[0]))
        if h_prev.ndim == 1:
            h_prev = ad.reshape(h_prev, (1, h_prev.shape[0]))
    if x.shape[1] != cell.input_dim:
        raise DimensionError(f"gru_step input width {x.shape[1]} != cell input_dim {cell.input_dim}")
    if h_prev.shape[1] != cell.hidden_dim:
        raise DimensionError(
            f"gru_step hidden width {h_prev.shape[1]} != cell hidden_dim {cell.hidden_dim}"
        )
    if h_prev.shape[0] != x.shape[0]:
        raise DimensionError(f"gru_step batch mismatch: x {x.shape} vs h_prev {h_prev.shape}")

    z = ad.sigmoid(ad.add(ad.add(ad.matmul(x, cell.w_z_t), ad.matmul(h_prev, cell.u_z_t)), cell.b_z))
    r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, cell.w_r_t), ad.matmul(h_prev, cell.u_r_t)), cell.b_r))
    h_cand = ad.tanh(
        ad.add(ad.add(ad.matmul(x, cell.w_h_t), ad.matmul(ad.mul(r, h_prev), cell.u_h_t)), cell.b_h)
    )
    one = x.graph.constant(1.0)
    h_new = ad.add(ad.mul(ad.sub(one, z), h_prev), ad.mul(z, h_cand))
    if mask is not None:
        h_new = ad.add(ad.mul(mask, h_new), ad.mul(ad.sub(one, mask), h_prev))
    if squeeze:
        h_new = ad.reshape(h_new, (h_new.shape[1],))
    return h_new
