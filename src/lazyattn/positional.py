"""Position handling for attention scores.

Two complementary mechanisms: dimension-wise rotary embedding (feature
pairs rotated at geometric frequencies) and a head-wise learnable bias
over relative distance, zero beyond a local window. The attention module
turns the bias table into score biases.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import ShapeError, Tensor, record_op


@dataclass(frozen=True)
class RopeConfig:
    """Rotary embedding parameters: frequency base and per-head width."""

    head_dim: int
    base: float = 10000.0

    def __post_init__(self):
        if self.head_dim < 2 or self.head_dim % 2 != 0:
            raise ValueError(f"head_dim must be a positive even integer, got {self.head_dim}")
        if self.base <= 1.0:
            raise ValueError(f"rope base must exceed 1, got {self.base}")


@functools.lru_cache(maxsize=32)
def _rope_rotations(cfg: RopeConfig, dtype: np.dtype, size: int) -> np.ndarray:
    """Read-only (size, head_dim/2) unit complex numbers exp(i * position * frequency).

    The complex dtype pairs two ``dtype`` floats, so a row of feature pairs
    viewed as complex numbers rotates by one elementwise product.
    """
    ks = np.arange(cfg.head_dim // 2, dtype=np.float64)
    freqs = cfg.base ** (-2.0 * ks / cfg.head_dim)
    ang = np.arange(size, dtype=np.float64)[:, None] * freqs[None, :]
    rot = np.empty(ang.shape, dtype=np.result_type(dtype, np.complex64))
    rot.real = np.cos(ang)
    rot.imag = np.sin(ang)
    rot.setflags(write=False)
    return rot


def apply_rope(x: Tensor, positions: np.ndarray, cfg: RopeConfig) -> Tensor:
    """Rotate consecutive feature pairs of each row by its position angle.

    ``x`` is (n, head_dim), or (n, k * head_dim) to rotate several heads at
    once with the same frequencies. Rotations are isometries, so row norms
    are preserved, and query/key dot products end up depending only on the
    position difference.
    """
    positions = np.asarray(positions).reshape(-1)
    if x.ndim != 2 or positions.shape[0] != x.shape[0]:
        raise ShapeError(f"apply_rope: rows {x.shape} vs positions {positions.shape}")
    if x.shape[1] % cfg.head_dim != 0:
        raise ShapeError(f"apply_rope: width {x.shape[1]} is not a multiple of head_dim {cfg.head_dim}")
    if positions.min(initial=0) < 0:
        raise ValueError("apply_rope: positions must be non-negative")
    n = x.shape[0]
    blocks = x.shape[1] // cfg.head_dim
    half = cfg.head_dim // 2
    dtype = x.data.dtype
    # tables cover positions up to the next power of two, so few sizes are ever cached
    table = _rope_rotations(cfg, dtype, 1 << int(positions.max(initial=0)).bit_length())
    rot = table[positions][:, None, :]  # (n, 1, half), shared across head blocks

    def rotate(a: np.ndarray, r: np.ndarray) -> np.ndarray:
        pairs = np.ascontiguousarray(a).view(rot.dtype).reshape(n, blocks, half)
        return (pairs * r).view(dtype).reshape(n, -1)

    out = Tensor(rotate(x.data, rot), requires_grad=x.requires_grad)
    return record_op(out, (x,), lambda g: (rotate(g, rot.conj()),))  # inverse rotation


class BiasTable:
    """Per-layer, per-head learnable bias over relative distance.

    Each layer holds an (n_heads, window + 1) parameter; index 0 is the
    self-distance, and distances beyond the window get a bias of exactly 0
    and carry no gradient. Tables start at zero so the score formula
    degenerates to plain rotary attention until training moves them.
    """

    def __init__(self, n_layers: int, n_heads: int, window: int, dtype="float32"):
        if window < 0:
            raise ValueError("window must be non-negative")
        self.tables = [
            Tensor(np.zeros((n_heads, window + 1)), requires_grad=True, dtype=dtype)
            for _ in range(n_layers)
        ]
