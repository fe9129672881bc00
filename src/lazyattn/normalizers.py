"""Attention-weight normalizers.

The standard softmax forces every causal row to a probability
distribution, so mass lands somewhere even when nothing is relevant. The
rectified-offset variants relax that: weights are softmax plus an
offset, clipped at zero, and are NOT renormalized afterwards, so
irrelevant rows can vanish entirely. The offset tau is unconstrained: with
tau <= 0 every weight is at most its softmax probability and a row sums
to at most 1, while tau > 0 lifts every weight and a row can sum above 1.

Row conventions: a causal row for query index i (1-based) holds the i
scores against keys 1..i. The ``NormalizerMode`` values, whose rows the
attention paths compute:

  softmax         softmax(s)
  elastic         relu(softmax(s) + tau / i)   learnable tau per head
  elastic_global  relu(softmax(s) + tau)       learnable, no 1/i split
  sparsemax       euclidean projection of s onto the simplex (``sparsemax``)

Both offset modes add tau / div_i to row i, with div_i = i under
``elastic`` and div_i = 1 under ``elastic_global``; the attention paths
apply and differentiate that one rule.

A constant -1/i offset is ``elastic`` with tau frozen at -1.

Under ``elastic`` with uniform scores and tau = -1 the softmax mass 1/i
cancels the offset exactly and the whole row rectifies to zero; the first
query's output is then carried by the residual path alone.
"""

from __future__ import annotations

import enum

import numpy as np


class NormalizerMode(enum.Enum):
    """Which row normalizer a run uses; recorded in run metadata."""

    SOFTMAX = "softmax"
    SPARSEMAX = "sparsemax"
    ELASTIC_GLOBAL = "elastic_global"
    ELASTIC_PER_QUERY = "elastic"

    @classmethod
    def parse(cls, value) -> "NormalizerMode":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            names = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown normalizer {value!r}; expected one of {names}") from None

    @property
    def learns_tau(self) -> bool:
        return self in (NormalizerMode.ELASTIC_GLOBAL, NormalizerMode.ELASTIC_PER_QUERY)


def sparsemax(scores) -> np.ndarray:
    """Euclidean projection of each row (last axis) onto the simplex (sort + threshold).

    Computed and returned in float64. Rows sum to 1 and support exact
    zeros; ``-inf`` entries (masked keys) come out 0. Idempotent under
    re-projection.
    """
    z = np.asarray(scores, dtype=np.float64)
    if z.ndim < 1 or z.shape[-1] < 1:
        raise ValueError("scores must have a non-empty last axis")
    zs = np.flip(np.sort(z, axis=-1), axis=-1)
    css = np.cumsum(zs, axis=-1) - 1.0
    with np.errstate(invalid="ignore"):  # a masked tail's -inf - -inf is NaN: not support
        k = (zs - css / np.arange(1, z.shape[-1] + 1) > 0).sum(axis=-1, keepdims=True)
    thr = np.take_along_axis(css, k - 1, axis=-1) / k
    return np.maximum(z - thr, 0.0)


def density_and_sink(layer_weights: list[np.ndarray]):
    """Aggregate captured attention weights into density/sink percentages.

    ``layer_weights`` holds one (batch, heads, n, n) causal weight array per
    layer. The sink ratio is the mean weight every query puts on the first
    key; density is the mean total weight on all other keys. Both average
    uniformly over (layer, head, query) and include the first-query rows.
    Returns (per_head, density_pct, sink_pct) with per_head mapping
    (layer, head) -> (density_pct, sink_pct).
    """
    if not layer_weights:
        raise ValueError("density_and_sink: empty capture")
    per_head: dict[tuple[int, int], tuple[float, float]] = {}
    sinks = []
    densities = []
    for layer, w in enumerate(layer_weights):
        if w.ndim != 4 or w.shape[2] != w.shape[3] or w.shape[2] < 1:
            raise ValueError(f"capture for layer {layer} has shape {w.shape}; expected (B, H, n, n)")
        # reduced in float64 without a float64 copy of the whole capture
        sink_bh = w[:, :, :, 0].mean(axis=(0, 2), dtype=np.float64)  # (H,)
        dens_bh = w[:, :, :, 1:].sum(axis=3, dtype=np.float64).mean(axis=(0, 2))
        for head in range(w.shape[1]):
            per_head[(layer, head)] = (100.0 * float(dens_bh[head]), 100.0 * float(sink_bh[head]))
            densities.append(float(dens_bh[head]))
            sinks.append(float(sink_bh[head]))
    return per_head, 100.0 * float(np.mean(densities)), 100.0 * float(np.mean(sinks))
