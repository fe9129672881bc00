"""Attention-weight normalizers.

The standard softmax forces every causal row to a probability
distribution, so mass lands somewhere even when nothing is relevant. The
rectified-offset variants here relax that: weights are softmax plus an
offset, clipped at zero, and are NOT renormalized afterwards, so
irrelevant rows can vanish entirely. The offset tau is unconstrained: with
tau <= 0 every weight is at most its softmax probability and a row sums
to at most 1, while tau > 0 lifts every weight and a row can sum above 1.

Row conventions: a causal row for query index i (1-based) holds the i
scores against keys 1..i. Offset variants:

  elastic_row        relu(softmax(s) + tau / i)   learnable tau per head
  global_offset_row  relu(softmax(s) + tau)       learnable, no 1/i split
  fixed_offset_row   relu(softmax(s) - 1 / i)     constant
  sparsemax_row      euclidean projection of s onto the simplex
"""

from __future__ import annotations

import enum

import numpy as np

from .core import Tensor, record_op


class NormalizerMode(enum.Enum):
    """Which row normalizer a run uses; recorded in run metadata."""

    SOFTMAX = "softmax"
    SPARSEMAX = "sparsemax"
    ELASTIC_GLOBAL = "elastic_global"
    ELASTIC_PER_QUERY = "elastic"
    FIXED_PER_QUERY = "fixed"
    # room kept for an entmax variant; intentionally not implemented

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
    def offset_kind(self) -> str:
        """Offset family: 'none', 'per_query', 'global', 'fixed', or 'sparsemax'."""
        return {
            NormalizerMode.SOFTMAX: "none",
            NormalizerMode.SPARSEMAX: "sparsemax",
            NormalizerMode.ELASTIC_GLOBAL: "global",
            NormalizerMode.ELASTIC_PER_QUERY: "per_query",
            NormalizerMode.FIXED_PER_QUERY: "fixed",
        }[self]

    @property
    def learns_tau(self) -> bool:
        return self in (NormalizerMode.ELASTIC_GLOBAL, NormalizerMode.ELASTIC_PER_QUERY)


def stable_softmax(scores: np.ndarray) -> np.ndarray:
    """Max-shifted softmax of a 1-D score vector."""
    z = scores - scores.max()
    e = np.exp(z)
    return e / e.sum()


def elastic_row(scores, i: int, tau: float) -> np.ndarray:
    """relu(softmax(scores) + tau / i) for a causal row of length i.

    With uniform scores and tau = -1 the softmax mass 1/i cancels the
    offset exactly and the whole row rectifies to zero; in particular the
    first query (i = 1) gets zero weight on its sole token and its output
    is carried by the residual path alone.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if i < 1:
        raise ValueError("query index i must be >= 1")
    if scores.ndim != 1 or scores.shape[0] != i:
        raise ValueError(f"expected {i} scores for query {i}, got shape {scores.shape}")
    return np.maximum(stable_softmax(scores) + tau / i, 0.0)


def fixed_offset_row(scores, i: int) -> np.ndarray:
    """Constant-offset variant: elastic row with tau frozen at -1."""
    return elastic_row(scores, i, -1.0)


def global_offset_row(scores, tau: float) -> np.ndarray:
    """relu(softmax(scores) + tau); the offset ignores the query index."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.shape[0] < 1:
        raise ValueError("scores must be a non-empty vector")
    return np.maximum(stable_softmax(scores) + tau, 0.0)


def sparsemax_row(scores) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort + threshold).

    Output sums to 1 and supports exact zeros; idempotent under
    re-projection.
    """
    z = np.asarray(scores, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] < 1:
        raise ValueError("scores must be a non-empty vector")
    n = z.shape[0]
    zs = np.sort(z)[::-1]
    css = np.cumsum(zs) - 1.0
    ind = np.arange(1, n + 1)
    support = zs - css / ind > 0
    k = int(ind[support][-1])
    thr = css[k - 1] / k
    return np.maximum(z - thr, 0.0)


def sparsemax_vjp(weights: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Support-restricted Jacobian: grad minus support mean on the support."""
    supp = weights > 0
    ns = supp.sum()
    out = np.zeros_like(g)
    out[supp] = g[supp] - g[supp].sum() / ns
    return out


def elastic_weights(scores: Tensor, tau: Tensor) -> Tensor:
    """Differentiable elastic row over a 1-D score tensor.

    Gradient flows to the scores through the active (unclipped) entries and
    to tau with sensitivity 1/i per active entry.
    """
    if scores.ndim != 1 or scores.size < 1:
        raise ValueError("scores must be a non-empty vector tensor")
    if tau.size != 1:
        raise ValueError("tau must be a scalar tensor")
    i = scores.size
    z = scores.data - scores.data.max()
    e = np.exp(z)
    p = e / e.sum()
    pre = p + tau.data.reshape(()) / i
    w = np.maximum(pre, 0.0)
    out = Tensor(w, requires_grad=scores.requires_grad or tau.requires_grad)
    active = pre > 0

    def vjp(g):
        dpre = g * active
        dtau = np.asarray(dpre.sum() / i, dtype=tau.data.dtype).reshape(tau.shape)
        ds = p * (dpre - (p * dpre).sum())
        return ds, dtau

    return record_op(out, (scores, tau), vjp)


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
        w64 = w.astype(np.float64, copy=False)
        sink_bh = w64[:, :, :, 0].mean(axis=(0, 2))  # (H,)
        dens_bh = w64[:, :, :, 1:].sum(axis=3).mean(axis=(0, 2))
        for head in range(w.shape[1]):
            per_head[(layer, head)] = (100.0 * float(dens_bh[head]), 100.0 * float(sink_bh[head]))
            densities.append(float(dens_bh[head]))
            sinks.append(float(sink_bh[head]))
    return per_head, 100.0 * float(np.mean(densities)), 100.0 * float(np.mean(sinks))
