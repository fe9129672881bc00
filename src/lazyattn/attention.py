"""Causal multi-head attention with pluggable row normalizers.

Scores are scaled rotary dot products plus an optional per-head distance
bias (or fixed ALiBi decay). Two execution paths compute the same
function: ``attend_naive`` materializes the full weight matrix and is the
reference, while ``attend_two_pass`` works through tiles of query rows.
A tile's rows see only the keys up to its last row, so one (tile, keys)
score block holds each of its rows whole: a single forward pass over it
gives the rows' softmax max and sum, the offset + rectifier and the
weighted value sum, and only the O(n) row statistics are kept, which
keeps auxiliary memory linear in sequence length for a fixed tile size.
The backward rebuilds each block from those statistics instead of
storing the full matrix.

Both paths read position biases through one helper: a learned table or
the fixed ALiBi decay becomes a distance table, looked up through a
cached distance index per row tile (the naive path's tile is the whole
square), and score gradients fold back through the same index.

Sparsemax needs globally sorted rows, which does not stream; it is
supported on the naive path only.

Tensors enter as flat 2-D arrays: a batch of B length-n sequences is
stacked into (B*n, H*head_dim), grouped internally into (B*H, n, head_dim).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ShapeError, Tensor, matmul, record_op
from .normalizers import NormalizerMode, sparsemax_row, sparsemax_vjp
from .positional import RopeConfig, alibi_slope, apply_rope


@dataclass
class AttentionConfig:
    """Static attention hyperparameters for one model."""

    n_heads: int
    head_dim: int
    positional: str = "rope_bias"  # "rope" | "rope_bias" | "alibi"
    normalizer: NormalizerMode = NormalizerMode.ELASTIC_PER_QUERY
    tile: int = 64
    path: str = "naive"  # "naive" | "two_pass"

    def __post_init__(self):
        self.normalizer = NormalizerMode.parse(self.normalizer)
        if self.n_heads < 1 or self.head_dim < 1:
            raise ValueError("n_heads and head_dim must be positive")
        if self.tile < 1:
            raise ValueError("tile size must be >= 1")
        if self.positional not in ("rope", "rope_bias", "alibi"):
            raise ValueError(f"unknown positional mode {self.positional!r}")
        if self.path not in ("naive", "two_pass"):
            raise ValueError(f"unknown attention path {self.path!r}")
        if self.path == "two_pass" and self.normalizer is NormalizerMode.SPARSEMAX:
            raise ValueError("sparsemax needs globally sorted rows; use the naive path")

    @property
    def d_model(self) -> int:
        return self.n_heads * self.head_dim


class CaptureBuffer:
    """Collects per-layer attention weights (always float32) for diagnostics."""

    def __init__(self):
        self.layers: list[np.ndarray] = []

    def add(self, weights: np.ndarray) -> None:
        self.layers.append(weights.astype(np.float32, copy=False))


class AllocationMeter:
    """Tracks peak auxiliary bytes reported by the tiled attention path."""

    def __init__(self):
        self.peak = 0

    def observe(self, nbytes: int) -> None:
        if nbytes > self.peak:
            self.peak = nbytes


@functools.lru_cache(maxsize=32)
def _lower_mask(n: int) -> np.ndarray:
    m = np.tril(np.ones((n, n), dtype=bool))
    m.setflags(write=False)
    return m


def _row_offsets(mode: NormalizerMode, tau_g: np.ndarray | None, n: int,
                 dtype) -> np.ndarray | None:
    """Per-(group, query) additive offset applied after softmax, or None."""
    if mode is NormalizerMode.ELASTIC_PER_QUERY:
        return tau_g[:, None] / np.arange(1, n + 1, dtype=dtype)[None, :]
    if mode is NormalizerMode.ELASTIC_GLOBAL:
        return np.broadcast_to(tau_g[:, None], (tau_g.shape[0], n)).astype(dtype, copy=False)
    return None


def _split_groups(x: np.ndarray, batch: int, n_heads: int) -> np.ndarray:
    """(B*n, H*dh) -> (B*H, n, dh)."""
    bn, hd = x.shape
    n = bn // batch
    dh = hd // n_heads
    return (
        x.reshape(batch, n, n_heads, dh).transpose(0, 2, 1, 3).reshape(batch * n_heads, n, dh)
    )


def _merge_groups(x3: np.ndarray, batch: int, n_heads: int) -> np.ndarray:
    """(B*H, n, dh) -> (B*n, H*dh)."""
    g, n, dh = x3.shape
    return (
        x3.reshape(batch, n_heads, n, dh).transpose(0, 2, 1, 3).reshape(batch * n, n_heads * dh)
    )


def _check_qkv(q: Tensor, k: Tensor, v: Tensor, config: AttentionConfig, batch: int) -> int:
    if q.shape != k.shape or q.shape != v.shape:
        raise ShapeError("q, k, v must share a shape")
    if q.ndim != 2 or q.shape[1] != config.d_model:
        raise ShapeError(f"expected (rows, {config.d_model}) inputs, got {q.shape}")
    if batch < 1 or q.shape[0] % batch != 0:
        raise ShapeError(f"row count {q.shape[0]} not divisible by batch {batch}")
    n = q.shape[0] // batch
    if n < 1:
        raise ShapeError("empty sequence")
    return n


def _distance_table(tb: np.ndarray) -> tuple[np.ndarray, int]:
    """(H, window+1) distance biases -> (H, window+2) table and window.

    The appended zero column is the sentinel that ``_row_distances`` sends
    every distance outside [0, window] to.
    """
    sentinel = np.zeros((tb.shape[0], 1), dtype=tb.dtype)
    return np.concatenate([tb, sentinel], axis=1), tb.shape[1] - 1


def _resolve_bias(bias: Tensor | None, config: AttentionConfig, n: int,
                  dtype) -> tuple[np.ndarray | None, int]:
    """Distance table of the positional mode (see ``_distance_table``), or (None, 0).

    ALiBi is the fixed table -slope_h * d over the n distances of a
    length-n sequence; under ``rope_bias`` the table is ``bias``, if given.
    Only ``rope_bias`` learns a table, so any other mode rejects one.
    """
    if bias is not None:
        if config.positional != "rope_bias":
            raise ValueError(f"a bias table needs positional 'rope_bias', not "
                             f"{config.positional!r}")
        tb = bias.data.reshape(1, -1) if bias.ndim == 1 else bias.data
        if tb.ndim != 2 or tb.shape[0] != config.n_heads:
            raise ShapeError(f"bias table must be ({config.n_heads}, window+1), got {bias.shape}")
    if config.positional == "alibi":
        slopes = np.array([alibi_slope(hd, config.n_heads) for hd in range(config.n_heads)],
                          dtype=dtype)
        return _distance_table(-slopes[:, None] * np.arange(n, dtype=dtype))
    if bias is None:
        return None, 0
    return _distance_table(tb.astype(dtype, copy=False))


def _resolve_tau(tau: Tensor | None, config: AttentionConfig, batch: int) -> np.ndarray | None:
    if not config.normalizer.learns_tau:
        return None
    if tau is None:
        raise ValueError(f"normalizer {config.normalizer.value} needs a tau tensor")
    td = tau.data.reshape(-1)
    if td.shape[0] != config.n_heads:
        raise ShapeError(f"tau must have one entry per head, got {tau.shape}")
    return np.tile(td, batch)  # group g = b * H + h


@functools.lru_cache(maxsize=128)
def _row_distances(r0: int, r1: int, window: int) -> np.ndarray:
    """Read-only distance index for query rows [r0, r1) against key columns [0, r1).

    Entry (i, j) is the distance r0 + i - j, or the sentinel ``window + 1``
    when it lies outside [0, window] (the validity mask, folded into the index).
    """
    d = np.arange(r0, r1)[:, None] - np.arange(r1)[None, :]
    idx = np.where((d >= 0) & (d <= window), d, window + 1)
    idx.setflags(write=False)
    return idx


def _row_bias(table: np.ndarray, window: int, r0: int, r1: int) -> np.ndarray:
    """(H, r1-r0, r1) additive score bias for query rows [r0, r1), keys [0, r1).

    ``table`` comes from ``_distance_table``; the naive path takes the whole
    square as one row tile (r0 = 0, r1 = n).
    """
    return np.take(table, _row_distances(r0, r1, window), axis=1)


def _row_bias_grad(g_h: np.ndarray, window: int, r0: int) -> np.ndarray:
    """Fold (H, T, r0+T) score grads for rows [r0, r0+T), keys [0, r0+T) onto the table.

    One head at a time, so the fold's extra memory is one head's block.
    """
    h, rows, _ = g_h.shape
    idx = _row_distances(r0, r0 + rows, window).reshape(-1)
    out = np.empty((h, window + 1), dtype=g_h.dtype)
    for hi in range(h):
        out[hi] = np.bincount(idx, weights=g_h[hi].reshape(-1), minlength=window + 2)[:-1]
    return out


def _tape_inputs(q: Tensor, k: Tensor, v: Tensor, bias: Tensor | None, tau: Tensor | None,
                 config: AttentionConfig) -> tuple[Tensor, ...]:
    """What an attention op differentiates: q, k, v, then a learned bias table and tau."""
    inputs = [q, k, v]
    if bias is not None:
        inputs.append(bias)
    if tau is not None and config.normalizer.learns_tau:
        inputs.append(tau)
    return tuple(inputs)


def _pack_grads(dq3, dk3, dv3, dbias, dtau_h, tau: Tensor | None, batch: int,
                n_heads: int) -> tuple:
    """Gradients in ``_tape_inputs`` order, with q, k, v back in flat layout."""
    grads = [_merge_groups(x, batch, n_heads) for x in (dq3, dk3, dv3)]
    if dbias is not None:
        grads.append(dbias)
    if dtau_h is not None:
        grads.append(dtau_h.astype(dq3.dtype).reshape(tau.shape))
    return tuple(grads)


def _normalize_full(s: np.ndarray, mode: NormalizerMode, off: np.ndarray | None, lower: np.ndarray):
    """Forward normalization of full (G, n, n) scores whose upper triangle is -inf.

    Returns (weights, softmax_probs, active_gate). For sparsemax the probs
    slot carries None and the gate is the support. Softmax overwrites ``s``
    with the probabilities.
    """
    if mode is NormalizerMode.SPARSEMAX:
        g, n, _ = s.shape
        w = np.zeros_like(s)
        for gi in range(g):
            for i in range(n):
                w[gi, i, : i + 1] = sparsemax_row(s[gi, i, : i + 1])
        return w, None, w > 0
    p = s
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    if mode is NormalizerMode.SOFTMAX:
        return p, p, None
    w = p + off[:, :, None]
    gate = w > 0
    gate &= lower
    np.maximum(w, 0.0, out=w)
    w *= lower
    return w, p, gate


def attend_naive(q: Tensor, k: Tensor, v: Tensor, config: AttentionConfig, *,
                 bias: Tensor | None = None, tau: Tensor | None = None,
                 batch: int = 1, capture: CaptureBuffer | None = None) -> Tensor:
    """Reference attention: materialize all causal weights, then mix values.

    Output row i is sum_j w_ij v_j with w from the configured normalizer.
    If ``capture`` is given, the (B, H, n, n) weights are stored in it at
    float32.
    """
    n = _check_qkv(q, k, v, config, batch)
    h, dh = config.n_heads, config.head_dim
    dtype = q.data.dtype
    sc = 1.0 / math.sqrt(dh)
    mode = config.normalizer
    table, window = _resolve_bias(bias, config, n, dtype)
    tau_g = _resolve_tau(tau, config, batch)
    lower = _lower_mask(n)

    q3 = _split_groups(q.data, batch, h)
    k3 = _split_groups(k.data, batch, h)
    v3 = _split_groups(v.data, batch, h)

    s = q3 @ k3.transpose(0, 2, 1)
    s *= sc
    if table is not None:
        s.reshape(batch, h, n, n)[...] += _row_bias(table, window, 0, n)[None]
    np.copyto(s, -np.inf, where=~lower)
    off = _row_offsets(mode, tau_g, n, dtype)
    w, p, gate = _normalize_full(s, mode, off, lower)
    inputs = _tape_inputs(q, k, v, bias, tau, config)
    out = Tensor(_merge_groups(w @ v3, batch, h),
                 requires_grad=any(t.requires_grad for t in inputs))

    if capture is not None:
        capture.add(w.reshape(batch, h, n, n))

    rows1 = np.arange(1, n + 1, dtype=dtype)

    def vjp(g):
        g3 = _split_groups(g, batch, h)
        dv3 = w.transpose(0, 2, 1) @ g3
        ds = g3 @ v3.transpose(0, 2, 1)  # dw, turned into the score gradient in place
        dtau_h = None
        if mode is NormalizerMode.SPARSEMAX:
            dw = ds
            ds = np.zeros_like(dw)
            for gi in range(dw.shape[0]):
                for i in range(n):
                    ds[gi, i, : i + 1] = sparsemax_vjp(w[gi, i, : i + 1], dw[gi, i, : i + 1])
        else:
            if gate is not None:  # softmax needs no mask: p is 0 on masked entries
                ds *= gate
                if mode is NormalizerMode.ELASTIC_PER_QUERY:
                    dtau_g = (ds.sum(axis=-1) / rows1[None, :]).sum(axis=-1)
                    dtau_h = dtau_g.reshape(batch, h).sum(axis=0)
                elif mode is NormalizerMode.ELASTIC_GLOBAL:
                    dtau_h = ds.sum(axis=(-1, -2)).reshape(batch, h).sum(axis=0)
            ds -= np.einsum("gij,gij->gi", p, ds)[:, :, None]
            ds *= p
        dq3 = ds @ k3
        dq3 *= sc
        dk3 = ds.transpose(0, 2, 1) @ q3
        dk3 *= sc
        dbias = None
        if bias is not None:
            dbias = _row_bias_grad(ds.reshape(batch, h, n, n).sum(axis=0), window, 0)
        return _pack_grads(dq3, dk3, dv3, dbias, dtau_h, tau, batch, h)

    return record_op(out, inputs, vjp)


def attend_two_pass(q: Tensor, k: Tensor, v: Tensor, config: AttentionConfig, *,
                    bias: Tensor | None = None, tau: Tensor | None = None,
                    batch: int = 1, capture: CaptureBuffer | None = None,
                    meter: AllocationMeter | None = None) -> Tensor:
    """Row-tiled attention equal to ``attend_naive`` for every offset normalizer.

    Query rows are taken ``config.tile`` at a time. Rows [r0, r1) see only
    keys [0, r1), so their score block holds each of those rows whole, and
    only its last r1 - r0 columns need the causal mask. The forward builds
    each block once: it takes each row's max and exp-sum over the block,
    applies the offset + rectifier in place and writes O for those rows,
    keeping only the per-row max and sum. Nothing of size n*n is
    materialized (unless ``capture`` asks for the weights), so auxiliary
    memory is O(n) per head at a fixed tile size.

    The backward rebuilds each block from the saved max and sum, which
    gives the forward's weights bit for bit, takes the softmax row-dot
    rho_i = sum_j p_ij dpre_ij over the block, writes dq for the tile's
    rows, and accumulates dk, dv, the tau gradient and the bias gradient.
    With one tile (tile >= n) output and gradients equal ``attend_naive``'s
    exactly.

    The path was named when its forward streamed key tiles twice; the name
    stays because configs and checkpoints (``attention_path``) select the
    path by it. Its two passes over the blocks are now the forward and the
    backward's rebuild.
    """
    n = _check_qkv(q, k, v, config, batch)
    h, dh = config.n_heads, config.head_dim
    mode = config.normalizer
    if mode is NormalizerMode.SPARSEMAX:
        raise ValueError("sparsemax needs globally sorted rows; use attend_naive")
    dtype = q.data.dtype
    sc = 1.0 / math.sqrt(dh)
    tile = min(config.tile, n)

    table, window = _resolve_bias(bias, config, n, dtype)
    tau_g = _resolve_tau(tau, config, batch)
    off = _row_offsets(mode, tau_g, n, dtype)

    q3 = _split_groups(q.data, batch, h)
    k3 = _split_groups(k.data, batch, h)
    v3 = _split_groups(v.data, batch, h)
    groups = batch * h
    tiles = [(r0, min(r0 + tile, n)) for r0 in range(0, n, tile)]
    m = np.empty((groups, n), dtype=dtype)  # row max and exp-sum of the scores
    l = np.empty((groups, n), dtype=dtype)

    def prob_block(r0: int, r1: int, fresh: bool = False) -> np.ndarray:
        """Softmax probabilities of rows [r0, r1) over keys [0, r1).

        ``fresh`` takes the row max and sum from the block and saves them;
        otherwise the block is rebuilt from the saved ones.
        """
        p = q3[:, r0:r1] @ k3[:, :r1].transpose(0, 2, 1)
        p *= sc
        if table is not None:
            p.reshape(batch, h, r1 - r0, r1)[...] += _row_bias(table, window, r0, r1)[None]
        np.copyto(p[:, :, r0:], -np.inf, where=~_lower_mask(r1 - r0))
        if fresh:
            m[:, r0:r1] = p.max(axis=-1)
        p -= m[:, r0:r1, None]
        np.exp(p, out=p)
        if fresh:
            l[:, r0:r1] = p.sum(axis=-1)
        p /= l[:, r0:r1, None]
        return p

    def rectify(w: np.ndarray, r0: int, r1: int) -> np.ndarray:
        """Rectify the block p + off of rows [r0, r1) in place and zero its masked entries."""
        np.maximum(w, 0.0, out=w)
        w[:, :, r0:] *= _lower_mask(r1 - r0)
        return w

    out3 = np.empty((groups, n, dh), dtype=dtype)
    cap = None
    if capture is not None:
        cap = np.zeros((groups, n, n), dtype=np.float32)
    for r0, r1 in tiles:
        w = prob_block(r0, r1, fresh=True)
        if mode is not NormalizerMode.SOFTMAX:
            w += off[:, r0:r1, None]
            rectify(w, r0, r1)
        out3[:, r0:r1] = w @ v3[:, :r1]
        if cap is not None:
            cap[:, r0:r1, :r1] = w
        if meter is not None:
            # the score block (weights in place) and its bias block, the row max and sum, O
            bias_bytes = 0 if table is None else w.nbytes // batch
            meter.observe(w.nbytes + bias_bytes + m.nbytes + l.nbytes + out3.nbytes)

    inputs = _tape_inputs(q, k, v, bias, tau, config)
    out = Tensor(_merge_groups(out3, batch, h),
                 requires_grad=any(t.requires_grad for t in inputs))
    if cap is not None:
        capture.add(cap.reshape(batch, h, n, n))

    rows1 = np.arange(1, n + 1, dtype=dtype)

    def vjp(g):
        g3 = _split_groups(g, batch, h)
        dq3 = np.empty_like(q3)
        dk3 = np.zeros_like(k3)
        dv3 = np.zeros_like(v3)
        dtau_g = np.zeros(groups, dtype=dtype) if mode.learns_tau else None
        dbias = None if bias is None else np.zeros((h, window + 1), dtype=dtype)
        for r0, r1 in tiles:
            p = prob_block(r0, r1)
            gt = g3[:, r0:r1]
            ds = gt @ v3[:, :r1].transpose(0, 2, 1)  # dw, turned into the score gradient in place
            w = p
            # softmax needs no mask: p is 0 on masked entries
            if mode is not NormalizerMode.SOFTMAX:
                w = rectify(p + off[:, r0:r1, None], r0, r1)
                ds *= w > 0
                if mode is NormalizerMode.ELASTIC_PER_QUERY:
                    dtau_g += (ds.sum(axis=-1) / rows1[None, r0:r1]).sum(axis=-1)
                elif mode is NormalizerMode.ELASTIC_GLOBAL:
                    dtau_g += ds.sum(axis=(-1, -2))
            ds -= np.einsum("gij,gij->gi", p, ds)[:, :, None]
            ds *= p
            dv3[:, :r1] += w.transpose(0, 2, 1) @ gt
            dq3[:, r0:r1] = ds @ k3[:, :r1]
            dk3[:, :r1] += ds.transpose(0, 2, 1) @ q3[:, r0:r1]
            if dbias is not None:
                dbias += _row_bias_grad(ds.reshape(batch, h, r1 - r0, r1).sum(axis=0),
                                        window, r0)
        dq3 *= sc
        dk3 *= sc
        dtau_h = None if dtau_g is None else dtau_g.reshape(batch, h).sum(axis=0)
        return _pack_grads(dq3, dk3, dv3, dbias, dtau_h, tau, batch, h)

    return record_op(out, inputs, vjp)


@dataclass
class AttentionLayerParams:
    """Learnable pieces of one attention layer."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bias: Tensor | None = None  # (H, window+1)
    tau: Tensor | None = None  # (H,)


def multi_head(x: Tensor, params: AttentionLayerParams, config: AttentionConfig,
               rope_cfg: RopeConfig, positions: np.ndarray, *, batch: int = 1,
               capture: CaptureBuffer | None = None,
               meter: AllocationMeter | None = None) -> Tensor:
    """Project, rotate, attend, and re-project one layer of heads.

    ``x`` is the (B*n, d) normalized residual input. Heads share projection
    matrices column-blocked per head; outputs concatenate in fixed head
    order before the output projection.
    """
    q = matmul(x, params.wq)
    k = matmul(x, params.wk)
    v = matmul(x, params.wv)
    if config.positional != "alibi":
        q = apply_rope(q, positions, rope_cfg)
        k = apply_rope(k, positions, rope_cfg)

    bias = params.bias if config.positional == "rope_bias" else None
    tau = params.tau if config.normalizer.learns_tau else None
    if config.path == "two_pass":
        attended = attend_two_pass(q, k, v, config, bias=bias, tau=tau, batch=batch,
                                   capture=capture, meter=meter)
    else:
        attended = attend_naive(q, k, v, config, bias=bias, tau=tau, batch=batch,
                                capture=capture)
    return matmul(attended, params.wo)
