"""Causal multi-head attention with pluggable row normalizers.

Scores are scaled rotary dot products plus an optional per-head distance
bias. Two execution paths compute the same function: ``attend_naive``
materializes the full weight matrix and is the reference, while
``attend_two_pass`` works through tiles of query rows. A tile's rows see
only the keys up to its last row, so one (tile, keys) score block holds
each of its rows whole: a single forward pass over it gives the rows'
softmax max and sum, the offset + rectifier and the weighted value sum,
and only the O(n) row statistics are kept, which keeps auxiliary memory
linear in sequence length for a fixed tile size. The backward rebuilds
each block from those statistics instead of storing the full matrix.

Both paths add one score term per row tile (the naive path's tile is the
whole square): a read-only strided view of a line over decreasing
distance that carries the learned table and the causal mask (-inf above
the diagonal) in one addition. Score gradients fold back onto the table
through a shifted copy of each group's rows.

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
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .core import ShapeError, Tensor, matmul, record_op
from .normalizers import NormalizerMode, sparsemax
from .positional import RopeConfig, apply_rope


@dataclass
class AttentionConfig:
    """Static attention hyperparameters for one model."""

    n_heads: int
    head_dim: int
    positional: str = "rope_bias"  # "rope" | "rope_bias"
    normalizer: NormalizerMode = NormalizerMode.ELASTIC_PER_QUERY
    tile: int = 64
    path: str = "naive"  # "naive" | "two_pass"

    def __post_init__(self):
        self.normalizer = NormalizerMode.parse(self.normalizer)
        if self.n_heads < 1 or self.head_dim < 1:
            raise ValueError("n_heads and head_dim must be positive")
        if self.tile < 1:
            raise ValueError("tile size must be >= 1")
        if self.positional not in ("rope", "rope_bias"):
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


def _resolve_bias(bias: Tensor | None, config: AttentionConfig, dtype) -> np.ndarray | None:
    """(H, k) learned distance table ``bias`` as ``dtype``, or None without one.

    Only ``rope_bias`` learns a table, so ``rope`` rejects one.
    """
    if bias is None:
        return None
    if config.positional != "rope_bias":
        raise ValueError(f"a bias table needs positional 'rope_bias', not "
                         f"{config.positional!r}")
    tb = bias.data.reshape(1, -1) if bias.ndim == 1 else bias.data
    if tb.ndim != 2 or tb.shape[0] != config.n_heads:
        raise ShapeError(f"bias table must be ({config.n_heads}, window+1), got {bias.shape}")
    return tb.astype(dtype, copy=False)


def _resolve_offsets(tau: Tensor | None, config: AttentionConfig, batch: int, n: int,
                     dtype) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(G, n) offsets tau / div added after softmax, and the (n,) row divisor div.

    div is the 1-based query index under ``elastic``, 1 under ``elastic_global``,
    and both are None (``tau`` ignored) for a normalizer that learns no tau.
    """
    mode = config.normalizer
    if not mode.learns_tau:
        return None, None
    if tau is None:
        raise ValueError(f"normalizer {mode.value} needs a tau tensor")
    td = tau.data.reshape(-1).astype(dtype, copy=False)
    if td.shape[0] != config.n_heads:
        raise ShapeError(f"tau must have one entry per head, got {tau.shape}")
    div = (np.arange(1, n + 1, dtype=dtype) if mode is NormalizerMode.ELASTIC_PER_QUERY
           else np.ones(n, dtype=dtype))
    return np.tile(td, batch)[:, None] / div, div  # group g = b * H + h


def _distance_term(table: np.ndarray | None, r0: int, r1: int, dtype) -> np.ndarray:
    """Read-only (H, r1-r0, r1) score term for query rows [r0, r1) against keys [0, r1).

    Entry (h, i, j) depends only on the distance d = r0 + i - j: -inf for
    d < 0 (the causal mask), table[h, d] for 0 <= d < k, and 0 beyond the
    (H, k) table; without a table H is 1. It is a strided view of one line
    over decreasing distance, from r1 - 1 down to r0 - r1 + 1.
    """
    if table is None:
        table = np.zeros((1, 0), dtype=dtype)
    h, rows = table.shape[0], r1 - r0
    near = table[:, :r1][:, ::-1]
    line = np.concatenate([np.zeros((h, r1 - near.shape[1]), dtype=dtype), near,
                           np.full((h, rows - 1), -np.inf, dtype=dtype)], axis=1)
    return sliding_window_view(line, r1, axis=1)[:, ::-1]


def _fold_distance_grad(ds: np.ndarray, dtable: np.ndarray) -> None:
    """Add (G, T, r1) score grads of rows [r1 - T, r1), keys [0, r1) onto the (H, k) table grad.

    Each group's row i is copied, shifted right by T - 1 - i, into one
    (T, r1 + T - 1) scratch block, so that column c holds distance r1 - 1 - c;
    the block's column sums are the group's gradient per distance. Group g
    is head g % H, as ``_split_groups`` orders them.
    """
    groups, rows, r1 = ds.shape
    h, k = dtable.shape
    near = min(k, r1)
    fold = np.zeros((rows, r1 + rows - 1), dtype=ds.dtype)  # never-written entries stay 0
    step = fold.strides[1]
    shifted = as_strided(fold[:, rows - 1:], shape=(rows, r1),
                         strides=(fold.strides[0] - step, step))
    for g in range(groups):
        shifted[...] = ds[g]
        dtable[g % h, :near] += fold[:, r1 - near:r1].sum(axis=0)[::-1]


def _tape_inputs(q: Tensor, k: Tensor, v: Tensor, bias: Tensor | None, tau: Tensor | None,
                 config: AttentionConfig) -> tuple[Tensor, ...]:
    """What an attention op differentiates: q, k, v, then a learned bias table and tau."""
    inputs = [q, k, v]
    if bias is not None:
        inputs.append(bias)
    if tau is not None and config.normalizer.learns_tau:
        inputs.append(tau)
    return tuple(inputs)


def _pack_grads(dq3, dk3, dv3, dbias, dtau_g, bias: Tensor | None, tau: Tensor | None,
                batch: int, n_heads: int) -> tuple:
    """Gradients in ``_tape_inputs`` order, each in its input's shape; ``dtau_g`` is per group."""
    grads = [_merge_groups(x, batch, n_heads) for x in (dq3, dk3, dv3)]
    if dbias is not None:
        grads.append(dbias.reshape(bias.shape))
    if dtau_g is not None:
        grads.append(dtau_g.reshape(batch, n_heads).sum(0).astype(dq3.dtype).reshape(tau.shape))
    return tuple(grads)


def _normalize_full(s: np.ndarray, mode: NormalizerMode, off: np.ndarray | None, lower: np.ndarray):
    """Forward normalization of full (G, n, n) scores whose upper triangle is -inf.

    Returns (weights, softmax_probs); for sparsemax the probs slot carries
    None. Softmax overwrites ``s`` with the probabilities.
    """
    if mode is NormalizerMode.SPARSEMAX:
        return sparsemax(s).astype(s.dtype, copy=False), None
    p = s
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    if mode is NormalizerMode.SOFTMAX:
        return p, p
    w = p + off[:, :, None]
    np.maximum(w, 0.0, out=w)
    w *= lower
    return w, p


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
    table = _resolve_bias(bias, config, dtype)
    off, div = _resolve_offsets(tau, config, batch, n, dtype)
    lower = _lower_mask(n)

    q3 = _split_groups(q.data, batch, h)
    k3 = _split_groups(k.data, batch, h)
    v3 = _split_groups(v.data, batch, h)

    s = q3 @ k3.transpose(0, 2, 1)
    s *= sc
    s.reshape(batch, h, n, n)[...] += _distance_term(table, 0, n, dtype)
    w, p = _normalize_full(s, mode, off, lower)
    inputs = _tape_inputs(q, k, v, bias, tau, config)
    out = Tensor(_merge_groups(w @ v3, batch, h),
                 requires_grad=any(t.requires_grad for t in inputs))

    if capture is not None:
        capture.add(w.reshape(batch, h, n, n))

    def vjp(g):
        g3 = _split_groups(g, batch, h)
        dv3 = w.transpose(0, 2, 1) @ g3
        ds = g3 @ v3.transpose(0, 2, 1)  # dw, turned into the score gradient in place
        dtau_g = None
        if mode is NormalizerMode.SPARSEMAX:  # dw minus its mean over each row's support
            supp = w > 0
            ds *= supp
            ds -= ds.sum(axis=-1, keepdims=True) / supp.sum(axis=-1, keepdims=True)
            ds *= supp
        else:
            if off is not None:  # softmax needs no mask: p is 0 on masked entries
                ds *= w > 0  # w is rectified and masked: this gates both
                dtau_g = (ds.sum(axis=-1) / div).sum(axis=-1)
            ds -= np.einsum("gij,gij->gi", p, ds)[:, :, None]
            ds *= p
        dq3 = ds @ k3
        dq3 *= sc
        dk3 = ds.transpose(0, 2, 1) @ q3
        dk3 *= sc
        dbias = None
        if bias is not None:
            dbias = np.zeros_like(table)
            _fold_distance_grad(ds, dbias)
        return _pack_grads(dq3, dk3, dv3, dbias, dtau_g, bias, tau, batch, h)

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
    if config.normalizer is NormalizerMode.SPARSEMAX:
        raise ValueError("sparsemax needs globally sorted rows; use attend_naive")
    dtype = q.data.dtype
    sc = 1.0 / math.sqrt(dh)
    tile = min(config.tile, n)

    table = _resolve_bias(bias, config, dtype)
    off, div = _resolve_offsets(tau, config, batch, n, dtype)

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
        c0 = 0 if table is not None else r0  # a mask-only term touches the last r1 - r0 columns
        p[:, :, c0:].reshape(batch, h, r1 - r0, r1 - c0)[...] += _distance_term(
            table, r0 - c0, r1 - c0, dtype)
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
        if off is not None:
            w += off[:, r0:r1, None]
            rectify(w, r0, r1)
        out3[:, r0:r1] = w @ v3[:, :r1]
        if cap is not None:
            cap[:, r0:r1, :r1] = w
        if meter is not None:
            # the score block (weights in place), the row max and sum, O
            meter.observe(w.nbytes + m.nbytes + l.nbytes + out3.nbytes)

    inputs = _tape_inputs(q, k, v, bias, tau, config)
    out = Tensor(_merge_groups(out3, batch, h),
                 requires_grad=any(t.requires_grad for t in inputs))
    if cap is not None:
        capture.add(cap.reshape(batch, h, n, n))

    def vjp(g):
        g3 = _split_groups(g, batch, h)
        dq3 = np.empty_like(q3)
        dk3 = np.zeros_like(k3)
        dv3 = np.zeros_like(v3)
        dtau_g = None if off is None else np.zeros(groups, dtype=dtype)
        dbias = None if bias is None else np.zeros_like(table)
        for r0, r1 in tiles:
            p = prob_block(r0, r1)
            gt = g3[:, r0:r1]
            ds = gt @ v3[:, :r1].transpose(0, 2, 1)  # dw, turned into the score gradient in place
            w = p
            # softmax needs no mask: p is 0 on masked entries
            if off is not None:
                w = rectify(p + off[:, r0:r1, None], r0, r1)
                ds *= w > 0
                dtau_g += (ds.sum(axis=-1) / div[r0:r1]).sum(axis=-1)
            ds -= np.einsum("gij,gij->gi", p, ds)[:, :, None]
            ds *= p
            dv3[:, :r1] += w.transpose(0, 2, 1) @ gt
            dq3[:, r0:r1] = ds @ k3[:, :r1]
            dk3[:, :r1] += ds.transpose(0, 2, 1) @ q3[:, r0:r1]
            if dbias is not None:
                _fold_distance_grad(ds, dbias)
        dq3 *= sc
        dk3 *= sc
        return _pack_grads(dq3, dk3, dv3, dbias, dtau_g, bias, tau, batch, h)

    return record_op(out, inputs, vjp)


def multi_head(x: Tensor, layer: dict[str, Tensor], config: AttentionConfig,
               rope_cfg: RopeConfig, positions: np.ndarray, *, batch: int = 1,
               capture: CaptureBuffer | None = None,
               meter: AllocationMeter | None = None) -> Tensor:
    """Project, rotate, attend, and re-project one layer of heads.

    ``x`` is the (B*n, d) normalized residual input. ``layer`` is a model
    layer dict; this reads its ``attn.wq``, ``attn.wk``, ``attn.wv`` and
    ``attn.wo`` (d, d) projections, ``attn.bias_table`` (H, window+1) under
    ``rope_bias`` and ``attn.tau`` (H,), which a normalizer that learns no
    tau ignores. Heads share projection matrices column-blocked per head;
    outputs concatenate in fixed head order before the output projection.
    """
    q = matmul(x, layer["attn.wq"])
    k = matmul(x, layer["attn.wk"])
    v = matmul(x, layer["attn.wv"])
    q = apply_rope(q, positions, rope_cfg)
    k = apply_rope(k, positions, rope_cfg)

    bias = layer["attn.bias_table"] if config.positional == "rope_bias" else None
    tau = layer["attn.tau"]
    if config.path == "two_pass":
        attended = attend_two_pass(q, k, v, config, bias=bias, tau=tau, batch=batch,
                                   capture=capture, meter=meter)
    else:
        attended = attend_naive(q, k, v, config, bias=bias, tau=tau, batch=batch,
                                capture=capture)
    return matmul(attended, layer["attn.wo"])
