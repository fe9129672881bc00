"""Checkpoint analyses: perplexity by length, repeated-token probe, sink
statistics, density/sink measurement, and parameter exports.

Everything here runs forward-only on a loaded checkpoint and writes CSV;
outputs are deterministic for a fixed checkpoint and input. Every
analysis and export CSV format lives here. The model is observed through
the forward pass's weight capture, or by running the embedding and blocks
here, so the model and attention code carry no diagnostics-only hooks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .attention import CaptureBuffer
from .model import TransformerLM
from .normalizers import density_and_sink
from .training import mean_nll


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@dataclass
class AttnStats:
    """Density/sink percentages per (layer, head) plus aggregate means."""

    per_head: dict[tuple[int, int], tuple[float, float]]
    density_pct: float
    sink_pct: float

    def write_csv(self, path) -> None:
        rows = [[layer, head, repr(dens), repr(sink)]
                for (layer, head), (dens, sink) in sorted(self.per_head.items())]
        rows.append(["mean", "mean", repr(self.density_pct), repr(self.sink_pct)])
        _write_csv(path, ["layer", "head", "density_pct", "sink_pct"], rows)


def eval_ppl(model: TransformerLM, tokens: np.ndarray, lengths: list[int], *,
             batch_size: int = 8) -> list[dict]:
    """Perplexity from non-overlapping windows at each requested length.

    The token stream is cut into (length + 1)-token windows (inputs shifted
    against targets); the mean per-token NLL is exponentiated. Lengths are
    allowed to exceed the training context: positions beyond it exercise
    rotary extrapolation and zero distance bias.
    """
    tokens = np.asarray(tokens).reshape(-1)
    results = []
    for length in lengths:
        if length < 1:
            raise ValueError(f"eval length must be >= 1, got {length}")
        span = length + 1
        n_win = len(tokens) // span
        if n_win < 1:
            raise ValueError(f"text too short for eval length {length}: "
                             f"{len(tokens)} tokens < {span}")
        windows = tokens[: n_win * span].reshape(n_win, span)
        bs = batch_size if length <= model.cfg.n_ctx else max(1, batch_size // 4)
        nll = mean_nll(model, windows, batch_size=bs, max_len=length)
        results.append({"length": length, "nll": nll, "ppl": math.exp(nll), "windows": n_win})
    return results


def write_ppl_csv(rows: list[dict], path) -> None:
    _write_csv(path, ["length", "ppl", "nll", "windows"],
               ([r["length"], repr(r["ppl"]), repr(r["nll"]), r["windows"]] for r in rows))


@dataclass
class ProbeResult:
    """Repeated-token probe output."""

    scores: dict[tuple[int, int], float]  # (layer, head) -> invariance score
    capture: CaptureBuffer
    n: int
    min_row: int

    @property
    def max_score(self) -> float:
        return max(self.scores.values())

    def write_csv(self, path) -> None:
        _write_csv(path, ["layer", "head", "invariance_score"],
                   ([layer, head, repr(s)] for (layer, head), s in sorted(self.scores.items())))


def translation_invariance(weights: np.ndarray, min_row: int = 2) -> float:
    """Worst mass-matched difference between successive shifted causal rows.

    Rows i and i+1 (1-based queries) share i keys at equal relative
    distance; the longer row additionally attends one more-distant key,
    which only rescales its normalizer. The shared slice of row i+1 is
    therefore rescaled to row i's mass before comparing. Scoring that
    depends only on the distance i - j makes the rescaled slices equal in
    exact arithmetic, so the returned score is an accumulated-float-error
    budget; any content- or absolute-position-dependent scoring breaks the
    equality macroscopically.

    Query indices are 1-based. Rows below ``min_row`` are excluded (their
    offsets and normalizers genuinely differ row to row); if that leaves
    no comparable pair the last one is used so the score stays defined
    (n = 2 compares the single pair of rows 1 and 2).
    """
    n = weights.shape[0]
    if n < 2:
        raise ValueError("need at least two queries to compare shifted weights")
    if min_row < 1:
        raise ValueError(f"min_row must be >= 1, got {min_row}")
    lo = min(min_row, n - 1)  # 1-based first row of each compared pair
    best = 0.0
    for i in range(lo, n):  # 1-based; compares row i with row i+1
        r = i - 1
        a = weights[r, :i].astype(np.float64)
        b = weights[r + 1, 1:i + 1].astype(np.float64)
        ma, mb = a.sum(), b.sum()
        if ma > 1e-12 and mb > 1e-12:
            b = b * (ma / mb)
        diff = float(np.abs(a - b).max())
        if diff > best:
            best = diff
    return best


def probe_repeated(model: TransformerLM, token_id: int, n: int, *, min_row: int = 2) -> ProbeResult:
    """Run the model on n copies of one token and score weight shift-invariance.

    A scoring scheme that depends only on the distance i - j makes shifted
    rows nearly identical once the rows are long enough for the softmax
    normalizers to converge; see ``translation_invariance`` for the row
    exclusion rule.
    """
    if n < 2:
        raise ValueError(f"probe length n must be >= 2, got {n}")
    if token_id < 0 or token_id >= model.cfg.vocab_size:
        raise ValueError(f"token id {token_id} outside the vocabulary")
    capture = CaptureBuffer()
    ids = np.full((1, n), token_id, dtype=np.int64)
    model.lm_forward(ids, max_len=n, capture=capture)
    scores: dict[tuple[int, int], float] = {}
    for layer, w in enumerate(capture.layers):
        for head in range(w.shape[1]):
            scores[(layer, head)] = translation_invariance(w[0, head], min_row=min_row)
    return ProbeResult(scores=scores, capture=capture, n=n, min_row=min_row)


def sink_variance_report(model: TransformerLM, tokens: np.ndarray, *,
                         n_positions: int = 15) -> list[dict]:
    """Per-position value-vector and hidden-state norm/variance per layer.

    ``tokens`` is a single sequence; the report covers its first
    ``n_positions`` positions. The hidden state is the block's input and
    the value is its attention's value projection, computed with the same
    ops the block runs. Variance is the population variance of the
    vector's elements.
    """
    tokens = np.asarray(tokens).reshape(-1)
    if n_positions < 1:
        raise ValueError(f"n_positions must be >= 1, got {n_positions}")
    if len(tokens) < n_positions:
        raise ValueError(f"need at least {n_positions} tokens, got {len(tokens)}")
    positions = np.arange(len(tokens))
    x = core.embedding(model.params["embed"], tokens)
    rows = []
    for layer, lp in enumerate(model.layers):
        value = core.matmul(core.layernorm(x, lp["ln1.gain"], lp["ln1.bias"]), lp["attn.wv"])
        hid = x.data[:n_positions].astype(np.float64)
        val = value.data[:n_positions].astype(np.float64)
        x = model.block_forward(x, layer, positions)
        for pos, (v, h) in enumerate(zip(val, hid)):
            rows.append({
                "layer": layer,
                "position": pos,
                "v_norm": float(np.linalg.norm(v)),
                "v_var": float(((v - v.mean()) ** 2).mean()),
                "hidden_norm": float(np.linalg.norm(h)),
                "hidden_var": float(((h - h.mean()) ** 2).mean()),
            })
    return rows


def write_sink_csv(rows: list[dict], path) -> None:
    _write_csv(path, ["layer", "position", "v_norm", "v_var", "hidden_norm", "hidden_var"],
               ([r["layer"], r["position"], repr(r["v_norm"]), repr(r["v_var"]),
                 repr(r["hidden_norm"]), repr(r["hidden_var"])] for r in rows))


def measure_density(model: TransformerLM, token_batch: np.ndarray,
                    capture: CaptureBuffer | None = None) -> AttnStats:
    """Forward with weight capture and aggregate density/sink percentages."""
    if capture is None:
        capture = CaptureBuffer()
    token_batch = np.asarray(token_batch)
    if token_batch.ndim == 1:
        token_batch = token_batch[None, :]
    model.lm_forward(token_batch, max_len=token_batch.shape[1], capture=capture)
    per_head, density, sink = density_and_sink(capture.layers)
    return AttnStats(per_head=per_head, density_pct=density, sink_pct=sink)


def write_weights_csv(capture: CaptureBuffer, path, *, sequence: int = 0) -> None:
    """Dump one sequence's causal weights as (layer, head, i, j, alpha) rows.

    i and j are 1-based query/key positions; only j <= i is emitted.
    """
    _write_csv(path, ["layer", "head", "i", "j", "alpha"],
               ([layer, head, i + 1, j + 1, repr(float(mat[i, j]))]
                for layer, arr in enumerate(capture.layers)
                for head, mat in enumerate(arr[sequence])
                for i in range(mat.shape[0]) for j in range(i + 1)))


def export_bias(model: TransformerLM, path) -> None:
    """CSV of every learnable distance bias: layer, head, distance, bias."""
    _write_csv(path, ["layer", "head", "distance", "bias"],
               ([layer, head, dist, repr(float(b))]
                for layer, t in enumerate(model.bias_table.tables)
                for head, row in enumerate(t.data) for dist, b in enumerate(row)))


def export_offsets(model: TransformerLM, path) -> None:
    """CSV of every elastic offset: layer, head, tau."""
    _write_csv(path, ["layer", "head", "tau"],
               ([layer, head, repr(float(tau))]
                for layer, taus in enumerate(model.taus()) for head, tau in enumerate(taus)))
