"""Correctness checks on the program's outputs.

Each check compares an output against a separate computation or a
property the method must have, never against a stored copy of an earlier
output. A check returns None when it holds and a one-line reason when it
does not, so the runner can report every failure and the self-tests can
feed each check a wrong output.
"""

from __future__ import annotations

import csv
import math

import numpy as np

LN_VOCAB = math.log(257)  # uniform prediction over 256 bytes + BOS
# At initialisation the logits have std ~0.23 (unembed std 0.02 after the
# final layernorm, d = 128), so one batch's first loss sits up to ~0.19 from
# ln 257 on some seeds; a wrong init or loss reduction misses by far more.
FIRST_LOSS_TOL = 0.25
IDENTITY_TOL = 1e-4  # density + sink = 100 % for softmax (criterion 4)
NLL_MATCH_FRAC = 0.05  # lazy vs baseline held-out NLL (criterion 6)
ROW_SUM_TOL = 1e-5  # float32 slack on "row sums <= 1"
TWO_PASS_FWD_TOL = 1e-5  # float32 (criterion 2)
TWO_PASS_BWD_TOL = 1e-4  # float64, relative L2 (criterion 2)
AUX_GROWTH_LIMIT = 2.6  # doubling n may grow tiled aux bytes at most this much
PROBE_LIMIT = 1e-3  # criterion 7
FP64_NLL_RTOL = 1e-3
ZERO_SHARE_RANGE = (0.01, 0.99)  # "neither all-zero nor dense"


def first_loss(name: str, history) -> str | None:
    loss = history[0][1]
    if not abs(loss - LN_VOCAB) <= FIRST_LOSS_TOL:
        return f"{name}: first-step loss {loss:.4f} not within {FIRST_LOSS_TOL} of ln 257"
    return None


def loss_fell(name: str, history, eval_loss: float) -> str | None:
    first, last = history[0][1], history[-1][1]
    if not (math.isfinite(last) and math.isfinite(eval_loss)):
        return f"{name}: non-finite final loss {last} / eval {eval_loss}"
    if not last < first:
        return f"{name}: final loss {last:.4f} not below first {first:.4f}"
    return None


def softmax_identity(name: str, per_head: dict) -> str | None:
    """density + sink == 100 % per (layer, head) for a softmax model."""
    worst = max(abs(d + s - 100.0) for d, s in per_head.values())
    if not worst <= IDENTITY_TOL:
        return f"{name}: density + sink deviates from 100% by {worst:.2e}"
    return None


def lazy_weights(name: str, layers: list[np.ndarray], taus: list[np.ndarray]) -> str | None:
    """Every weight >= 0, and rows sum to <= 1 in heads whose tau <= 0.

    relu(softmax + tau/i) never exceeds softmax when tau <= 0, so its row
    sum is bounded by the softmax row sum, 1.
    """
    for li, w in enumerate(layers):
        if w.min() < 0.0:
            return f"{name}: layer {li} has a negative weight {float(w.min()):.3e}"
        sums = w.astype(np.float64).sum(axis=-1)  # (B, H, n)
        for h, tau in enumerate(np.asarray(taus[li]).reshape(-1)):
            if tau <= 0 and sums[:, h].max() > 1.0 + ROW_SUM_TOL:
                return (f"{name}: layer {li} head {h} (tau {tau:.3f}) has a row summing to "
                        f"{sums[:, h].max():.6f} > 1")
    return None


def zero_share(name: str, layers: list[np.ndarray]) -> str | None:
    """The causal weights are neither all zero nor all nonzero."""
    n = layers[0].shape[-1]
    lower = np.tril(np.ones((n, n), dtype=bool))
    share = float(np.mean([(w[..., lower] == 0.0).mean() for w in layers]))
    lo, hi = ZERO_SHARE_RANGE
    if not lo < share < hi:
        return f"{name}: exact-zero share of causal weights {share:.3f} outside ({lo}, {hi})"
    return None


def twin_directions(lazy: tuple[float, float], base: tuple[float, float],
                    nll_lazy: float, nll_base: float) -> str | None:
    """Lazy (density, sink) below the baseline's at matched held-out NLL."""
    if not lazy[0] < base[0]:
        return f"lazy density {lazy[0]:.2f}% not below baseline {base[0]:.2f}%"
    if not lazy[1] < base[1]:
        return f"lazy sink {lazy[1]:.2f}% not below baseline {base[1]:.2f}%"
    if not abs(nll_lazy - nll_base) <= NLL_MATCH_FRAC * nll_base:
        return f"lazy eval NLL {nll_lazy:.4f} not within 5% of baseline {nll_base:.4f}"
    return None


def max_abs_close(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> str | None:
    if got.shape != want.shape:
        return f"{name}: shape {got.shape} != {want.shape}"
    diff = float(np.abs(got.astype(np.float64) - want.astype(np.float64)).max())
    if not diff <= tol:
        return f"{name}: max abs difference {diff:.3e} > {tol:.0e}"
    return None


def two_pass_matches_naive(got: tuple, want: tuple) -> str | None:
    """Two-pass (logits, per-layer weights) equal the naive path's."""
    reason = max_abs_close("two-pass logits", got[0], want[0], TWO_PASS_FWD_TOL)
    for li, (a, b) in enumerate(zip(got[1], want[1])):
        reason = reason or max_abs_close(f"two-pass layer {li} weights", a, b, TWO_PASS_FWD_TOL)
    return reason


def rel_l2(got: np.ndarray, want: np.ndarray) -> float:
    got = np.asarray(got, dtype=np.float64).reshape(-1)
    want = np.asarray(want, dtype=np.float64).reshape(-1)
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12))


def grads_close(got: dict, want: dict) -> str | None:
    """Two-pass gradients equal naive ones within the fp64 tolerance."""
    if set(got) != set(want):
        return f"gradient sets differ: {sorted(set(got) ^ set(want))}"
    for name in want:
        err = rel_l2(got[name], want[name])
        if not err <= TWO_PASS_BWD_TOL:
            return f"two-pass gradient of {name} off by relative {err:.2e} > {TWO_PASS_BWD_TOL:.0e}"
    return None


def aux_growth(peak_half: int, peak_full: int) -> str | None:
    ratio = peak_full / peak_half if peak_half > 0 else math.inf
    if not ratio < AUX_GROWTH_LIMIT:
        return f"two-pass aux peak grew {ratio:.2f}x when n doubled (limit {AUX_GROWTH_LIMIT})"
    return None


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def row_count(name: str, rows: list, expected: int) -> str | None:
    if len(rows) != expected:
        return f"{name}: {len(rows)} rows, expected {expected}"
    return None


def ppl_rows(name: str, rows: list[dict]) -> str | None:
    for r in rows:
        nll, ppl = float(r["nll"]), float(r["ppl"])
        if not (math.isfinite(ppl) and ppl < 257.0):
            return f"{name}: length {r['length']} perplexity {ppl} not finite and below 257"
        if not math.isclose(ppl, math.exp(nll), rel_tol=1e-12):
            return f"{name}: length {r['length']} ppl {ppl} != exp(nll) {math.exp(nll)}"
    return None


def nll_matches_fp64(name: str, nll32: float, nll64: float) -> str | None:
    if not abs(nll32 - nll64) <= FP64_NLL_RTOL * abs(nll64):
        return f"{name}: length-128 NLL {nll32:.6f} vs float64 reload {nll64:.6f}"
    return None


def density_csv_identity(name: str, rows: list[dict]) -> str | None:
    per_head = {(r["layer"], r["head"]): (float(r["density_pct"]), float(r["sink_pct"]))
                for r in rows if r["layer"] != "mean"}
    return softmax_identity(name, per_head)


def probe_rows(name: str, rows: list[dict]) -> str | None:
    worst = max(float(r["invariance_score"]) for r in rows)
    if not worst < PROBE_LIMIT:
        return f"{name}: repeated-token probe score {worst:.2e} >= {PROBE_LIMIT:.0e}"
    return None


def exported_params(name: str, bias_rows: list[dict], tau_rows: list[dict],
                    tables: list[np.ndarray], taus: list[np.ndarray]) -> str | None:
    """Exported CSV values equal the checkpoint's parameters exactly."""
    for r in tau_rows:
        want = float(np.asarray(taus[int(r["layer"])]).reshape(-1)[int(r["head"])])
        if float(r["tau"]) != want:
            return f"{name}: exported tau {r['tau']} != checkpoint {want!r}"
    for r in bias_rows:
        want = float(tables[int(r["layer"])][int(r["head"]), int(r["distance"])])
        if float(r["bias"]) != want:
            return (f"{name}: exported bias at layer {r['layer']} head {r['head']} "
                    f"distance {r['distance']} is {r['bias']}, checkpoint has {want!r}")
    return None
