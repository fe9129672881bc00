"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the library's computation paths:
finite differences for gradients, scalar loops for attention, bisection
for the simplex projection, and a separate two-pass mean/variance.
"""

from __future__ import annotations

import math

import numpy as np

from lazyattn.core import Tensor


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """L2 relative error with a small floor to keep zero targets meaningful."""
    got = np.asarray(got, dtype=np.float64).reshape(-1)
    want = np.asarray(want, dtype=np.float64).reshape(-1)
    denom = max(np.linalg.norm(want), 1e-12)
    return float(np.linalg.norm(got - want) / denom)


def finite_diff(f, arrays: list[np.ndarray], h: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradients of scalar f(*arrays) w.r.t. each array."""
    grads = []
    for idx, base in enumerate(arrays):
        g = np.zeros_like(base, dtype=np.float64)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(*arrays)
            flat[i] = orig - h
            fm = f(*arrays)
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads


def check_grads(build, params: list[Tensor], h: float = 1e-5, reference=None) -> float:
    """Compare tape gradients of ``build()`` against finite differences.

    ``build`` runs the forward pass to a scalar Tensor using ``params``
    (float64) and is re-entrant. The finite differences are taken of
    ``build`` itself, or of ``reference(*arrays)``, a float function of the
    parameter arrays, when one is given: an independent oracle then also
    catches a fault that the forward and the backward share. Returns the
    worst relative error.
    """
    from lazyattn.core import Tape, backward

    with Tape() as tape:
        loss = build()
    backward(tape, loss)
    # a parameter off the loss path has zero gradient (grad stays None)
    got = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    def f(*arrays):
        return build().item()

    want = finite_diff(reference or f, [p.data for p in params], h=h)
    return max(rel_err(g, w) for g, w in zip(got, want))


def softmax_vec(s: np.ndarray) -> np.ndarray:
    z = s - s.max()
    e = np.exp(z)
    return e / e.sum()


def attention_scalar_loop(q, k, v, *, bias_vec=None, window=0, tau=None, kind="softmax"):
    """Single-head causal attention via explicit Python loops.

    kind: a ``NormalizerMode`` value ('softmax', 'elastic', 'elastic_global',
    'sparsemax'), or 'fixed' for the constant -1/i offset, which the library
    runs as 'elastic' with tau = -1.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n, dh = q.shape
    out = np.zeros_like(v)
    weights = np.zeros((n, n))
    for i in range(n):
        s = np.empty(i + 1)
        for j in range(i + 1):
            dot = 0.0
            for t in range(dh):
                dot += q[i, t] * k[j, t]
            s[j] = dot / math.sqrt(dh)
            if bias_vec is not None and i - j <= window:
                s[j] += bias_vec[i - j]
        if kind == "sparsemax":
            w = sparsemax_bisection(s)
        else:
            p = softmax_vec(s)
            if kind == "softmax":
                w = p
            elif kind == "elastic":
                w = np.maximum(p + tau / (i + 1), 0.0)
            elif kind == "elastic_global":
                w = np.maximum(p + tau, 0.0)
            elif kind == "fixed":
                w = np.maximum(p - 1.0 / (i + 1), 0.0)
            else:
                raise ValueError(kind)
        weights[i, : i + 1] = w
        for j in range(i + 1):
            out[i] += w[j] * v[j]
    return out, weights


def sparsemax_bisection(z: np.ndarray, iters: int = 200) -> np.ndarray:
    """Simplex projection by bisecting the KKT threshold sum(max(z-t,0)) = 1."""
    z = np.asarray(z, dtype=np.float64)
    lo = z.min() - 1.0
    hi = z.max()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(z - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(z - 0.5 * (lo + hi), 0.0)


def two_pass_variance(x: np.ndarray) -> float:
    """Mean squared deviation computed as two explicit passes."""
    x = np.asarray(x, dtype=np.float64)
    mean = 0.0
    for val in x:
        mean += val
    mean /= x.size
    acc = 0.0
    for val in x:
        acc += (val - mean) ** 2
    return acc / x.size


def rope_block_rotation(x: np.ndarray, positions, base: float) -> np.ndarray:
    """Rotary embedding via explicit 2x2 block rotation matrices."""
    x = np.asarray(x, dtype=np.float64)
    n, dh = x.shape
    out = np.zeros_like(x)
    for row in range(n):
        pos = positions[row]
        for kk in range(dh // 2):
            theta = base ** (-2.0 * kk / dh)
            ang = pos * theta
            r = np.array([[math.cos(ang), -math.sin(ang)],
                          [math.sin(ang), math.cos(ang)]])
            out[row, 2 * kk: 2 * kk + 2] = r @ x[row, 2 * kk: 2 * kk + 2]
    return out
