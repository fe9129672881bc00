"""Row-normalizer tests: rectified offsets, sparsemax, density/sink stats.

The offset rows run through ``attend_naive`` on one head whose inputs are
built to give a chosen score matrix.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazyattn import core
from lazyattn.attention import AttentionConfig, CaptureBuffer, attend_naive
from lazyattn.core import Tensor
from lazyattn.normalizers import NormalizerMode, density_and_sink, sparsemax

from oracles import attention_scalar_loop, check_grads, softmax_vec, sparsemax_bisection

finite_floats = st.floats(min_value=-30, max_value=30, allow_nan=False)

ELASTIC = NormalizerMode.ELASTIC_PER_QUERY
GLOBAL = NormalizerMode.ELASTIC_GLOBAL


def score_qkv(scores, grad=False):
    """Single-head q, k, v whose causal score matrix is ``scores`` (n, n).

    Row i of q holds row i of the scores, the keys are unit vectors scaled
    by sqrt(d) at a width d that is a power of 4, so <q_i, k_j>/sqrt(d) is
    scores[i, j] exactly, and the values are unit vectors, so output row i
    is weight row i.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    d = 4
    while d < n:
        d *= 4
    q = np.zeros((n, d))
    q[:, :n] = scores
    unit = np.eye(n, d)
    return (Tensor(q, requires_grad=grad, dtype="float64"),
            Tensor(unit * math.sqrt(d), dtype="float64"), Tensor(unit, dtype="float64"))


def score_cfg(q, mode):
    return AttentionConfig(n_heads=1, head_dim=q.shape[1], positional="rope", normalizer=mode)


def tau_tensor(tau, grad=False):
    return Tensor(np.array([tau]), requires_grad=grad, dtype="float64")


def weight_rows(scores, mode, tau=None):
    """The (n, n) causal weights ``attend_naive`` gives for the score matrix ``scores``."""
    q, k, v = score_qkv(scores)
    n = q.shape[0]
    cap = CaptureBuffer()
    tau = None if tau is None else tau_tensor(tau)
    w = attend_naive(q, k, v, score_cfg(q, mode), tau=tau, capture=cap).data[:, :n]
    assert np.array_equal(cap.layers[0][0, 0], w.astype(np.float32))
    return w


def test_elastic_uniform_scores_cancel_exactly():
    zeros = np.zeros((64, 64))
    assert np.all(weight_rows(zeros, ELASTIC, -1.0) == 0.0)  # 1/i - 1/i rectifies to exactly zero


def test_elastic_zero_tau_is_softmax():
    rng = np.random.default_rng(0)
    s = rng.normal(size=(9, 9))
    rows = weight_rows(s, ELASTIC, 0.0)
    for i in range(9):
        assert np.abs(rows[i, : i + 1] - softmax_vec(s[i, : i + 1])).max() < 1e-7
        assert np.all(rows[i, i + 1:] == 0.0)


def test_elastic_first_query_forced_to_zero():
    assert np.array_equal(weight_rows(np.array([[3.2]]), ELASTIC, -1.0), [[0.0]])


def test_elastic_reference_values():
    # softmax([2,0,0]) = [0.78699..., 0.10650..., 0.10650...]; offset -1/3
    s = np.zeros((3, 3))
    s[2] = [2.0, 0.0, 0.0]
    row = weight_rows(s, ELASTIC, -1.0)[2]
    e2 = math.exp(2.0)
    p0 = e2 / (e2 + 2.0)
    want = np.array([p0 - 1.0 / 3.0, 0.0, 0.0])
    assert np.allclose(row, want, atol=1e-12)
    assert abs(row[0] - 0.45365271) < 1e-8


def test_fixed_offset_examples():
    """The constant -1/i offset is elastic at tau = -1."""
    assert np.all(weight_rows(np.zeros((6, 6)), ELASTIC, -1.0) == 0.0)
    s = np.zeros((2, 2))
    s[1] = [math.log(3.0), 0.0]
    assert np.allclose(weight_rows(s, ELASTIC, -1.0)[1], [0.25, 0.0], atol=1e-12)


def test_fixed_offset_matches_frozen_elastic():
    """Elastic at tau = -1 against the scalar loop's independent fixed-offset rows."""
    s = np.random.default_rng(1).normal(size=(11, 11))
    q, k, v = score_qkv(s)
    _, want = attention_scalar_loop(q.data, k.data, v.data, kind="fixed")
    assert np.abs(weight_rows(s, ELASTIC, -1.0) - want).max() < 1e-12


def test_global_offset_examples():
    s = np.random.default_rng(2).normal(size=(5, 5))
    rows = weight_rows(s, GLOBAL, 0.0)
    for i in range(5):
        assert np.allclose(rows[i, : i + 1], softmax_vec(s[i, : i + 1]), atol=1e-15)
    assert np.all(weight_rows(s, GLOBAL, -1.0) == 0.0)  # every entry <= 1
    p = np.zeros((3, 3))
    p[2] = np.log([0.5, 0.3, 0.2])
    assert np.allclose(weight_rows(p, GLOBAL, -0.2)[2], [0.3, 0.1, 0.0], atol=1e-12)


def test_sparsemax_examples():
    assert np.allclose(sparsemax(np.array([0.5, 0.5])), [0.5, 0.5])
    # KKT threshold for [2, 0] is 1: sum(max(z - 1, 0)) = 1
    assert np.allclose(sparsemax(np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-12)


def test_sparsemax_matches_bisection_oracle():
    rng = np.random.default_rng(3)
    z = np.stack([rng.normal(size=8) * rng.uniform(0.1, 5.0) for _ in range(100)])
    w = sparsemax(z)  # one call projects every row
    for row, got in zip(z, w):
        assert np.abs(got - sparsemax_bisection(row)).max() < 1e-9


@settings(deadline=None, max_examples=150)
@given(st.integers(min_value=1, max_value=12).flatmap(
           lambda n: st.lists(st.lists(finite_floats, min_size=n, max_size=n),
                              min_size=1, max_size=4)),
       st.integers(min_value=0, max_value=5))
def test_sparsemax_is_distribution_and_idempotent(rows, pad):
    """Every row projects onto the simplex, whether alone, stacked or padded.

    ``pad`` masked (-inf) keys appended to a row leave its finite part's
    weights the same bits and get exactly 0.
    """
    z = np.array(rows)
    each = np.stack([sparsemax(row) for row in z])
    assert np.array_equal(sparsemax(z), each)
    assert np.all(each >= 0.0)
    assert np.abs(each.sum(axis=-1) - 1.0).max() < 1e-9
    assert np.abs(sparsemax(each) - each).max() < 1e-9
    padded = sparsemax(np.concatenate([z, np.full((len(z), pad), -np.inf)], axis=-1))
    assert np.array_equal(padded[:, : z.shape[1]], each)
    assert np.all(padded[:, z.shape[1]:] == 0.0)
    with pytest.raises(ValueError, match="non-empty"):
        sparsemax(z[:, :0])


@settings(deadline=None, max_examples=150)
@given(st.lists(finite_floats, min_size=1, max_size=12),
       st.floats(min_value=-2.0, max_value=0.0))
def test_elastic_row_bounds_for_nonpositive_tau(scores, tau):
    """Both offset rows are nonnegative and sum to at most 1 when tau <= 0.

    Row i of the score matrix holds the first i of the drawn scores.
    """
    s = np.tile(scores, (len(scores), 1))
    for mode in (ELASTIC, GLOBAL):
        rows = weight_rows(s, mode, tau)
        assert np.all(rows >= 0.0) and np.all(rows <= 1.0)
        assert rows.sum(axis=1).max() <= 1.0 + 1e-6


def test_positive_tau_rows_can_sum_above_one():
    zeros = np.zeros((4, 4))
    assert weight_rows(zeros, ELASTIC, 0.5)[3].sum() == pytest.approx(1.5)
    assert weight_rows(zeros, GLOBAL, 0.5)[3].sum() == pytest.approx(3.0)


def check_offset_gradient_away_from_kink(mode):
    """Score and tau gradients of ``mode``'s offset rows through attend_naive's vjp.

    Row i's offset is tau / i under ``elastic`` and tau under
    ``elastic_global``; draws with a pre-rectifier weight near 0 are skipped.
    """
    checked = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        s = rng.normal(size=(n, n)) * 2.0
        tau = float(rng.uniform(-1.5, -0.2))
        div = [i + 1 if mode is ELASTIC else 1 for i in range(n)]
        pre = [softmax_vec(s[i, : i + 1]) + tau / div[i] for i in range(n)]
        if min(np.abs(row).min() for row in pre) < 1e-3:  # stay off the rectifier boundary
            continue
        q, k, v = score_qkv(s, grad=True)
        tt = tau_tensor(tau, grad=True)
        w = Tensor(rng.normal(size=q.shape), dtype="float64")
        cfg = score_cfg(q, mode)
        err = check_grads(lambda: core.sum_all(core.mul(attend_naive(q, k, v, cfg, tau=tt), w)),
                          [q, tt])
        assert err < 1e-4
        checked += 1
    assert checked >= 10


def test_elastic_weights_gradient_away_from_kink():
    check_offset_gradient_away_from_kink(ELASTIC)


def test_elastic_global_weights_gradient_away_from_kink():
    check_offset_gradient_away_from_kink(GLOBAL)


def test_density_and_sink_softmax_sums_to_one():
    rng = np.random.default_rng(5)
    layers = []
    for _ in range(2):
        s = rng.normal(size=(3, 2, 6, 6))
        lower = np.tril(np.ones((6, 6), dtype=bool))
        s = np.where(lower, s, -np.inf)
        e = np.exp(s - s.max(-1, keepdims=True))
        layers.append((e / e.sum(-1, keepdims=True)).astype(np.float32))
    per_head, density, sink = density_and_sink(layers)
    for dens, snk in per_head.values():
        assert abs(dens + snk - 100.0) < 1e-4
    assert abs(density + sink - 100.0) < 1e-4


def test_density_and_sink_zero_rows():
    layers = [np.zeros((1, 2, 4, 4), dtype=np.float32)]
    _, density, sink = density_and_sink(layers)
    assert density == 0.0 and sink == 0.0


def test_density_and_sink_single_query():
    layers = [np.ones((1, 1, 1, 1), dtype=np.float32)]
    _, density, sink = density_and_sink(layers)
    assert sink == 100.0 and density == 0.0


def test_density_and_sink_rejects_empty():
    with pytest.raises(ValueError):
        density_and_sink([])
