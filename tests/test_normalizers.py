"""Row-normalizer tests: rectified offsets, sparsemax, density/sink stats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazyattn.core import Tensor
from lazyattn.normalizers import (
    density_and_sink,
    elastic_row,
    elastic_weights,
    fixed_offset_row,
    global_offset_row,
    sparsemax_row,
    stable_softmax,
)

from oracles import check_grads, sparsemax_bisection

finite_floats = st.floats(min_value=-30, max_value=30, allow_nan=False)


def test_elastic_uniform_scores_cancel_exactly():
    for i in (1, 2, 3, 5, 17, 64):
        row = elastic_row(np.zeros(i), i, -1.0)
        assert np.all(row == 0.0)  # 1/i - 1/i rectifies to exactly zero


def test_elastic_zero_tau_is_softmax():
    rng = np.random.default_rng(0)
    s = rng.normal(size=9)
    assert np.abs(elastic_row(s, 9, 0.0) - stable_softmax(s)).max() < 1e-7


def test_elastic_zero_tau_bit_comparable_to_core_softmax():
    from lazyattn import core

    rng = np.random.default_rng(8)
    s = rng.normal(size=11)
    row = elastic_row(s, 11, 0.0)
    want = core.softmax_lastdim(Tensor(s, dtype="float64")).data
    assert np.abs(row - want).max() < 1e-7


def test_elastic_first_query_forced_to_zero():
    assert elastic_row(np.array([3.2]), 1, -1.0) == np.array([0.0])


def test_elastic_reference_values():
    # softmax([2,0,0]) = [0.78699..., 0.10650..., 0.10650...]; offset -1/3
    row = elastic_row(np.array([2.0, 0.0, 0.0]), 3, -1.0)
    e2 = math.exp(2.0)
    p0 = e2 / (e2 + 2.0)
    want = np.array([p0 - 1.0 / 3.0, 0.0, 0.0])
    assert np.allclose(row, want, atol=1e-12)
    assert abs(row[0] - 0.45365271) < 1e-8


def test_elastic_row_validation():
    with pytest.raises(ValueError):
        elastic_row(np.zeros(3), 4, -1.0)
    with pytest.raises(ValueError):
        elastic_row(np.zeros(0), 0, -1.0)


def test_fixed_offset_examples():
    assert np.all(fixed_offset_row(np.zeros(6), 6) == 0.0)
    row = fixed_offset_row(np.array([math.log(3.0), 0.0]), 2)
    assert np.allclose(row, [0.25, 0.0], atol=1e-12)


def test_fixed_offset_matches_frozen_elastic():
    rng = np.random.default_rng(1)
    for i in (1, 2, 5, 11):
        s = rng.normal(size=i)
        assert np.array_equal(fixed_offset_row(s, i), elastic_row(s, i, -1.0))


def test_global_offset_examples():
    rng = np.random.default_rng(2)
    s = rng.normal(size=5)
    assert np.allclose(global_offset_row(s, 0.0), stable_softmax(s), atol=1e-15)
    assert np.all(global_offset_row(s, -1.0) == 0.0)  # every entry <= 1
    p = np.log(np.array([0.5, 0.3, 0.2]))
    assert np.allclose(global_offset_row(p, -0.2), [0.3, 0.1, 0.0], atol=1e-12)


def test_sparsemax_examples():
    assert np.allclose(sparsemax_row(np.array([0.5, 0.5])), [0.5, 0.5])
    # KKT threshold for [2, 0] is 1: sum(max(z - 1, 0)) = 1
    assert np.allclose(sparsemax_row(np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-12)


def test_sparsemax_matches_bisection_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = rng.normal(size=8) * rng.uniform(0.1, 5.0)
        assert np.abs(sparsemax_row(z) - sparsemax_bisection(z)).max() < 1e-9


@settings(deadline=None, max_examples=150)
@given(st.lists(finite_floats, min_size=1, max_size=12))
def test_sparsemax_is_distribution_and_idempotent(scores):
    z = np.array(scores)
    w = sparsemax_row(z)
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) < 1e-9
    assert np.abs(sparsemax_row(w) - w).max() < 1e-9


@settings(deadline=None, max_examples=150)
@given(st.lists(finite_floats, min_size=1, max_size=12),
       st.floats(min_value=-2.0, max_value=0.0))
def test_elastic_row_bounds_for_nonpositive_tau(scores, tau):
    """Both offset rows are nonnegative and sum to at most 1 when tau <= 0."""
    i = len(scores)
    for row in (elastic_row(np.array(scores), i, tau), global_offset_row(np.array(scores), tau)):
        assert np.all(row >= 0.0) and np.all(row <= 1.0)
        assert row.sum() <= 1.0 + 1e-6


def test_positive_tau_rows_can_sum_above_one():
    scores = np.zeros(4)
    assert elastic_row(scores, 4, 0.5).sum() == pytest.approx(1.5)
    assert global_offset_row(scores, 0.5).sum() == pytest.approx(3.0)


def test_elastic_weights_gradient_away_from_kink():
    rng = np.random.default_rng(4)
    checked = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        i = int(rng.integers(2, 9))
        s = rng.normal(size=i) * 2.0
        tau = float(rng.uniform(-1.5, -0.2))
        pre = stable_softmax(s) + tau / i
        if np.abs(pre).min() < 1e-3:  # stay off the rectifier boundary
            continue
        st_ = Tensor(s, requires_grad=True, dtype="float64")
        tt = Tensor(np.array(tau), requires_grad=True, dtype="float64")
        w = Tensor(rng.normal(size=i), dtype="float64")
        from lazyattn import core

        err = check_grads(lambda: core.sum_all(core.mul(elastic_weights(st_, tt), w)),
                          [st_, tt])
        assert err < 1e-4
        checked += 1
    assert checked >= 10


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
