"""Attention-path tests: scores, naive vs two-pass, heads, and gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazyattn import core
from lazyattn.attention import (
    AllocationMeter,
    AttentionConfig,
    CaptureBuffer,
    attend_naive,
    attend_two_pass,
    multi_head,
)
from lazyattn.core import Tape, Tensor, backward
from lazyattn.normalizers import NormalizerMode
from lazyattn.positional import RopeConfig, apply_rope
from lazyattn.training import AdamW

from oracles import attention_scalar_loop, check_grads, finite_diff, rel_err

MODES = {
    "softmax": NormalizerMode.SOFTMAX,
    "elastic": NormalizerMode.ELASTIC_PER_QUERY,
    "elastic_global": NormalizerMode.ELASTIC_GLOBAL,
    "fixed": NormalizerMode.ELASTIC_PER_QUERY,  # the constant -1/i offset, see mode_taus
}


def mode_taus(mode, taus):
    """Per-head taus for a ``MODES`` key: "fixed" pins every head at -1.

    The keys double as ``attention_scalar_loop`` kinds.
    """
    return np.full(len(taus), -1.0) if mode == "fixed" else np.asarray(taus, dtype=float)


def make_cfg(mode="softmax", heads=1, dh=8, positional="rope_bias", tile=64, path="naive"):
    return AttentionConfig(n_heads=heads, head_dim=dh, positional=positional,
                           normalizer=MODES.get(mode, mode), tile=tile, path=path)


def rand_qkv(rng, n, width, dtype="float64", grad=False):
    return tuple(Tensor(rng.normal(size=(n, width)), requires_grad=grad, dtype=dtype)
                 for _ in range(3))


def test_scores_zero_bias_is_scaled_dot():
    rng = np.random.default_rng(0)
    q, k, v = rand_qkv(rng, 5, 8)
    bias = Tensor(np.zeros((1, 4)), dtype="float64")
    out = attend_naive(q, k, v, make_cfg("softmax"), bias=bias).data
    want, _ = attention_scalar_loop(q.data, k.data, v.data)
    assert np.allclose(out, want, atol=1e-12)


def test_scores_unit_vectors():
    e1 = np.zeros((3, 8))
    e1[:, 0] = 1.0
    q = Tensor(e1, dtype="float64")
    v = Tensor(np.eye(3, 8), dtype="float64")
    w = attend_naive(q, q, v, make_cfg("softmax", positional="rope")).data[:, :3]
    # equal scores 1/sqrt(8) in every causal entry: row i is uniform over its i keys
    assert np.allclose(w, np.tril(np.ones((3, 3))) / np.arange(1, 4)[:, None], atol=1e-15)


def test_scores_translation_invariance():
    """Shifting (i, j) by a common delta leaves the score unchanged."""
    rng = np.random.default_rng(1)
    cfg = RopeConfig(head_dim=8)
    q = rng.normal(size=8)
    k = rng.normal(size=8)
    bias = Tensor(rng.normal(size=6), dtype="float64")  # window 5

    def score_at(i, j):
        qr = apply_rope(Tensor(q[None, :], dtype="float64"), [i], cfg)
        kr = apply_rope(Tensor(k[None, :], dtype="float64"), [j], cfg)
        dot = float(qr.data[0] @ kr.data[0]) / math.sqrt(8)
        d = i - j
        return dot + (bias.data[d] if d <= 5 else 0.0)

    for (i, j, delta) in [(3, 1, 4), (9, 9, 17), (5, 0, 100)]:
        assert math.isclose(score_at(i, j), score_at(i + delta, j + delta), abs_tol=1e-5)


def test_scores_gradient():
    rng = np.random.default_rng(2)
    q, k, v = rand_qkv(rng, 5, 8, grad=True)
    bias = Tensor(rng.normal(size=(1, 4)), requires_grad=True, dtype="float64")
    w = Tensor(rng.normal(size=(5, 8)), dtype="float64")
    cfg = make_cfg("softmax")

    def oracle(qa, ka, va, ba):
        out, _ = attention_scalar_loop(qa, ka, va, bias_vec=ba[0], window=3)
        return float((out * w.data).sum())

    err = check_grads(lambda: core.sum_all(core.mul(attend_naive(q, k, v, cfg, bias=bias), w)),
                      [q, k, v, bias], reference=oracle)
    assert err < 1e-6


def test_attend_naive_single_token_softmax():
    rng = np.random.default_rng(3)
    q, k, v = rand_qkv(rng, 1, 8)
    out = attend_naive(q, k, v, make_cfg("softmax"))
    assert np.allclose(out.data, v.data, atol=1e-12)


def test_attend_naive_uniform_elastic_rows_vanish():
    rng = np.random.default_rng(4)
    n = 6
    q = Tensor(np.zeros((n, 8)), dtype="float64")  # uniform scores
    k = Tensor(rng.normal(size=(n, 8)), dtype="float64")
    v = Tensor(rng.normal(size=(n, 8)), dtype="float64")
    tau = Tensor(np.array([-1.0]), dtype="float64")
    cap = CaptureBuffer()
    out = attend_naive(q, Tensor(np.zeros((n, 8)), dtype="float64"), v,
                       make_cfg("elastic"), tau=tau, capture=cap)
    assert np.all(out.data == 0.0)
    assert np.all(cap.layers[0] == 0.0)


@pytest.mark.parametrize("mode", list(MODES))
def test_attend_naive_matches_scalar_loop(mode):
    rng = np.random.default_rng(5)
    n, dh, window = 16, 8, 4
    q32, k32, v32 = rand_qkv(rng, n, dh, dtype="float32")
    bias = Tensor(rng.normal(size=(1, window + 1)) * 0.3, dtype="float32")
    tau = Tensor(mode_taus(mode, [-0.7]), dtype="float32")
    cfg = make_cfg(mode)
    cap = CaptureBuffer()
    out = attend_naive(q32, k32, v32, cfg, bias=bias, tau=tau, capture=cap)
    want, weights = attention_scalar_loop(
        q32.data, k32.data, v32.data, bias_vec=bias.data[0], window=window,
        tau=-0.7, kind=mode)
    assert np.abs(out.data - want).max() < 1e-6
    assert np.abs(cap.layers[0][0, 0] - weights).max() < 1e-6


def test_attend_naive_sparsemax_matches_scalar_loop():
    rng = np.random.default_rng(6)
    n, dh = 12, 8
    q, k, v = rand_qkv(rng, n, dh)
    cfg = make_cfg(NormalizerMode.SPARSEMAX, positional="rope")
    out = attend_naive(q, k, v, cfg)
    want, _ = attention_scalar_loop(q.data, k.data, v.data, kind="sparsemax")
    assert np.abs(out.data - want).max() < 1e-9


def test_attend_naive_sparsemax_gradient():
    """Sparsemax gradients on q, k, v and the bias table, batched and multi-head,
    against finite differences of the scalar-loop oracle per (sequence, head)."""
    rng = np.random.default_rng(20)
    batch, heads, n, dh = 2, 2, 6, 4
    q, k, v = rand_qkv(rng, batch * n, heads * dh, grad=True)
    bias = Tensor(rng.normal(size=(heads, 4)) * 0.5, requires_grad=True, dtype="float64")
    cot = rng.normal(size=(batch * n, heads * dh))
    cfg = make_cfg(NormalizerMode.SPARSEMAX, heads=heads, dh=dh)

    def oracle(qa, ka, va, ba):
        total = 0.0
        for b in range(batch):
            rows = slice(b * n, (b + 1) * n)
            for h in range(heads):
                cols = slice(h * dh, (h + 1) * dh)
                out, _ = attention_scalar_loop(qa[rows, cols], ka[rows, cols], va[rows, cols],
                                               bias_vec=ba[h], window=ba.shape[1] - 1,
                                               kind="sparsemax")
                total += float((out * cot[rows, cols]).sum())
        return total

    w = Tensor(cot, dtype="float64")
    err = check_grads(
        lambda: core.sum_all(core.mul(attend_naive(q, k, v, cfg, bias=bias, batch=batch), w)),
        [q, k, v, bias], reference=oracle)
    assert err < 1e-6


def test_captured_weights_are_causal_and_normalized():
    rng = np.random.default_rng(7)
    n = 10
    q, k, v = rand_qkv(rng, 2 * n, 16, dtype="float32")
    cfg = make_cfg("softmax", heads=2, dh=8)
    cap = CaptureBuffer()
    attend_naive(q, k, v, cfg, batch=2, capture=cap)
    w = cap.layers[0]
    assert w.shape == (2, 2, n, n)
    assert w.dtype == np.float32  # capture precision is fixed
    upper = ~np.tril(np.ones((n, n), dtype=bool))
    assert np.all(w[:, :, upper] == 0.0)
    assert np.abs(w.sum(axis=-1) - 1.0).max() < 1e-6


def test_two_pass_rejects_sparsemax():
    rng = np.random.default_rng(8)
    q, k, v = rand_qkv(rng, 4, 8)
    with pytest.raises(ValueError, match="sparsemax"):
        attend_two_pass(q, k, v, make_cfg(NormalizerMode.SPARSEMAX))


def test_two_pass_single_tile_reproduces_naive_exactly():
    """With one row tile (tile >= n) the output and the q, k, v, bias and tau
    gradients equal the naive path's bit for bit."""
    rng = np.random.default_rng(9)
    n, heads, dh, batch = 24, 2, 8, 2
    arrays = {name: rng.normal(size=(batch * n, heads * dh)) for name in "qkv"}
    arrays["bias"] = rng.normal(size=(heads, 9))
    cot = rng.normal(size=(batch * n, heads * dh))
    differ = []
    for dtype in ("float32", "float64"):
        for mode in MODES:
            cfg = make_cfg(mode, heads=heads, dh=dh, tile=n)
            arrays["tau"] = mode_taus(mode, [-1.0, 0.3])
            got_out, got = attend_with_grads(attend_two_pass, cfg, arrays, cot, batch, dtype)
            want_out, want = attend_with_grads(attend_naive, cfg, arrays, cot, batch, dtype)
            if not np.array_equal(got_out, want_out):
                differ.append((dtype, mode, "out"))
            for name in arrays:
                if (got[name] is None) != (want[name] is None) or (
                        got[name] is not None and not np.array_equal(got[name], want[name])):
                    differ.append((dtype, mode, name))
    assert differ == []


@pytest.mark.parametrize("tile", [16, 64])
@pytest.mark.parametrize("mode", list(MODES))
def test_two_pass_matches_naive_forward(mode, tile):
    rng = np.random.default_rng(10)
    n, heads, dh, batch = 256, 2, 8, 1
    q, k, v = rand_qkv(rng, batch * n, heads * dh, dtype="float32")
    bias = Tensor(rng.normal(size=(heads, 33)) * 0.5, dtype="float32")
    tau = Tensor(mode_taus(mode, [-1.0, -0.4]), dtype="float32")
    cfg = make_cfg(mode, heads=heads, dh=dh, tile=tile)
    a = attend_naive(q, k, v, cfg, bias=bias, tau=tau, batch=batch)
    b = attend_two_pass(q, k, v, cfg, bias=bias, tau=tau, batch=batch)
    assert np.abs(a.data - b.data).max() < 1e-5


@pytest.mark.parametrize("mode", list(MODES))
def test_two_pass_matches_naive_backward_float64(mode):
    rng = np.random.default_rng(11)
    n, heads, dh, batch = 64, 2, 8, 2
    cot = rng.normal(size=(batch * n, heads * dh))

    def grads_via(attend):
        rng2 = np.random.default_rng(12)
        q, k, v = rand_qkv(rng2, batch * n, heads * dh, grad=True)
        bias = Tensor(rng2.normal(size=(heads, 17)) * 0.5, requires_grad=True, dtype="float64")
        tau = Tensor(mode_taus(mode, [-1.0, -0.3]), requires_grad=True, dtype="float64")
        cfg = make_cfg(mode, heads=heads, dh=dh, tile=16)
        with Tape() as tape:
            out = attend(q, k, v, cfg, bias=bias, tau=tau, batch=batch)
            loss = core.sum_all(core.mul(out, Tensor(cot, dtype="float64")))
        backward(tape, loss)
        return [t.grad for t in (q, k, v, bias, tau) if t.grad is not None]

    got = grads_via(attend_two_pass)
    want = grads_via(attend_naive)
    assert len(got) == len(want)
    assert max(rel_err(g, w) for g, w in zip(got, want)) < 1e-4


def test_two_pass_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    n, dh = 7, 4
    q, k, v = rand_qkv(rng, n, dh, grad=True)
    bias = Tensor(rng.normal(size=(1, 4)) * 0.5, requires_grad=True, dtype="float64")
    tau = Tensor(np.array([-0.6]), requires_grad=True, dtype="float64")
    w = Tensor(rng.normal(size=(n, dh)), dtype="float64")
    cfg = make_cfg("elastic", dh=dh, tile=3)

    err = check_grads(
        lambda: core.sum_all(core.mul(
            attend_two_pass(q, k, v, cfg, bias=bias, tau=tau), w)),
        [q, k, v, bias, tau])
    assert err < 1e-4


def test_two_pass_auxiliary_memory_linear_in_n():
    rng = np.random.default_rng(14)
    peaks = {}
    for n in (128, 256, 512):
        q, k, v = rand_qkv(rng, n, 8, dtype="float32")
        tau = Tensor(np.array([-1.0]), dtype="float32")
        meter = AllocationMeter()
        attend_two_pass(q, k, v, make_cfg("elastic", tile=32), tau=tau, meter=meter)
        peaks[n] = meter.peak
    assert peaks[256] / peaks[128] < 2.6  # linear growth doubles, quadratic quadruples
    assert peaks[512] / peaks[256] < 2.6
    assert peaks[512] / peaks[128] < 6.0


def test_two_pass_oversized_tile_allowed():
    rng = np.random.default_rng(15)
    q, k, v = rand_qkv(rng, 5, 8)
    cfg = make_cfg("softmax", tile=64)  # tile > n collapses to one tile
    a = attend_two_pass(q, k, v, cfg)
    b = attend_naive(q, k, v, cfg)
    assert np.array_equal(a.data, b.data)


def attend_with_grads(attend, cfg, arrays, cot, batch, dtype):
    """Output of ``attend`` and the gradients of sum(output * cot) for every input.

    ``arrays`` maps q, k, v and optionally bias and tau to numpy arrays.
    """
    ts = {name: Tensor(a, requires_grad=True, dtype=dtype) for name, a in arrays.items()}
    with Tape() as tape:
        out = attend(ts["q"], ts["k"], ts["v"], cfg, bias=ts.get("bias"), tau=ts.get("tau"),
                     batch=batch)
        loss = core.sum_all(core.mul(out, Tensor(cot, dtype=dtype)))
    backward(tape, loss)
    return out.data, {name: t.grad for name, t in ts.items()}


def assert_two_pass_grads_match_naive(cfg, arrays, cot, batch):
    """At fp64, two-pass output and every input gradient agree with naive; returns the output."""
    got_out, got = attend_with_grads(attend_two_pass, cfg, arrays, cot, batch, "float64")
    want_out, want = attend_with_grads(attend_naive, cfg, arrays, cot, batch, "float64")
    assert np.abs(got_out - want_out).max() < 1e-12
    for name in arrays:  # atol: an exactly-zero gradient comes back as rounding noise
        np.testing.assert_allclose(got[name], want[name], rtol=1e-4, atol=1e-10, err_msg=name)
    return got_out


@st.composite
def attention_cases(draw, max_n=40, max_heads=3):
    """Random shapes, tiles, windows, normalizers and positional modes."""
    n = draw(st.integers(1, max_n))
    nondivisors = [t for t in range(2, n) if n % t]
    tile = draw(st.sampled_from([1, n, n + draw(st.integers(1, 8))]
                                + ([draw(st.sampled_from(nondivisors))] if nondivisors else [])))
    heads = draw(st.integers(1, max_heads))
    positional = draw(st.sampled_from(["rope", "rope_bias"]))
    mode = draw(st.sampled_from(list(MODES)))
    return dict(n=n, tile=tile, batch=draw(st.integers(1, 3)), heads=heads,
                positional=positional, mode=mode,
                window=draw(st.integers(0, n + 8)),  # tables wider than the sequence too
                taus=draw(st.lists(st.floats(-1.5, 0.5), min_size=heads, max_size=heads)),
                seed=draw(st.integers(0, 2**32 - 1)))


@settings(deadline=None, max_examples=80)
@given(st.one_of(attention_cases(), attention_cases(max_n=8)))
def test_two_pass_matches_naive_on_random_shapes(case):
    """Two-pass against naive on every draw; on the draws with n <= 8, which the
    second strategy supplies about half the time, naive's output and bias-table
    gradient against the scalar loop, per head and batch row."""
    n, batch, heads, dh = case["n"], case["batch"], case["heads"], 4
    rng = np.random.default_rng(case["seed"])
    arrays = {name: rng.normal(size=(batch * n, heads * dh)) for name in "qkv"}
    if case["positional"] == "rope_bias":
        arrays["bias"] = rng.normal(size=(heads, case["window"] + 1)) * 0.5
    taus = mode_taus(case["mode"], case["taus"])
    if MODES[case["mode"]].learns_tau:
        arrays["tau"] = taus
    cot = rng.normal(size=(batch * n, heads * dh))
    cfg = make_cfg(case["mode"], heads=heads, dh=dh, positional=case["positional"],
                   tile=case["tile"])

    ts = {name: Tensor(a, dtype="float32") for name, a in arrays.items()}
    fwd = [attend(ts["q"], ts["k"], ts["v"], cfg, bias=ts.get("bias"), tau=ts.get("tau"),
                  batch=batch).data for attend in (attend_two_pass, attend_naive)]
    assert np.abs(fwd[0] - fwd[1]).max() < 1e-5
    assert_two_pass_grads_match_naive(cfg, arrays, cot, batch)
    if n > 8:
        return
    # the shared bias code, against an independent reference
    out, grads = attend_with_grads(attend_naive, cfg, arrays, cot, batch, "float64")

    def loop(h, bias_vec, window):
        """Scalar-loop output of head h for each batch row, and sum(output * cot)."""
        outs, loss = [], 0.0
        for b in range(batch):
            rows, cols = slice(b * n, (b + 1) * n), slice(h * dh, (h + 1) * dh)
            o, _ = attention_scalar_loop(arrays["q"][rows, cols], arrays["k"][rows, cols],
                                         arrays["v"][rows, cols], bias_vec=bias_vec,
                                         window=window, tau=taus[h], kind=case["mode"])
            outs.append(o)
            loss += float((o * cot[rows, cols]).sum())
        return np.concatenate(outs), loss

    for h in range(heads):
        bias_vec, window = None, 0
        if case["positional"] == "rope_bias":
            bias_vec, window = arrays["bias"][h], case["window"]
        want, _ = loop(h, bias_vec, window)
        assert np.abs(out[:, h * dh:(h + 1) * dh] - want).max() < 1e-10
        if case["positional"] == "rope_bias":
            [fd] = finite_diff(lambda vec: loop(h, vec, window)[1], [bias_vec.copy()])
            assert rel_err(grads["bias"][h], fd) < 1e-6


@pytest.mark.parametrize("mode", ["elastic", "elastic_global"])
@pytest.mark.parametrize("tau", [-1.0, 0.7])
def test_two_pass_backward_at_row_dot_corners(mode, tau):
    """The row-dot rho_i = sum_j p_ij dpre_ij, taken over each rebuilt block, where
    rows rectify to zero and where tau > 0.

    Zeroed query rows give uniform scores; with per-query tau = -1 those
    rows rectify entirely to zero. With tau > 0 every causal entry is active
    and the rows sum above 1.
    """
    rng = np.random.default_rng(20)
    n, heads, dh, batch = 19, 2, 4, 2
    arrays = {name: rng.normal(size=(batch * n, heads * dh)) for name in "qkv"}
    arrays["q"][::2] = 0.0
    arrays["tau"] = np.full(heads, tau)
    cot = rng.normal(size=(batch * n, heads * dh))
    cfg = make_cfg(mode, heads=heads, dh=dh, positional="rope", tile=4)
    out = assert_two_pass_grads_match_naive(cfg, arrays, cot, batch)
    if mode == "elastic" and tau == -1.0:
        assert np.all(out[::2] == 0.0) and np.any(out[1::2] != 0.0)


@pytest.mark.parametrize("attend", [attend_naive, attend_two_pass])
@pytest.mark.parametrize("positional", ["rope"])
def test_bias_table_needs_rope_bias(attend, positional):
    """Only rope_bias learns a distance table; rope rejects one instead of
    shifting the scores by a table it never differentiates."""
    rng = np.random.default_rng(22)
    q, k, v = rand_qkv(rng, 5, 8)
    bias = Tensor(rng.normal(size=(1, 3)), requires_grad=True, dtype="float64")
    with pytest.raises(ValueError, match="rope_bias"):
        attend(q, k, v, make_cfg("softmax", positional=positional), bias=bias)


@pytest.mark.parametrize("attend", [attend_naive, attend_two_pass])
def test_one_head_bias_vector_gets_a_gradient_of_its_shape(attend):
    """A 1-D (window+1,) table for one head gets its gradient in that shape, the
    (1, window+1) table's values, so an AdamW step updates it in place."""
    rng = np.random.default_rng(24)
    q, k, v = rand_qkv(rng, 6, 8)
    vec = Tensor(rng.normal(size=4), requires_grad=True, dtype="float64")
    mat = Tensor(vec.data[None].copy(), requires_grad=True, dtype="float64")
    cot = Tensor(rng.normal(size=(6, 8)), dtype="float64")
    for bias in (vec, mat):
        with Tape() as tape:
            loss = core.sum_all(core.mul(attend(q, k, v, make_cfg("softmax", tile=4), bias=bias),
                                         cot))
        backward(tape, loss)
    assert vec.grad.shape == (4,) and np.all(vec.grad[:3] != 0.0)
    assert np.array_equal(vec.grad, mat.grad[0])
    AdamW({"attn.bias_table": vec}).step(1e-2)
    assert vec.data.shape == (4,)


@pytest.mark.parametrize("mode", ["elastic", "elastic_global"])
def test_tau_of_another_precision_keeps_the_inputs_dtype(mode):
    """A float64 tau on float32 inputs gives float32 output and the same weights on both paths."""
    rng = np.random.default_rng(25)
    q, k, v = rand_qkv(rng, 6, 8, dtype="float32")
    tau = Tensor(np.array([-0.1]), dtype="float64")
    outs = [attend(q, k, v, make_cfg(mode), tau=tau).data
            for attend in (attend_naive, attend_two_pass)]
    assert [o.dtype for o in outs] == [np.float32, np.float32]
    assert np.array_equal(outs[0], outs[1])


def test_two_pass_meter_counts_one_block_and_the_row_state():
    """Peak auxiliary bytes: the last row tile's score block (weights in place), the
    row max and sum, and O; the same with and without a tape."""
    rng = np.random.default_rng(21)
    n, heads, dh, batch, tile = 96, 2, 8, 2, 16
    g, isz = batch * heads, 4
    q, k, v = rand_qkv(rng, batch * n, heads * dh, dtype="float32", grad=True)
    bias = Tensor(rng.normal(size=(heads, 9)), requires_grad=True, dtype="float32")
    tau = Tensor(np.array([-1.0, -0.5]), requires_grad=True, dtype="float32")
    cfg = make_cfg("elastic", heads=heads, dh=dh, tile=tile)
    block = g * tile * n  # rows [80, 96) against keys [0, 96)
    want = (block + 2 * g * n + g * n * dh) * isz

    meter = AllocationMeter()
    attend_two_pass(q, k, v, cfg, bias=bias, tau=tau, batch=batch, meter=meter)
    assert meter.peak == want

    meter = AllocationMeter()
    with Tape():
        attend_two_pass(q, k, v, cfg, bias=bias, tau=tau, batch=batch, meter=meter)
    assert meter.peak == want


def test_two_pass_builds_each_score_block_once_per_pass(monkeypatch):
    """A tape-free forward builds one score block per row tile, and the backward
    rebuilds each once more; under rope_bias the distance term counts the blocks."""
    from lazyattn import attention

    built = []
    term = attention._distance_term
    monkeypatch.setattr(attention, "_distance_term",
                        lambda table, r0, r1, dtype: built.append((r0, r1))
                        or term(table, r0, r1, dtype))
    rng = np.random.default_rng(23)
    n, heads, dh, batch = 40, 2, 4, 2
    q, k, v = rand_qkv(rng, batch * n, heads * dh, grad=True)
    bias = Tensor(rng.normal(size=(heads, 6)), requires_grad=True, dtype="float64")
    tau = Tensor(np.array([-1.0, -0.5]), requires_grad=True, dtype="float64")
    cfg = make_cfg("elastic", heads=heads, dh=dh, tile=16)
    tiles = [(0, 16), (16, 32), (32, 40)]

    attend_two_pass(q, k, v, cfg, bias=bias, tau=tau, batch=batch)
    assert built == tiles
    built.clear()
    with Tape() as tape:
        loss = core.sum_all(attend_two_pass(q, k, v, cfg, bias=bias, tau=tau, batch=batch))
    assert built == tiles
    backward(tape, loss)
    assert built == tiles + tiles


def make_layer(rng, d, heads, window, dtype="float64"):
    """The attention entries of a model layer dict, as ``multi_head`` reads them."""
    layer = {f"attn.{name}": Tensor(rng.normal(size=(d, d)) * 0.3, requires_grad=True, dtype=dtype)
             for name in ("wq", "wk", "wv", "wo")}
    layer["attn.bias_table"] = Tensor(rng.normal(size=(heads, window + 1)) * 0.2,
                                      requires_grad=True, dtype=dtype)
    layer["attn.tau"] = Tensor(np.full(heads, -0.8), requires_grad=True, dtype=dtype)
    return layer


def test_multi_head_single_head_equals_manual_pipeline():
    rng = np.random.default_rng(16)
    d = 8
    params = make_layer(rng, d, heads=1, window=4)
    cfg = make_cfg("elastic", heads=1, dh=d)
    rope = RopeConfig(head_dim=d)
    x = Tensor(rng.normal(size=(6, d)), dtype="float64")
    positions = np.arange(6)
    got = multi_head(x, params, cfg, rope, positions)

    q = apply_rope(core.matmul(x, params["attn.wq"]), positions, rope)
    k = apply_rope(core.matmul(x, params["attn.wk"]), positions, rope)
    v = core.matmul(x, params["attn.wv"])
    want = core.matmul(attend_naive(q, k, v, cfg, bias=params["attn.bias_table"],
                                    tau=params["attn.tau"]), params["attn.wo"])
    assert np.array_equal(got.data, want.data)


def test_multi_head_permutation_symmetry():
    """Swapping head blocks and the matching output-projection rows is a no-op."""
    rng = np.random.default_rng(17)
    d, heads = 16, 2
    dh = d // heads
    params = make_layer(rng, d, heads, window=5)
    cfg = make_cfg("elastic", heads=heads, dh=dh)
    rope = RopeConfig(head_dim=dh)
    x = Tensor(rng.normal(size=(7, d)), dtype="float64")
    positions = np.arange(7)
    base = multi_head(x, params, cfg, rope, positions)

    perm_cols = np.r_[dh:2 * dh, 0:dh]
    swapped = {name: Tensor(params[name].data[:, perm_cols], dtype="float64")
               for name in ("attn.wq", "attn.wk", "attn.wv")}
    swapped["attn.wo"] = Tensor(params["attn.wo"].data[perm_cols, :], dtype="float64")
    for name in ("attn.bias_table", "attn.tau"):
        swapped[name] = Tensor(params[name].data[::-1].copy(), dtype="float64")
    permuted = multi_head(x, swapped, cfg, rope, positions)
    assert np.abs(base.data - permuted.data).max() < 1e-12


def test_multi_head_full_gradient():
    rng = np.random.default_rng(18)
    d, heads = 8, 2
    params = make_layer(rng, d, heads, window=3)
    cfg = make_cfg("elastic", heads=heads, dh=d // heads)
    rope = RopeConfig(head_dim=d // heads)
    x = Tensor(rng.normal(size=(5, d)), requires_grad=True, dtype="float64")
    w = Tensor(rng.normal(size=(5, d)), dtype="float64")
    positions = np.arange(5)
    tensors = [x, *params.values()]
    err = check_grads(
        lambda: core.sum_all(core.mul(multi_head(x, params, cfg, rope, positions), w)),
        tensors)
    assert err < 1e-4
