"""Tensor-engine unit tests: op semantics plus finite-difference gradients."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from lazyattn import core
from lazyattn.core import ShapeError, Tape, Tensor, backward

from oracles import check_grads, rel_err


def t64(arr, grad=True):
    return Tensor(np.asarray(arr), requires_grad=grad, dtype="float64")


def test_matmul_identity():
    m = t64([[1.0, 2.0], [3.0, 4.0]])
    eye = t64(np.eye(2), grad=False)
    out = core.matmul(eye, m)
    assert np.array_equal(out.data, m.data)


def test_matmul_hand_arithmetic():
    a = t64([[1.0, 2.0], [3.0, 4.0]])
    b = t64([[1.0], [1.0]])
    assert np.array_equal(core.matmul(a, b).data, [[3.0], [7.0]])


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        core.matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = t64(rng.normal(size=(5, 4)))
    b = t64(rng.normal(size=(4, 3)))
    err = check_grads(lambda: core.sum_all(core.matmul(a, b)), [a, b])
    assert err < 1e-6


def test_relu_values_and_subgradient_at_zero():
    x = t64([-1.0, 0.0, 2.0])
    with Tape() as tape:
        out = core.sum_all(core.relu(x))
    assert np.array_equal(core.relu(x).data, [0.0, 0.0, 2.0])
    backward(tape, out)
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])  # exactly 0 at the kink


def test_exp_gradient():
    rng = np.random.default_rng(3)
    x = t64(rng.normal(size=(4, 3)))
    err = check_grads(lambda: core.sum_all(core.exp(x)), [x])
    assert err < 1e-6


def test_elementwise_broadcast_rules():
    x = t64(np.ones((2, 2)))
    s = t64([2.0])
    assert np.array_equal(core.mul(x, s).data, 2 * np.ones((2, 2)))
    with pytest.raises(ShapeError):
        core.add(x, t64(np.ones(2)))


def test_scalar_broadcast_gradient():
    x = t64(np.arange(6.0).reshape(2, 3))
    s = t64([3.0])
    err = check_grads(lambda: core.sum_all(core.mul(x, s)), [x, s])
    assert err < 1e-6


def test_layernorm_constant_row():
    x = t64(np.full((1, 8), 3.7))
    gain = t64(np.ones(8))
    bias = t64(np.zeros(8))
    out = core.layernorm(x, gain, bias)
    assert np.abs(out.data).max() < 1e-8  # variance guarded by eps


def test_layernorm_output_mean_tracks_bias():
    rng = np.random.default_rng(2)
    x = t64(rng.normal(size=(3, 16)))
    gain = t64(np.ones(16))
    bias = t64(rng.normal(size=16))
    out = core.layernorm(x, gain, bias)
    assert np.allclose(out.data.mean(axis=1), bias.data.mean(), atol=1e-6)


def test_layernorm_gradient():
    rng = np.random.default_rng(9)
    x = t64(rng.normal(size=(4, 8)))
    gain = t64(rng.normal(size=8))
    bias = t64(rng.normal(size=8))
    w = t64(rng.normal(size=(4, 8)), grad=False)
    err = check_grads(lambda: core.sum_all(core.mul(core.layernorm(x, gain, bias), w)),
                      [x, gain, bias])
    assert err < 1e-5


def test_cross_entropy_uniform_logits():
    logits = t64(np.zeros((5, 4)))
    loss = core.cross_entropy(logits, np.zeros(5, dtype=int))
    assert math.isclose(loss.item(), math.log(4), rel_tol=1e-12)


def test_cross_entropy_margin_drives_loss_to_zero():
    last = None
    for margin in (5.0, 20.0, 60.0):
        logits = np.zeros((3, 7))
        logits[np.arange(3), [1, 2, 3]] = margin
        loss = core.cross_entropy(t64(logits), np.array([1, 2, 3])).item()
        if last is not None:
            assert loss < last
        last = loss
    assert last < 1e-20


def test_cross_entropy_target_range():
    with pytest.raises(IndexError):
        core.cross_entropy(t64(np.zeros((2, 3))), np.array([0, 3]))


def test_cross_entropy_gradient():
    rng = np.random.default_rng(13)
    logits = t64(rng.normal(size=(6, 5)))
    targets = rng.integers(0, 5, size=6)
    err = check_grads(lambda: core.cross_entropy(logits, targets), [logits])
    assert err < 1e-5


def test_backward_sum_gives_ones():
    x = t64(np.arange(12.0).reshape(3, 4))
    with Tape() as tape:
        loss = core.sum_all(x)
    backward(tape, loss)
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_quadratic():
    x = t64([1.0, -2.0, 3.0])
    with Tape() as tape:
        loss = core.sum_all(core.mul(x, x))
    backward(tape, loss)
    assert np.allclose(x.grad, 2 * x.data)


def test_backward_requires_scalar_loss():
    x = t64(np.ones((2, 2)))
    with Tape() as tape:
        y = core.mul(x, x)
    with pytest.raises(ValueError):
        backward(tape, y)


def test_backward_rejects_off_tape_loss():
    x = t64(np.ones(3))
    with Tape():
        core.sum_all(x)
    loss = core.sum_all(x)  # produced outside any tape
    with Tape() as other:
        core.sum_all(x)
        with pytest.raises(ValueError):
            backward(other, loss)


def gelu_step_grads(x, w):
    """Leaf gradients of one gelu(x @ w) step, taped on a fresh tape."""
    with Tape() as tape:
        loss = core.sum_all(core.gelu(core.matmul(x, w)))
    backward(tape, loss)
    return x.grad.tobytes(), w.grad.tobytes()


def test_the_same_step_on_two_fresh_tapes_is_bit_identical():
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(size=(16, 8)), requires_grad=True, dtype="float32")
    w = Tensor(rng.normal(size=(8, 8)), requires_grad=True, dtype="float32")
    first = gelu_step_grads(x, w)
    x.grad = w.grad = None
    assert gelu_step_grads(x, w) == first


def test_backward_consumes_its_tape_and_leaves_grads_only_on_leaves():
    rng = np.random.default_rng(22)
    x = t64(rng.normal(size=(4, 3)))
    w = t64(rng.normal(size=(3, 5)))
    with Tape() as tape:
        h = core.matmul(x, w)
        loss = core.sum_all(core.gelu(h))
    assert len(tape) == 3
    backward(tape, loss)
    assert len(tape) == 0
    assert h.grad is None and loss.grad is None
    assert x.grad.shape == x.shape and w.grad.shape == w.shape
    with pytest.raises(ValueError, match="consumed"):
        backward(tape, loss)


def column_views(a, b):
    """Columns of a then b, with a vjp that hands each input a view of the upstream grad."""
    out = Tensor(np.concatenate([a.data, b.data], axis=1), requires_grad=True)
    return core.record_op(out, (a, b), lambda g: (g[:, :4], g[:, 4:]))


@pytest.mark.parametrize("op", ["add", "add_row", "column_views"])
def test_backward_gives_each_leaf_its_own_grad(op):
    """A vjp that hands back the upstream grad (or views of it) to two inputs
    still leaves each input a grad of its own."""
    rng = np.random.default_rng(23)
    a = t64(rng.normal(size=(3, 4)))
    b = t64(rng.normal(size=4) if op == "add_row" else rng.normal(size=(3, 4)))
    cot = Tensor(rng.normal(size=(3, 8) if op == "column_views" else (3, 4)), dtype="float64")
    with Tape() as tape:
        out = {"add": lambda: core.add(a, b), "add_row": lambda: core.add_row(a, b),
               "column_views": lambda: column_views(a, b)}[op]()
        loss = core.sum_all(core.mul(out, cot))
    backward(tape, loss)
    b_grad = b.grad.copy()
    a.grad += 1.0
    assert np.array_equal(b.grad, b_grad)
    assert not np.may_share_memory(a.grad, b.grad)


def test_backward_copies_one_array_handed_to_two_inputs():
    x = t64([1.0, 2.0])
    y = t64([3.0, 4.0])

    def vjp(g):
        d = g * 2.0
        return d, d

    with Tape() as tape:
        out = core.record_op(Tensor(x.data + y.data, requires_grad=True), (x, y), vjp)
        loss = core.sum_all(out)
    backward(tape, loss)
    x.grad += 1.0
    assert np.array_equal(x.grad, [3.0, 3.0])
    assert np.array_equal(y.grad, [2.0, 2.0])


def test_backward_copies_before_accumulating_into_an_input_listed_twice():
    """x takes the upstream grad and then accumulates into it; y still gets the grad unchanged."""
    x = t64([1.0, 2.0])
    y = t64([3.0, 4.0])
    with Tape() as tape:
        out = core.record_op(Tensor(2 * x.data + y.data, requires_grad=True), (x, x, y),
                             lambda g: (g, g, g))
        loss = core.sum_all(core.mul(out, t64([1.0, 10.0], grad=False)))
    backward(tape, loss)
    assert np.array_equal(x.grad, [2.0, 20.0])
    assert np.array_equal(y.grad, [1.0, 10.0])


def model_step_grads(model, ids):
    """Parameter gradients of one loss step on a fresh tape, then cleared from the model."""
    with Tape() as tape:
        loss = model.loss(ids[:, :-1], ids[:, 1:])
    backward(tape, loss)
    grads = {name: t.grad.tobytes() for name, t in model.parameters().items()}
    model.zero_grads()
    return grads


def test_the_same_model_step_on_two_fresh_tapes_is_bit_identical():
    """First gradients taken without a copy leave nothing behind that a later step reuses."""
    from lazyattn.model import ModelConfig, TransformerLM

    model = TransformerLM(ModelConfig(n_layers=2, d_model=16, n_heads=2, n_ctx=8, window=4))
    ids = np.random.default_rng(24).integers(0, 256, size=(2, 9))
    assert model_step_grads(model, ids) == model_step_grads(model, ids)


@pytest.mark.parametrize("path, n", [("naive", 32), ("two_pass", 64)])
@pytest.mark.parametrize("normalizer", ["softmax", "elastic"])
def test_backward_peak_stays_near_what_the_forward_left(path, n, normalizer):
    """Consuming the tape frees each record's saved arrays and output gradient as it goes.

    tracemalloc sees numpy's buffers. Above the pre-forward baseline, the
    backward's peak stays under 1.3 times what the forward left allocated
    (a backward that keeps the whole tape and every intermediate gradient
    until it returns reads above 1.5), and once it returns little more than
    the leaf gradients stays allocated (one that keeps the tape's records
    keeps the whole forward).
    """
    from lazyattn.model import ModelConfig, TransformerLM

    model = TransformerLM(ModelConfig(n_layers=2, d_model=32, n_heads=2, n_ctx=n, window=16,
                                      normalizer=normalizer, attention_path=path, tile=8))
    ids = np.random.default_rng(25).integers(0, 256, size=(4, n + 1))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            loss = model.loss(ids[:, :-1], ids[:, 1:])
        forward = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        backward(tape, loss)
        kept, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * forward, (peak, forward, peak / forward)
    grads = sum(t.grad.nbytes for t in model.parameters().values() if t.grad is not None)
    assert kept < grads + 0.1 * forward, (kept, grads, forward)


def test_embedding_backward_matches_a_scalar_loop():
    """Repeated ids sum their rows; ids absent from the batch get zero rows."""
    rng = np.random.default_rng(18)
    table = t64(rng.normal(size=(7, 5)))
    ids = np.array([4, 1, 4, 6, 4, 1, 0])  # 2, 3 and 5 absent; 4 three times
    g = rng.normal(size=(len(ids), 5))
    with Tape() as tape:
        loss = core.sum_all(core.mul(core.embedding(table, ids), t64(g, grad=False)))
    backward(tape, loss)
    want = np.zeros_like(table.data)
    for i, row in enumerate(ids):
        want[row] += g[i]
    np.testing.assert_allclose(table.grad, want, rtol=1e-12, atol=0)
    assert not table.grad[[2, 3, 5]].any()


def test_tapes_record_only_their_own_thread():
    """A tape sees only the ops of the thread that entered it, with more threads than cores."""
    per_thread, n_threads = 40, 6
    main = Tape()
    tapes: dict[int, Tape] = {}
    start = threading.Barrier(n_threads)

    def work(k):
        x = t64(np.full((4, 4), float(k)))
        with Tape() as tape:
            start.wait(timeout=10)
            for _ in range(per_thread):
                x = core.scale(core.add(x, 1.0), 0.5)
        tapes[k] = tape

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with main:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(main) == 0
    assert sorted(tapes) == list(range(n_threads))
    for k, tape in tapes.items():  # one unbroken chain, starting from this thread's input
        assert len(tape) == 2 * per_thread
        assert tape.records[0].inputs[0].data[0, 0] == k
        for prev, rec in zip(tape.records, tape.records[1:]):
            assert rec.inputs[0] is prev.output


@pytest.mark.skipif(not core.BLAS_PINNABLE, reason="numpy's BLAS exposes no thread setter")
def test_one_blas_thread_restores_the_count_on_exit_and_on_error():
    get = core._BLAS_THREADS[0]
    before = get()
    with core.one_blas_thread():
        assert get() == 1
    assert get() == before
    with pytest.raises(RuntimeError):
        with core.one_blas_thread():
            raise RuntimeError("shard failed")
    assert get() == before


def test_add_row_and_gelu_grads():
    rng = np.random.default_rng(19)
    x = t64(rng.normal(size=(5, 4)))
    r = t64(rng.normal(size=4))
    err = check_grads(lambda: core.sum_all(core.gelu(core.add_row(x, r))), [x, r])
    assert err < 1e-6


def test_all_core_ops_gradient_sweep():
    """The module invariant: FD agreement at h=1e-5, 64-bit, over 20 seeds."""
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = t64(rng.normal(size=(4, 6)))
        w = t64(rng.normal(size=(6, 5)))
        gain = t64(rng.normal(size=5))
        bias = t64(rng.normal(size=5))
        targets = rng.integers(0, 5, size=4)

        def build():
            h = core.matmul(x, w)
            h = core.layernorm(h, gain, bias)
            h = core.add(core.gelu(h), core.scale(core.exp(core.scale(h, 0.1)), 0.5))
            h = core.mul(h, h)
            return core.cross_entropy(h, targets)

        worst = max(worst, check_grads(build, [x, w, gain, bias]))
    assert worst < 1e-4


def test_rel_err_helper_sane():
    assert rel_err(np.ones(3), np.ones(3)) == 0.0
