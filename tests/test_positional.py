"""Rotary embedding and distance-bias table tests."""

import math

import numpy as np
import pytest

from lazyattn import core
from lazyattn.attention import (
    _distance_term,
    _fold_distance_grad,
)
from lazyattn.core import Tape, Tensor, backward
from lazyattn.positional import (
    BiasTable,
    RopeConfig,
    apply_rope,
)
from lazyattn.training import AdamW

from oracles import check_grads, rope_block_rotation


CFG = RopeConfig(head_dim=8, base=10000.0)


def test_rope_config_validation():
    with pytest.raises(ValueError):
        RopeConfig(head_dim=7)
    with pytest.raises(ValueError):
        RopeConfig(head_dim=8, base=1.0)


def test_apply_rope_position_zero_is_identity():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 8)), dtype="float64")
    out = apply_rope(x, np.zeros(3, dtype=int), CFG)
    assert np.array_equal(out.data, x.data)


def test_apply_rope_preserves_norms():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(6, 8)), dtype="float32")
    out = apply_rope(x, np.arange(6) * 13, CFG)
    assert np.allclose(np.linalg.norm(out.data, axis=1),
                       np.linalg.norm(x.data, axis=1), atol=1e-6)


@pytest.mark.parametrize("delta", [1, 7, 100])
def test_apply_rope_relative_position_property(delta):
    rng = np.random.default_rng(delta)
    q = rng.normal(size=8)
    k = rng.normal(size=8)
    i, j = 11, 4

    def dot_at(ii, jj):
        qr = apply_rope(Tensor(q[None, :], dtype="float64"), [ii], CFG).data[0]
        kr = apply_rope(Tensor(k[None, :], dtype="float64"), [jj], CFG).data[0]
        return float(qr @ kr)

    assert math.isclose(dot_at(i, j), dot_at(i + delta, j + delta), abs_tol=1e-5)


def test_apply_rope_matches_block_rotation_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 8))
    positions = np.array([0, 1, 5, 42, 911])
    got = apply_rope(Tensor(x, dtype="float64"), positions, CFG).data
    want = rope_block_rotation(x, positions, CFG.base)
    assert np.abs(got - want).max() < 1e-12


def test_apply_rope_multi_head_blocks():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 16))  # two 8-wide head blocks, same frequencies
    positions = np.array([3, 0, 7, 2])
    got = apply_rope(Tensor(x, dtype="float64"), positions, CFG).data
    assert np.allclose(got[:, :8], rope_block_rotation(x[:, :8], positions, CFG.base))
    assert np.allclose(got[:, 8:], rope_block_rotation(x[:, 8:], positions, CFG.base))


def test_apply_rope_validation():
    x = Tensor(np.ones((3, 8)), dtype="float64")
    with pytest.raises(core.ShapeError):
        apply_rope(Tensor(np.ones((3, 7))), np.arange(3), CFG)
    with pytest.raises(ValueError):
        apply_rope(x, np.array([0, -1, 2]), CFG)


def test_apply_rope_gradient():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(5, 8)), requires_grad=True, dtype="float64")
    w = Tensor(rng.normal(size=(5, 8)), dtype="float64")
    positions = np.array([0, 2, 9, 1, 30])
    err = check_grads(
        lambda: core.sum_all(core.mul(apply_rope(x, positions, CFG), w)), [x])
    assert err < 1e-6


def test_bias_table_starts_at_zero():
    """Zero-initialised (heads, window + 1) tables; the window cutoff is tested below."""
    table = BiasTable(n_layers=2, n_heads=3, window=5)
    assert len(table.tables) == 2
    for t in table.tables:
        assert t.shape == (3, 6) and t.requires_grad
        assert np.all(t.data == 0.0)
    with pytest.raises(ValueError):
        BiasTable(n_layers=1, n_heads=1, window=-1)


def test_distance_bias_matrix_and_grad_roundtrip():
    """The attention paths' row-tile score term and its gradient fold, against scalar loops."""
    rng = np.random.default_rng(4)
    for k, r0, r1 in [(4, 0, 6), (4, 3, 7), (9, 2, 7), (9, 0, 1)]:
        # the whole square; rows [3, 7) x keys [0, 7) (table narrower than the keys);
        # tables wider than r1 (distances past r1 - 1 never occur); one row
        biases = rng.normal(size=(2, k))
        m = _distance_term(biases, r0, r1, np.float64)
        want = np.zeros((2, r1 - r0, r1))
        for h in range(2):
            for i in range(r0, r1):
                for j in range(r1):
                    if j > i:
                        want[h, i - r0, j] = -np.inf
                    elif i - j < k:
                        want[h, i - r0, j] = biases[h, i - j]
        assert np.array_equal(m, want)  # -inf above the diagonal, 0 beyond the table
        assert not m.flags.writeable
        mask = _distance_term(None, r0, r1, np.float64)
        assert mask.shape == (1, r1 - r0, r1)
        assert np.array_equal(mask[0], np.where(np.isinf(want[0]), -np.inf, 0.0))

        g = rng.normal(size=(6, r1 - r0, r1))  # 3 batch rows x 2 heads, group g = b * 2 + h
        folded = np.zeros((2, k))
        _fold_distance_grad(g, folded)
        want = np.zeros((2, k))
        for gi in range(6):
            for i in range(r0, r1):
                for j in range(i + 1):
                    if i - j < k:
                        want[gi % 2, i - j] += g[gi, i - r0, j]
        assert np.allclose(folded, want, rtol=1e-12, atol=1e-12)


def test_bias_gradient_only_at_realized_distances():
    """One optimizer step moves a realized distance, never an unrealized one."""
    from lazyattn.model import ModelConfig, TransformerLM

    cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, n_ctx=8, window=16,
                      positional="rope_bias", normalizer="softmax", seed=3)
    model = TransformerLM(cfg)
    assert model.window == 8  # clamped to the context length
    table = model.layers[0]["attn.bias_table"]
    before = table.data.copy()
    ids = np.arange(8)[None, :] % 250
    with Tape() as tape:
        loss = model.loss(ids, np.roll(ids, -1, axis=1))
    backward(tape, loss)
    grad = table.grad
    assert grad is not None
    assert np.any(grad[:, 3] != 0.0)
    assert np.all(grad[:, 8] == 0.0)  # distance 8 never occurs for 8 queries

    opt = AdamW(model.parameters(), weight_decay=0.01)
    opt.step(1e-2)
    assert np.any(table.data[:, 3] != before[:, 3])
    assert np.array_equal(table.data[:, 8], before[:, 8])
