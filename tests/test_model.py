"""Model assembly, causality, determinism, checkpoints, ablation identities."""

import json
import math
import struct

import numpy as np
import pytest

from lazyattn import core
from lazyattn.core import Tensor
from lazyattn.model import (
    CheckpointError,
    ModelConfig,
    TransformerLM,
    load_checkpoint,
    save_checkpoint,
)

from oracles import check_grads

TINY = dict(n_layers=2, d_model=16, n_heads=2, n_ctx=12, window=6)


def tiny_model(seed=0, dtype="float32", **over):
    kw = {**TINY, **over}
    return TransformerLM(ModelConfig(seed=seed, dtype=dtype, **kw))


def rand_ids(rng, b, n, vocab=256):
    return rng.integers(0, vocab, size=(b, n))


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=10, n_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(n_ctx=1)
    with pytest.raises(ValueError):
        ModelConfig(normalizer="bogus")
    with pytest.raises(ValueError):
        ModelConfig(n_heads=0)
    with pytest.raises(ValueError):
        ModelConfig(positional="bogus")
    with pytest.raises(ValueError):
        ModelConfig(normalizer="sparsemax", attention_path="two_pass")
    ModelConfig(normalizer="sparsemax")  # the naive path supports it
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ModelConfig(seed=-1)  # numpy's generator would reject it at model build
    for layers in (0, -1):
        with pytest.raises(ValueError, match="n_layers must be >= 1"):
            ModelConfig(n_layers=layers)


def test_vocab_size_is_bytes_plus_bos():
    assert ModelConfig().vocab_size == 257


def test_zeroed_output_projections_make_block_identity():
    model = tiny_model(dtype="float64")
    for lp in model.layers:
        lp["attn.wo"].data[:] = 0.0
        lp["ffn.w2"].data[:] = 0.0
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(5, 16)), dtype="float64")
    out = model.block_forward(x, 0, np.arange(5))
    assert np.array_equal(out.data, x.data)  # residual path carries everything


def test_block_preserves_shape():
    model = tiny_model()
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(2 * 12, 16)), dtype="float32")
    out = model.block_forward(x, 1, np.tile(np.arange(12), 2), batch=2)
    assert out.shape == (24, 16)


def test_block_gradient_matches_finite_differences():
    # softmax normalizer: the whole block is smooth except the GELU tails
    model = TransformerLM(ModelConfig(n_layers=1, d_model=8, n_heads=2, n_ctx=6,
                                      window=4, dtype="float64", seed=2,
                                      normalizer="softmax"))
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(6, 8)), requires_grad=True, dtype="float64")
    w = Tensor(rng.normal(size=(6, 8)), dtype="float64")
    params = [x] + [t for t in model.layers[0].values()]
    err = check_grads(
        lambda: core.sum_all(core.mul(model.block_forward(x, 0, np.arange(6)), w)),
        params)
    assert err < 1e-4


def elastic_kink_distance(model, x, positions):
    """Min |softmax + tau/i| over causal entries: FD validity margin."""
    from lazyattn.attention import CaptureBuffer

    cap = CaptureBuffer()
    softmax_twin = TransformerLM(model.cfg.__class__(**{
        **model.cfg.__dict__, "normalizer": "softmax"}))
    for name, t in model.params.items():
        softmax_twin.params[name].data = t.data.copy()
    softmax_twin.block_forward(x, 0, positions, capture=cap)
    p = cap.layers[0][0].astype(np.float64)  # (H, n, n) softmax probs
    tau = model.layers[0]["attn.tau"].data
    n = p.shape[-1]
    pre = p + (tau[:, None] / np.arange(1, n + 1))[:, :, None]
    lower = np.tril(np.ones((n, n), dtype=bool))
    return np.abs(pre[:, lower]).min()


def test_block_gradient_elastic_off_kink():
    """Elastic-normalizer block FD check, guarded away from the rectifier kink."""
    model = TransformerLM(ModelConfig(n_layers=1, d_model=8, n_heads=2, n_ctx=6,
                                      window=4, dtype="float64", seed=2,
                                      normalizer="elastic", tau_init=-0.6))
    for lp in model.layers:  # spread the scores so no entry sits near the kink
        lp["attn.wq"].data *= 40.0
        lp["attn.wk"].data *= 40.0
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(6, 8)), requires_grad=True, dtype="float64")
    positions = np.arange(6)
    assert elastic_kink_distance(model, x, positions) > 1e-3
    w = Tensor(rng.normal(size=(6, 8)), dtype="float64")
    params = [x] + [t for t in model.layers[0].values()]
    err = check_grads(
        lambda: core.sum_all(core.mul(model.block_forward(x, 0, positions), w)),
        params)
    assert err < 1e-4


def test_lm_forward_causality_bitwise():
    model = tiny_model(seed=4)
    rng = np.random.default_rng(5)
    ids = rand_ids(rng, 1, 10)
    base = model.lm_forward(ids).data.copy()
    t = 6
    mutated = ids.copy()
    mutated[0, t + 1] = (mutated[0, t + 1] + 17) % 256
    after = model.lm_forward(mutated).data
    assert np.array_equal(base[: t + 1], after[: t + 1])
    assert not np.array_equal(base[t + 1:], after[t + 1:])


def test_lm_forward_deterministic_across_builds():
    rng = np.random.default_rng(6)
    ids = rand_ids(rng, 2, 12)
    a = tiny_model(seed=7).lm_forward(ids).data
    b = tiny_model(seed=7).lm_forward(ids).data
    assert np.array_equal(a, b)


def test_lm_forward_length_limit_and_override():
    model = tiny_model()
    too_long = np.zeros((1, 13), dtype=int)
    with pytest.raises(ValueError, match="exceeds"):
        model.lm_forward(too_long)
    out = model.lm_forward(too_long, max_len=13)  # extrapolation is explicit
    assert out.shape == (13, model.cfg.vocab_size)


def test_untrained_perplexity_near_vocab_size():
    model = tiny_model(seed=8)
    rng = np.random.default_rng(9)
    ids = rand_ids(rng, 4, 12, vocab=256)
    loss = model.loss(ids[:, :-1], ids[:, 1:]).item()
    ppl = math.exp(loss)
    v = model.cfg.vocab_size
    assert v / 1.5 < ppl < v * 1.5


def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = tiny_model(seed=10)
    rng = np.random.default_rng(11)
    ids = rand_ids(rng, 1, 12)
    before = model.lm_forward(ids).data.copy()
    path = tmp_path / "model.bin"
    save_checkpoint(model, path, step=42, metrics={"loss": 1.5})
    loaded, manifest = load_checkpoint(path)
    assert manifest["step"] == 42
    assert manifest["metrics"]["loss"] == 1.5
    after = loaded.lm_forward(ids).data
    assert np.array_equal(before, after)
    for name, t in model.params.items():
        assert np.array_equal(t.data, loaded.params[name].data), name


def test_checkpoint_truncation_detected(tmp_path):
    model = tiny_model(seed=12)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    for cut in [*range(0, len(blob), 97), len(blob) // 2, len(blob) - 3, len(blob) - 1]:
        bad = tmp_path / f"cut{cut}.bin"
        bad.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _rewrite_manifest(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with ``edit(manifest)`` as its manifest."""
    blob = src.read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, 8)
    header = json.dumps(edit(json.loads(blob[12:12 + hlen]))).encode("utf-8")
    dst.write_bytes(blob[:8] + struct.pack("<I", len(header)) + header + blob[12 + hlen:])


def _set(path, value):
    """Manifest edit that sets (or, for value None, deletes) one nested field."""
    def edit(m):
        node = m
        for key in path[:-1]:
            node = node[key]
        if value is None:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return m
    return edit


MANIFEST_CORRUPTIONS = {
    "not an object": lambda m: [m],
    "format missing": _set(["format"], None),
    "dtype missing": _set(["dtype"], None),
    "dtype float16": _set(["dtype"], "float16"),
    "config not an object": _set(["config"], [1, 2]),
    "config unknown key": _set(["config", "extra"], 1),
    "config missing key": _set(["config", "n_heads"], None),
    "config int as string": _set(["config", "n_layers"], "2"),
    "config int as bool": _set(["config", "n_layers"], True),
    "config bool as int": _set(["config", "freeze_tau"], 0),
    "config float as string": _set(["config", "rope_base"], "1e4"),
    "config invalid value": _set(["config", "d_model"], 15),
    "config zero heads": _set(["config", "n_heads"], 0),
    "config zero layers": _set(["config", "n_layers"], 0),
    "config nan tau_init": _set(["config", "tau_init"], float("nan")),
    "config unknown normalizer": _set(["config", "normalizer"], "entmax"),
    "config removed normalizer fixed": _set(["config", "normalizer"], "fixed"),
    "config removed positional alibi": _set(["config", "positional"], "alibi"),
    "config removed key mask_token": _set(["config", "mask_token"], False),
    "params not a list": _set(["params"], {"embed": [257, 16]}),
    "params entry not an object": _set(["params", 0], "embed"),
    "params entry without shape": _set(["params", 0, "shape"], None),
    "params entry without name": _set(["params", 0, "name"], None),
    "params shape not ints": _set(["params", 0, "shape"], ["257", 16]),
    "params shape negative": _set(["params", 0, "shape"], [-257, 16]),
    "params renamed": _set(["params", 0, "name"], "embedding"),
}


@pytest.mark.parametrize("corruption", list(MANIFEST_CORRUPTIONS))
def test_checkpoint_corrupt_manifest_field_rejected(tmp_path, corruption):
    path = tmp_path / "model.bin"
    save_checkpoint(tiny_model(seed=12), path)
    bad = tmp_path / "bad.bin"
    _rewrite_manifest(path, bad, MANIFEST_CORRUPTIONS[corruption])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


def test_checkpoint_random_header_bytes_load_or_raise_checkpoint_error(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(tiny_model(seed=12), path)
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, 8)
    rng = np.random.default_rng(22)
    bad = tmp_path / "bad.bin"
    for _ in range(150):
        mutated = bytearray(blob)
        mutated[12 + int(rng.integers(hlen))] = int(rng.integers(256))
        bad.write_bytes(bytes(mutated))
        try:
            load_checkpoint(bad)
        except CheckpointError:
            pass


def test_cli_reports_corrupt_manifest_with_exit_code_2(tmp_path, capsys):
    from lazyattn.cli import main

    path = tmp_path / "model.bin"
    save_checkpoint(tiny_model(seed=12), path)
    bad = tmp_path / "bad.bin"
    for corruption in ("config unknown key", "config zero heads", "config zero layers",
                       "config nan tau_init", "config removed positional alibi"):
        _rewrite_manifest(path, bad, MANIFEST_CORRUPTIONS[corruption])
        out = tmp_path / "t.csv"
        assert main(["export-offsets", "--checkpoint", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


def test_checkpoint_cross_precision_load(tmp_path):
    model = tiny_model(seed=13, dtype="float64")
    path = tmp_path / "model64.bin"
    save_checkpoint(model, path)
    loaded, manifest = load_checkpoint(path, dtype="float32")
    assert manifest["dtype"] == "float64"
    worst = 0.0
    for name, t in model.params.items():
        delta = np.abs(loaded.params[name].data.astype(np.float64) - t.data)
        scale = np.maximum(np.abs(t.data), 1.0)
        worst = max(worst, float((delta / scale).max()))
    assert worst < 1e-6  # float32 cast keeps ~7 significant digits


def test_ablation_identity_frozen_tau_equals_softmax():
    """Elastic with tau frozen at zero computes exactly the softmax model."""
    rng = np.random.default_rng(14)
    ids = rand_ids(rng, 2, 12)
    minus_elastic = tiny_model(seed=15, normalizer="elastic", tau_init=0.0, freeze_tau=True)
    softmax = tiny_model(seed=15, normalizer="softmax")
    a = minus_elastic.lm_forward(ids).data
    b = softmax.lm_forward(ids).data
    assert np.abs(a - b).max() < 1e-7


def test_ablation_identity_frozen_bias_equals_rope_only():
    rng = np.random.default_rng(16)
    ids = rand_ids(rng, 2, 12)
    minus_positional = tiny_model(seed=17, positional="rope_bias", freeze_bias=True)
    rope_only = tiny_model(seed=17, positional="rope")
    a = minus_positional.lm_forward(ids).data
    b = rope_only.lm_forward(ids).data
    assert np.abs(a - b).max() < 1e-7


def test_frozen_parameters_not_trainable():
    from lazyattn.training import AdamW

    model = tiny_model(freeze_tau=True, freeze_bias=True)
    params = model.parameters()
    frozen = {k for k, t in params.items() if not t.requires_grad}
    assert frozen == {f"layer{li}.attn.{name}" for li in range(model.cfg.n_layers)
                      for name in ("tau", "bias_table")}
    assert [k for k, _ in AdamW(params).items] == [k for k in params if k not in frozen]


def test_two_pass_model_matches_naive_model():
    rng = np.random.default_rng(18)
    ids = rand_ids(rng, 2, 12)
    naive = tiny_model(seed=19, attention_path="naive")
    tiled = tiny_model(seed=19, attention_path="two_pass", tile=5)
    assert np.abs(naive.lm_forward(ids).data - tiled.lm_forward(ids).data).max() < 1e-5


def test_attention_path_switches_on_a_built_model():
    """Setting ``attn_cfg.path`` on a built model moves its next forward to that path.

    A benchmark compares the two paths on one loaded checkpoint this way, so
    a path fixed at build time would compare ``two_pass`` with itself.
    """
    from lazyattn.attention import AllocationMeter

    ids = rand_ids(np.random.default_rng(20), 2, 12)
    model = tiny_model(seed=21, tile=5)
    logits = {}
    for path in ("naive", "two_pass", "naive"):
        model.attn_cfg.path = path
        meter = AllocationMeter()
        logits[path] = model.lm_forward(ids, meter=meter).data
        assert (meter.peak > 0) == (path == "two_pass"), path
    assert np.abs(logits["naive"] - logits["two_pass"]).max() < 1e-5
