"""Diagnostics tests: perplexity evals, probes, sink stats, exports."""

import csv
import math

import numpy as np
import pytest

from lazyattn.diagnostics import (
    eval_ppl,
    export_bias,
    export_offsets,
    measure_density,
    probe_repeated,
    sink_variance_report,
    translation_invariance,
)
from lazyattn.model import ModelConfig, TransformerLM
from lazyattn.training import ingest, mean_nll, tokenize_bytes

from oracles import two_pass_variance

SMALL = dict(n_layers=2, d_model=32, n_heads=2, n_ctx=32, window=16)


def small_model(seed=0, **over):
    return TransformerLM(ModelConfig(seed=seed, **{**SMALL, **over}))


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def layer0_oracle(model, tokens):
    """Layer 0's block input embed[tokens] and its value LN1(x) @ wv, in float64 numpy."""
    lp = model.layers[0]
    x = model.params["embed"].data[tokens].astype(np.float64)
    xhat = (x - x.mean(axis=1, keepdims=True)) / np.sqrt(x.var(axis=1, keepdims=True) + 1e-5)
    return x, (xhat * lp["ln1.gain"].data + lp["ln1.bias"].data) @ lp["attn.wv"].data


def test_eval_ppl_single_length_matches_plain_eval(small_corpus_path):
    model = small_model(normalizer="softmax")
    tokens = tokenize_bytes(small_corpus_path.read_bytes())[:8000]
    rows = eval_ppl(model, tokens, [32])
    assert len(rows) == 1
    # the same non-overlapping windows, evaluated the training-loop way
    span = 33
    windows = tokens[: (len(tokens) // span) * span].reshape(-1, span)
    direct = mean_nll(model, windows, max_len=32)
    assert abs(rows[0]["nll"] - direct) / direct < 1e-6
    assert math.isclose(rows[0]["ppl"], math.exp(rows[0]["nll"]), rel_tol=1e-12)


def test_eval_ppl_reproduces_training_chunk_loss(small_corpus_path):
    """Ingest windows and eval windows cover the same text, so NLLs agree."""
    model = small_model(seed=5)
    tokens = tokenize_bytes(small_corpus_path.read_bytes())
    via_eval = eval_ppl(model, tokens, [32])[0]["nll"]
    chunks = ingest(small_corpus_path, n_ctx=32, seed=9)  # shuffled, same multiset
    via_training = mean_nll(model, chunks)
    assert abs(via_eval - via_training) / via_training < 0.02


def test_eval_ppl_random_bytes_near_vocab_size(tmp_path):
    rng = np.random.default_rng(3)
    tokens = np.concatenate([[256], rng.integers(0, 256, size=6600)])
    for seed in (0, 1):
        model = small_model(seed=seed)  # untrained: logits near uniform
        ppl = eval_ppl(model, tokens, [32])[0]["ppl"]
        assert 256 / 1.3 < ppl < 256 * 1.3


def test_eval_ppl_insufficient_text():
    model = small_model()
    with pytest.raises(ValueError, match="too short"):
        eval_ppl(model, np.zeros(10, dtype=int), [32])


def test_eval_ppl_beyond_training_context(small_corpus_path):
    model = small_model()
    tokens = tokenize_bytes(small_corpus_path.read_bytes())[:4000]
    rows = eval_ppl(model, tokens, [32, 64])
    assert rows[1]["length"] == 64  # ran fine past n_ctx
    assert math.isfinite(rows[1]["ppl"])


def test_translation_invariance_score_shapes():
    w = np.zeros((4, 4), dtype=np.float32)
    w[np.tril_indices(4)] = 0.25
    assert translation_invariance(w, min_row=2) >= 0.0
    with pytest.raises(ValueError):
        translation_invariance(np.ones((1, 1)))


def test_probe_repeated_rope_softmax_collapses():
    model = small_model(seed=7, positional="rope", normalizer="softmax",
                        n_ctx=128, window=64)
    result = probe_repeated(model, ord("a"), 128, min_row=64)
    assert result.max_score < 1e-3
    assert len(result.scores) == model.cfg.n_layers * model.cfg.n_heads
    assert len(result.capture.layers) == model.cfg.n_layers


def test_probe_repeated_two_tokens_well_defined():
    model = small_model(seed=8)
    result = probe_repeated(model, 5, 2)
    assert all(math.isfinite(s) for s in result.scores.values())


def test_probe_repeated_with_nonzero_bias_table_still_invariant():
    # the window cutoff (bias snapping to 0 past distance 64) is still a
    # function of distance only, so shifted rows keep matching
    model = small_model(seed=9, positional="rope_bias", normalizer="softmax",
                        n_ctx=128, window=64)
    for t in model.bias_table.tables:  # synthetic decaying bias, distance-only
        t.data[:] = -0.05 * np.arange(t.shape[1])
    result = probe_repeated(model, ord("t"), 128, min_row=64)
    assert result.max_score < 1e-3


def test_probe_repeated_rejects_bad_token():
    with pytest.raises(ValueError):
        probe_repeated(small_model(), 400, 8)


def test_sink_variance_repeated_tokens_flat():
    model = small_model(seed=10, normalizer="softmax")
    tokens = np.full(24, ord("s"))
    rows = sink_variance_report(model, tokens, n_positions=15)
    assert len(rows) == 15 * model.cfg.n_layers
    for layer in range(model.cfg.n_layers):
        sub = [r for r in rows if r["layer"] == layer]
        for key in ("v_norm", "v_var", "hidden_norm", "hidden_var"):
            vals = np.array([r[key] for r in sub])
            spread = np.abs(vals - vals[0]).max()
            assert spread < 1e-4 * max(1.0, abs(vals[0])), (layer, key)


def test_sink_variance_natural_text_varies(small_corpus_path):
    model = small_model(seed=11, normalizer="softmax")
    tokens = tokenize_bytes(small_corpus_path.read_bytes())[:24]
    rows = sink_variance_report(model, tokens, n_positions=15)
    norms = np.array([r["hidden_norm"] for r in rows if r["layer"] == 0])
    assert norms.max() / norms.min() > 1.05


def test_sink_variance_matches_two_pass_oracle():
    model = small_model(seed=12, dtype="float64")
    rng = np.random.default_rng(13)
    tokens = rng.integers(0, 256, size=20)
    rows = sink_variance_report(model, tokens, n_positions=15)
    hidden, values = layer0_oracle(model, tokens)
    layer0 = [r for r in rows if r["layer"] == 0]
    assert [r["position"] for r in layer0] == list(range(15))
    for r in layer0:
        v, x = values[r["position"]], hidden[r["position"]]
        assert abs(r["v_var"] - two_pass_variance(v)) < 1e-12
        assert abs(r["hidden_var"] - two_pass_variance(x)) < 1e-12
        assert math.isclose(r["v_norm"], np.linalg.norm(v), rel_tol=1e-12)
        assert math.isclose(r["hidden_norm"], np.linalg.norm(x), rel_tol=1e-12)


def test_sink_variance_two_pass_matches_naive():
    """Rows cover every (layer, position) in order; a tiled model (tile < n) matches naive."""
    tokens = np.random.default_rng(21).integers(0, 256, size=12)
    naive = sink_variance_report(small_model(seed=20), tokens, n_positions=12)
    tiled = sink_variance_report(small_model(seed=20, attention_path="two_pass", tile=5),
                                 tokens, n_positions=12)
    keys = [(layer, pos) for layer in range(2) for pos in range(12)]
    assert [(r["layer"], r["position"]) for r in naive] == keys
    assert [(r["layer"], r["position"]) for r in tiled] == keys
    for a, b in zip(naive, tiled):
        for key in ("v_norm", "v_var", "hidden_norm", "hidden_var"):
            assert abs(a[key] - b[key]) <= 1e-5 * max(1.0, abs(a[key])), (a, key)
    hidden, values = layer0_oracle(small_model(seed=20), tokens)  # the float32 path too
    for r in naive[:12]:
        assert math.isclose(r["v_norm"], np.linalg.norm(values[r["position"]]), rel_tol=1e-5)
        assert math.isclose(r["hidden_norm"], np.linalg.norm(hidden[r["position"]]),
                            rel_tol=1e-6)


def test_sink_variance_needs_enough_tokens():
    with pytest.raises(ValueError):
        sink_variance_report(small_model(), np.zeros(5, dtype=int), n_positions=15)


def test_export_bias_fresh_model_zero(tmp_path):
    model = small_model(seed=14)
    path = tmp_path / "bias.csv"
    export_bias(model, path)
    rows = read_rows(path)
    cfg = model.cfg
    assert len(rows) == cfg.n_layers * cfg.n_heads * (model.window + 1)
    assert all(float(r["bias"]) == 0.0 for r in rows)


def test_export_offsets_fresh_model_minus_one(tmp_path):
    model = small_model(seed=15)
    path = tmp_path / "tau.csv"
    export_offsets(model, path)
    rows = read_rows(path)
    assert len(rows) == model.cfg.n_layers * model.cfg.n_heads
    assert all(float(r["tau"]) == -1.0 for r in rows)
    by_layer = {}
    for r in rows:
        by_layer.setdefault(int(r["layer"]), []).append(float(r["tau"]))
    for layer, vals in by_layer.items():
        assert abs(np.mean(vals) - model.taus()[layer].mean()) < 1e-7


@pytest.mark.parametrize("dtype, tenth", [("float32", "0.10000000149011612"),
                                          ("float64", "0.1")])
def test_export_csv_golden_format(tmp_path, dtype, tenth):
    """Header, row order and repr(float) of both export files, pinned as text."""
    model = TransformerLM(ModelConfig(n_layers=2, d_model=8, n_heads=2, n_ctx=4, window=1,
                                      dtype=dtype))
    model.bias_table.tables[0].data[:] = [[0.5, -0.25], [0.1, 0.0]]
    model.bias_table.tables[1].data[:] = [[-1.5, 2.0], [3.0, 0.75]]
    model.layers[0]["attn.tau"].data[:] = [-1.0, -0.5]
    model.layers[1]["attn.tau"].data[:] = [0.1, 0.25]
    export_bias(model, tmp_path / "bias.csv")
    export_offsets(model, tmp_path / "tau.csv")
    bias = ["layer,head,distance,bias", "0,0,0,0.5", "0,0,1,-0.25", f"0,1,0,{tenth}",
            "0,1,1,0.0", "1,0,0,-1.5", "1,0,1,2.0", "1,1,0,3.0", "1,1,1,0.75"]
    tau = ["layer,head,tau", "0,0,-1.0", "0,1,-0.5", f"1,0,{tenth}", "1,1,0.25"]
    assert (tmp_path / "bias.csv").read_bytes() == "".join(f"{r}\r\n" for r in bias).encode()
    assert (tmp_path / "tau.csv").read_bytes() == "".join(f"{r}\r\n" for r in tau).encode()


def test_exports_deterministic(tmp_path):
    model = small_model(seed=16)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_bias(model, a)
    export_bias(model, b)
    assert a.read_bytes() == b.read_bytes()


def test_measure_density_softmax_identity(small_corpus_path):
    model = small_model(seed=17, normalizer="softmax")
    tokens = tokenize_bytes(small_corpus_path.read_bytes())[: 4 * 32].reshape(4, 32)
    stats = measure_density(model, tokens)
    for dens, sink in stats.per_head.values():
        assert abs(dens + sink - 100.0) < 1e-4
    assert abs(stats.density_pct + stats.sink_pct - 100.0) < 1e-4
    assert 0.0 <= stats.sink_pct <= 100.0


def test_measure_density_forced_zero_rows():
    model = small_model(seed=18, normalizer="elastic", tau_init=-1.0, freeze_tau=True)
    for lp in model.layers:
        lp["attn.wq"].data[:] = 0.0  # uniform scores in every row
    tokens = np.tile(np.arange(32), (2, 1)) % 256
    stats = measure_density(model, tokens)
    assert stats.density_pct == 0.0
    assert stats.sink_pct == 0.0


def test_write_weights_csv(tmp_path):
    from lazyattn.attention import CaptureBuffer
    from lazyattn.diagnostics import write_weights_csv

    model = small_model(seed=21, normalizer="softmax")
    cap = CaptureBuffer()
    toks = np.arange(2 * 16).reshape(2, 16) % 256
    measure_density(model, toks, capture=cap)
    out = tmp_path / "w.csv"
    write_weights_csv(cap, out)
    rows = read_rows(out)
    n = 16
    assert len(rows) == model.cfg.n_layers * model.cfg.n_heads * (n * (n + 1) // 2)
    assert all(int(r["j"]) <= int(r["i"]) for r in rows)
    first = rows[0]
    assert float(first["alpha"]) == float(cap.layers[0][0, 0, 0, 0])


def test_cli_diagnostic_subcommands(small_corpus_path, tmp_path):
    from lazyattn.cli import main
    from lazyattn.model import save_checkpoint

    model = small_model(seed=19, normalizer="softmax")
    ckpt = tmp_path / "model.bin"
    save_checkpoint(model, ckpt)
    text = tmp_path / "text.bin"
    text.write_bytes(small_corpus_path.read_bytes()[:20000])

    out = tmp_path / "ppl.csv"
    assert main(["eval", "--checkpoint", str(ckpt), "--text", str(text),
                 "--lengths", "32,64", "--out", str(out)]) == 0
    assert len(read_rows(out)) == 2

    out = tmp_path / "probe.csv"
    assert main(["probe-repeat", "--checkpoint", str(ckpt), "--token", "97",
                 "--length", "32", "--out", str(out)]) == 0
    assert len(read_rows(out)) == 4

    out = tmp_path / "sink.csv"
    assert main(["stats-sink", "--checkpoint", str(ckpt), "--text", str(text),
                 "--length", "32", "--out", str(out)]) == 0
    assert len(read_rows(out)) == 30

    out = tmp_path / "density.csv"
    assert main(["measure-density", "--checkpoint", str(ckpt), "--text", str(text),
                 "--out", str(out), "--weights-out", str(tmp_path / "weights.csv")]) == 0
    rows = read_rows(out)
    assert rows[-1]["layer"] == "mean"
    for r in rows:  # every cell parses as a plain number
        assert 0.0 <= float(r["density_pct"]) <= 100.0
        assert 0.0 <= float(r["sink_pct"]) <= 100.0
    assert (tmp_path / "weights.csv").exists()

    out = tmp_path / "tau.csv"
    assert main(["export-offsets", "--checkpoint", str(ckpt), "--out", str(out)]) == 0
    assert (tmp_path / "tau.csv").exists()

    # contract errors exit nonzero
    assert main(["eval", "--checkpoint", str(ckpt), "--text", str(text),
                 "--lengths", "999999", "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("command, args, name", [
    ("eval", ["--lengths", "-1"], "eval length"),
    ("eval", ["--lengths", "0"], "eval length"),
    ("measure-density", ["--context", "0"], "--context"),
    ("measure-density", ["--max-sequences", "0"], "--max-sequences"),
    ("stats-sink", ["--positions", "0"], "n_positions"),
    ("stats-sink", ["--positions", "-2"], "n_positions"),
    ("probe-repeat", ["--min-row", "0"], "min_row"),
    ("probe-repeat", ["--min-row", "-3"], "min_row"),
    ("stats-sink", ["--length", "-1"], "--length"),
    ("stats-sink", ["--length", "0"], "--length"),
    ("probe-repeat", ["--length", "-4"], "probe length n"),
    ("probe-repeat", ["--length", "1"], "probe length n"),
])
def test_cli_rejects_nonpositive_sizes(tmp_path, capsys, command, args, name):
    from lazyattn.cli import main
    from lazyattn.model import save_checkpoint

    ckpt = tmp_path / "model.bin"
    save_checkpoint(small_model(seed=22), ckpt)
    text = tmp_path / "text.bin"
    text.write_bytes(bytes(range(256)) * 4)
    inputs = [] if command == "probe-repeat" else ["--text", str(text)]
    out = tmp_path / "out.csv"
    assert main([command, "--checkpoint", str(ckpt), *inputs, *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err, err
    assert not out.exists()
