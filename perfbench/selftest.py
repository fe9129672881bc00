"""Self-tests of the benchmark: every workload at a tiny size, and one wrong
output per correctness check to show that the check rejects it.

    python3 -m pytest perfbench/selftest.py -q

(The file name keeps these tests out of the repository's default test run.)
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lazyattn import (  # noqa: E402
    CaptureBuffer,
    ModelConfig,
    Tape,
    TransformerLM,
    backward,
    load_checkpoint,
    measure_density,
    save_checkpoint,
)

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_model(normalizer="elastic", path="naive", n_ctx=32, seed=4):
    positional = "rope" if normalizer == "softmax" else "rope_bias"
    return TransformerLM(ModelConfig(n_layers=2, d_model=32, n_heads=2, n_ctx=n_ctx, window=16,
                                     positional=positional, normalizer=normalizer,
                                     attention_path=path, seed=seed))


def batch(n=32, rows=3, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size=(rows, n))


# ---------------------------------------------------------------------------
# whole workloads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_and_checks_pass_at_tiny_size(workload, tmp_path):
    res = workloads.run(workload, 3, 0.0, False, tmp_path, sizes=workloads.TINY)
    assert res["failures"] == [] and res["failed"] == 0
    assert res["errors"] == []
    assert res["rounds"] == 1 and res["attempted"] > 0
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert list(res["end_to_end"]) == names
    for name, (value, unit) in res["end_to_end"].items():
        assert math.isfinite(value) and value > 0, name
        assert unit == next(m["unit"] for m in BENCH["end_to_end"] if m["name"] == name)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    res = workloads.run("twin_short", 3, 0.0, True, tmp_path, sizes=workloads.TINY)
    assert res["errors"] == []
    layer = res["per_layer"]
    assert list(layer) == [m["name"] for m in BENCH["per_layer"]]
    for name in ("training.step_ms", "training.fwd_ms", "training.bwd_ms", "core.matmul.bwd_ms",
                 "attention.attend_naive.fwd_ms", "cli.eval_ms", "model.checkpoint_bytes"):
        assert layer[name] > 0, name
    assert layer["attention.attend_two_pass.fwd_ms"] == 0.0
    assert layer["training.step_ms"] >= layer["training.fwd_ms"] + layer["training.bwd_ms"]
    assert layer["core.tape_records"] == int(layer["core.tape_records"]) > 0


def test_timings_take_each_models_median_apart(tmp_path):
    """A fast and a slow model's samples are not pooled into one median."""
    ctx = workloads.Ctx(sizes=workloads.TINY, seed=0, work=tmp_path)
    ctx.step_s = {"fast": [0.1, 0.1, 0.5], "slow": [0.3, 0.3, 0.3]}
    ctx.call_extra_s = {"fast": [1.0, 9.0, 1.0], "slow": [2.0]}
    ctx.train_shape = {"fast": (3, 300), "slow": (3, 300)}
    assert workloads.train_rate(ctx) == pytest.approx(600 / (3 * 0.1 + 1.0 + 3 * 0.3 + 2.0))
    assert workloads.sum_of_medians({("a", "eval"): [1.0, 3.0, 2.0], ("b", "eval"): [5.0]}) == 7.0
    assert math.isnan(workloads.sum_of_medians({}))


def test_tracing_restores_every_binding(tmp_path):
    from lazyattn import attention, core, model, training
    before = (core.matmul, attention.matmul, core.record_op, attention.attend_two_pass,
              model.TransformerLM.lm_forward, training.AdamW.step, training.train)
    tracer = spans.Tracer()
    tracer.install()
    assert attention.matmul is not before[1]
    tracer.uninstall()
    after = (core.matmul, attention.matmul, core.record_op, attention.attend_two_pass,
             model.TransformerLM.lm_forward, training.AdamW.step, training.train)
    assert after == before


def test_tracing_leaves_outputs_unchanged():
    m = tiny_model(path="two_pass")
    ids = batch()
    want = m.lm_forward(ids).data
    tracer = spans.Tracer()
    tracer.install()
    try:
        got = m.lm_forward(ids).data
    finally:
        tracer.uninstall()
    assert np.array_equal(got, want)
    assert tracer.aux_peak > 0


# ---------------------------------------------------------------------------
# each check rejects a wrong output
# ---------------------------------------------------------------------------


def test_first_loss_rejects_a_non_uniform_start():
    assert checks.first_loss("m", [(0, math.log(257), 0.0)]) is None
    assert checks.first_loss("m", [(0, 4.0, 0.0)]) is not None


def test_loss_fell_rejects_rising_or_non_finite_loss():
    assert checks.loss_fell("m", [(0, 5.5, 0), (1, 5.0, 0)], 5.1) is None
    assert checks.loss_fell("m", [(0, 5.5, 0), (1, 5.6, 0)], 5.1) is not None
    assert checks.loss_fell("m", [(0, 5.5, 0), (1, math.nan, 0)], 5.1) is not None
    assert checks.loss_fell("m", [(0, 5.5, 0), (1, 5.0, 0)], math.inf) is not None


def test_softmax_identity_rejects_a_leaking_row():
    stats = measure_density(tiny_model("softmax"), batch())
    assert checks.softmax_identity("m", stats.per_head) is None
    bad = dict(stats.per_head)
    d, s = bad[(0, 0)]
    bad[(0, 0)] = (d - 1e-3, s)
    assert checks.softmax_identity("m", bad) is not None


def test_row_sum_check_rejects_a_checkpoint_with_positive_tau(tmp_path):
    m = tiny_model()
    ids = batch()
    cap = CaptureBuffer()
    m.lm_forward(ids, capture=cap)
    taus = m.taus()
    assert max(float(t.max()) for t in taus) <= 0
    assert checks.lazy_weights("m", cap.layers, taus) is None

    for lp in m.layers:
        lp["attn.tau"].data[:] = 0.5
    save_checkpoint(m, tmp_path / "pos.bin")
    bad, _ = load_checkpoint(tmp_path / "pos.bin")
    cap = CaptureBuffer()
    bad.lm_forward(ids, capture=cap)
    # a positive tau lifts rows above 1, which the model's tau <= 0 rules out
    assert checks.lazy_weights("m", cap.layers, taus) is not None


def test_row_sum_check_rejects_a_negative_weight():
    w = np.full((1, 1, 4, 4), 0.1)
    w[0, 0, 3, 0] = -1e-3
    assert checks.lazy_weights("m", [w], [np.array([-1.0])]) is not None


def test_zero_share_rejects_all_zero_and_dense_attention():
    cap = CaptureBuffer()
    tiny_model("softmax").lm_forward(batch(), capture=cap)
    assert checks.zero_share("m", cap.layers) is not None  # dense
    assert checks.zero_share("m", [np.zeros_like(w) for w in cap.layers]) is not None
    half = [np.where(np.arange(32) % 2 == 0, w, 0.0) for w in cap.layers]
    assert checks.zero_share("m", half) is None


def test_twin_directions_reject_each_wrong_direction():
    assert checks.twin_directions((40.0, 0.3), (97.0, 2.7), 3.0, 3.05) is None
    assert checks.twin_directions((98.0, 0.3), (97.0, 2.7), 3.0, 3.05) is not None
    assert checks.twin_directions((40.0, 3.0), (97.0, 2.7), 3.0, 3.05) is not None
    assert checks.twin_directions((40.0, 0.3), (97.0, 2.7), 3.3, 3.0) is not None


def test_two_pass_comparison_rejects_a_1e_3_perturbation():
    m = tiny_model(path="two_pass", n_ctx=64)
    ids = batch(n=64)
    outs = {}
    for path in ("two_pass", "naive"):
        m.attn_cfg.path = path
        cap = CaptureBuffer()
        outs[path] = (m.lm_forward(ids, capture=cap).data, cap.layers)
    assert checks.two_pass_matches_naive(outs["two_pass"], outs["naive"]) is None
    logits, layers = outs["two_pass"]
    assert checks.two_pass_matches_naive((logits + 1e-3, layers), outs["naive"]) is not None
    shifted = [layers[0] + 1e-3] + layers[1:]
    assert checks.two_pass_matches_naive((logits, shifted), outs["naive"]) is not None


def test_gradient_comparison_rejects_a_perturbed_gradient(tmp_path):
    m = tiny_model(path="two_pass", n_ctx=64)
    save_checkpoint(m, tmp_path / "m.bin")
    ids = batch(n=65, rows=1)
    got = workloads.two_pass_grads(str(tmp_path / "m.bin"), ids, "two_pass")
    want = workloads.two_pass_grads(str(tmp_path / "m.bin"), ids, "naive")
    assert checks.grads_close(got, want) is None
    got["layer0.attn.wq"] = got["layer0.attn.wq"] * (1 + 1e-3)
    assert checks.grads_close(got, want) is not None


def test_aux_growth_rejects_quadratic_memory():
    assert checks.aux_growth(1000, 2100) is None
    assert checks.aux_growth(1000, 4000) is not None


def test_row_count_rejects_a_missing_row():
    assert checks.row_count("x", [{}] * 3, 3) is None
    assert checks.row_count("x", [{}] * 2, 3) is not None


def test_ppl_rows_reject_inconsistent_or_large_perplexity():
    good = {"length": "128", "nll": "2.5", "ppl": repr(math.exp(2.5)), "windows": "4"}
    assert checks.ppl_rows("x", [good]) is None
    assert checks.ppl_rows("x", [{**good, "ppl": repr(math.exp(2.5) * 1.001)}]) is not None
    big = {**good, "nll": "6.0", "ppl": repr(math.exp(6.0))}
    assert checks.ppl_rows("x", [big]) is not None
    assert checks.ppl_rows("x", [{**good, "nll": "inf", "ppl": "inf"}]) is not None


def test_fp64_nll_check_rejects_a_drift():
    assert checks.nll_matches_fp64("x", 2.5001, 2.5) is None
    assert checks.nll_matches_fp64("x", 2.51, 2.5) is not None


def test_density_csv_identity_rejects_a_wrong_row():
    rows = [{"layer": "0", "head": "0", "density_pct": "95.5", "sink_pct": "4.5"},
            {"layer": "mean", "head": "mean", "density_pct": "95.5", "sink_pct": "4.5"}]
    assert checks.density_csv_identity("x", rows) is None
    rows[0]["sink_pct"] = "4.4"
    assert checks.density_csv_identity("x", rows) is not None


def test_probe_check_rejects_a_position_dependent_score():
    assert checks.probe_rows("x", [{"invariance_score": "2e-6"}]) is None
    assert checks.probe_rows("x", [{"invariance_score": "2e-6"},
                                   {"invariance_score": "0.02"}]) is not None


def test_export_check_rejects_a_changed_parameter(tmp_path):
    from lazyattn import export_bias, export_offsets
    m = tiny_model()
    m.layers[1]["attn.tau"].data[1] = -0.8125
    m.bias_table.tables[0].data[1, 3] = 0.375
    export_bias(m, tmp_path / "bias.csv")
    export_offsets(m, tmp_path / "tau.csv")
    bias = checks.read_csv(tmp_path / "bias.csv")
    tau = checks.read_csv(tmp_path / "tau.csv")
    tables = [t.data for t in m.bias_table.tables]
    assert checks.exported_params("x", bias, tau, tables, m.taus()) is None
    taus = m.taus()
    taus[1][1] = np.nextafter(taus[1][1], np.float32(0))
    assert checks.exported_params("x", bias, tau, tables, taus) is not None
    tables = [t.copy() for t in tables]
    tables[0][1, 3] = 0.25
    assert checks.exported_params("x", bias, tau, tables, m.taus()) is not None


def test_gradients_flow_through_both_paths():
    """The gradient check compares non-empty gradient sets."""
    m = tiny_model(path="two_pass", n_ctx=64)
    ids = batch(n=65, rows=1)
    with Tape() as tape:
        loss = m.loss(ids[:, :-1], ids[:, 1:])
    backward(tape, loss)
    assert sum(t.grad is not None for t in m.parameters().values()) > 20
