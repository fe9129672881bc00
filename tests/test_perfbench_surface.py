"""Smoke tests of what the benchmark harness in ``perfbench/`` reaches.

``perfbench.spans.Tracer`` wraps lazyattn functions and methods by name and
passes ``capture=``/``meter=`` down the forward pass. Installing it around
a one-step two-pass training run and a metered forward makes a rename of
any of those names fail here instead of at the next benchmark run. The
workloads' output checks read model attributes (``bias_table.tables``,
``window``, ``taus()``, ``attn_cfg.path``), so both workloads also run
once at their tiny size, untraced and traced.
"""

import math
import pathlib
import sys

import numpy as np
import pytest

import lazyattn
from lazyattn import diagnostics, training

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "perfbench"))  # workloads imports its siblings by bare name
from perfbench import spans  # noqa: E402
import workloads  # noqa: E402


def test_tracer_wraps_a_two_pass_step_and_a_metered_forward(small_corpus_path, tmp_path):
    mc = lazyattn.ModelConfig(n_layers=2, d_model=32, n_heads=2, n_ctx=32, window=16,
                              attention_path="two_pass", tile=8)
    tc = lazyattn.TrainConfig(corpus=str(small_corpus_path), out_dir=str(tmp_path / "run"),
                              steps=1, batch_tokens=128, warmup=0, eval_every=0)
    ids = np.random.default_rng(0).integers(0, 256, size=(2, 32))
    capture, meter = lazyattn.CaptureBuffer(), lazyattn.AllocationMeter()
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = training.train(mc, tc)
        model, _ = lazyattn.load_checkpoint(result.checkpoint)
        model.lm_forward(ids, capture=capture, meter=meter)
        diagnostics.measure_density(model, ids, capture=lazyattn.CaptureBuffer())
    finally:
        tracer.uninstall()
    assert tracer.meter.peak > 0  # the training step's two-pass calls got the tracer's meter
    assert tracer.tape_records > 0  # counted before backward consumes the tape
    assert meter.peak > 0 and len(capture.layers) == mc.n_layers
    names = {span[0] for span in tracer.spans}
    assert {"training.train", "model.loss", "core.backward", "training.opt.step",
            "attention.attend_two_pass.fwd", "model.save_checkpoint",
            "diagnostics.measure_density", "normalizers.density_and_sink"} <= names
    assert spans.per_layer(tracer, rounds=1)["training.step_ms"] > 0


@pytest.mark.parametrize("workload, trace", [
    pytest.param(w, trace, id=w + "-traced" * trace)
    for w in workloads.WORKLOADS for trace in (False, True)])
def test_tiny_workload_runs_and_passes_its_output_checks(workload, trace, tmp_path):
    """A traced run also aggregates its spans into finite per-layer figures and writes them."""
    res = workloads.run(workload, 3, 0.0, trace, tmp_path, sizes=workloads.TINY)
    assert res["attempted"] > 0 and res["failures"] == [] and res["failed"] == 0
    assert res["errors"] == []
    if trace:
        res["tracer"].write(tmp_path / "trace.json")
        assert len(res["per_layer"]) == 43
        assert all(math.isfinite(v) for v in res["per_layer"].values()), res["per_layer"]
        assert res["per_layer"]["core.tape_records"] > 0
