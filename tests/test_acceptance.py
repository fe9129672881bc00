"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the criterion
lines; the twin-model criteria share session fixtures that train the
baseline/lazy pair once (see conftest).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from lazyattn import core
from lazyattn.attention import (
    AllocationMeter,
    AttentionConfig,
    CaptureBuffer,
    attend_naive,
    attend_two_pass,
)
from lazyattn.core import Tape, Tensor, backward
from lazyattn.diagnostics import eval_ppl, export_bias, export_offsets, measure_density, probe_repeated
from lazyattn.model import ModelConfig, TransformerLM, load_checkpoint
from lazyattn.normalizers import NormalizerMode, sparsemax_row
from lazyattn.positional import RopeConfig, apply_rope
from lazyattn.training import TrainConfig, tokenize_bytes, train

from oracles import attention_scalar_loop, check_grads, rel_err, softmax_vec, sparsemax_bisection

# probe at the training context; "off boundary rows" excludes the first
# half, where few-key rows make any row-to-row comparison least stable
PROBE_LENGTH = 128
PROBE_MIN_ROW = 64


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def load(result):
    model, _ = load_checkpoint(result.checkpoint)
    return model


def holdout_tokens(path, count):
    return tokenize_bytes(path.read_bytes())[:count]


# -- criterion 1 -------------------------------------------------------------


def _grad_core_ops(seed):
    rng = np.random.default_rng(seed)
    table = Tensor(rng.normal(size=(7, 6)), requires_grad=True, dtype="float64")
    ids = rng.integers(0, 7, size=4)
    w = Tensor(rng.normal(size=(6, 6)), requires_grad=True, dtype="float64")
    row = Tensor(rng.normal(size=6), requires_grad=True, dtype="float64")
    gain = Tensor(rng.normal(size=6), requires_grad=True, dtype="float64")
    bias = Tensor(rng.normal(size=6), requires_grad=True, dtype="float64")
    targets = rng.integers(0, 6, size=4)

    def build():
        x = core.embedding(table, ids)
        h = core.add_row(core.matmul(x, w), row)
        h = core.layernorm(h, gain, bias)
        h = core.add(core.gelu(h), core.scale(core.exp(core.scale(h, 0.1)), 0.5))
        return core.cross_entropy(core.mul(core.add(h, core.relu(h)), h), targets)

    return check_grads(build, [table, w, row, gain, bias])


def _grad_rope(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(5, 8)), requires_grad=True, dtype="float64")
    w = Tensor(rng.normal(size=(5, 8)), dtype="float64")
    positions = rng.integers(0, 40, size=5)
    cfg = RopeConfig(head_dim=8)
    return check_grads(lambda: core.sum_all(core.mul(apply_rope(x, positions, cfg), w)), [x])


def _grad_attend(cfg, qkv, cot, *, bias=None, tau=None):
    """Single-head ``attend_naive`` gradients on q, k, v and the bias table (or
    else tau), against finite differences of the scalar-loop oracle."""
    q, k, v = (Tensor(a, requires_grad=True, dtype="float64") for a in qkv)

    def oracle(qa, ka, va, xa):
        if bias is not None:
            out, _ = attention_scalar_loop(qa, ka, va, bias_vec=xa[0], window=xa.shape[1] - 1)
        else:
            out, _ = attention_scalar_loop(qa, ka, va, tau=float(xa[0]),
                                           kind=cfg.normalizer.value)
        return float((out * cot).sum())

    w = Tensor(cot, dtype="float64")
    return check_grads(
        lambda: core.sum_all(core.mul(attend_naive(q, k, v, cfg, bias=bias, tau=tau), w)),
        [q, k, v, tau if bias is None else bias], reference=oracle)


def _grad_attend_bias(seed):
    rng = np.random.default_rng(seed)
    n, dh = 6, 8
    qkv = rng.normal(size=(3, n, dh))
    window = int(rng.integers(0, n - 1))  # below n - 1, so some distances lie outside it
    bias = Tensor(rng.normal(size=(1, window + 1)), requires_grad=True, dtype="float64")
    cfg = AttentionConfig(n_heads=1, head_dim=dh, normalizer=NormalizerMode.SOFTMAX)
    return _grad_attend(cfg, qkv, rng.normal(size=(n, dh)), bias=bias)


def _grad_attend_elastic(seed):
    # resample deterministically until every weight is off the rectifier kink
    for attempt in range(40):
        rng = np.random.default_rng(seed * 1000 + attempt)
        n, dh = int(rng.integers(2, 9)), 8
        qkv = rng.normal(size=(3, n, dh))
        tau = float(rng.uniform(-1.4, -0.2))
        s = qkv[0] @ qkv[1].T / math.sqrt(dh)
        if min(np.abs(softmax_vec(s[i, : i + 1]) + tau / (i + 1)).min() for i in range(n)) > 1e-3:
            break
    else:
        raise AssertionError("no kink-free sample found")
    tt = Tensor(np.array([tau]), requires_grad=True, dtype="float64")
    cfg = AttentionConfig(n_heads=1, head_dim=dh, positional="rope",
                          normalizer=NormalizerMode.ELASTIC_PER_QUERY)
    return _grad_attend(cfg, qkv, rng.normal(size=(n, dh)), tau=tt)


def _grad_full_block(seed, normalizer):
    cfg = ModelConfig(n_layers=1, d_model=8, n_heads=2, n_ctx=6, window=4,
                      dtype="float64", seed=seed, normalizer=normalizer,
                      tau_init=-0.6)
    model = TransformerLM(cfg)
    if normalizer == "elastic":  # spread scores away from the kink
        for lp in model.layers:
            lp["attn.wq"].data *= 40.0
            lp["attn.wk"].data *= 40.0
    rng = np.random.default_rng(seed + 777)
    x = Tensor(rng.normal(size=(6, 8)), requires_grad=True, dtype="float64")
    w = Tensor(rng.normal(size=(6, 8)), dtype="float64")
    params = [x] + list(model.layers[0].values())
    if normalizer == "elastic":
        from test_model import elastic_kink_distance

        if elastic_kink_distance(model, x, np.arange(6)) <= 1e-3:
            return 0.0  # skip this seed; the sweep still covers 20 seeds of the rest
    return check_grads(
        lambda: core.sum_all(core.mul(model.block_forward(x, 0, np.arange(6)), w)), params)


def test_criterion_01_gradient_suite():
    t0 = time.perf_counter()
    worst = {"core": 0.0, "rope": 0.0, "attend_bias": 0.0, "attend_elastic": 0.0,
             "block_softmax": 0.0, "block_elastic": 0.0}
    for seed in range(20):
        worst["core"] = max(worst["core"], _grad_core_ops(seed))
        worst["rope"] = max(worst["rope"], _grad_rope(seed))
        worst["attend_bias"] = max(worst["attend_bias"], _grad_attend_bias(seed))
        worst["attend_elastic"] = max(worst["attend_elastic"], _grad_attend_elastic(seed))
        worst["block_softmax"] = max(worst["block_softmax"], _grad_full_block(seed, "softmax"))
        worst["block_elastic"] = max(worst["block_elastic"], _grad_full_block(seed, "elastic"))
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) < 1e-4 and elapsed < 300
    report(1, "finite-difference gradient suite, 20 seeds per op, <5 min", ok,
           f"worst rel err {max(worst.values()):.2e} by part {worst}, {elapsed:.0f}s")


# -- criterion 2 -------------------------------------------------------------

TWO_PASS_MODES = [NormalizerMode.SOFTMAX, NormalizerMode.ELASTIC_PER_QUERY,
                  NormalizerMode.ELASTIC_GLOBAL]


def _qkv(rng, n, width, dtype, grad=False):
    return tuple(Tensor(rng.normal(size=(n, width)), requires_grad=grad, dtype=dtype)
                 for _ in range(3))


def test_criterion_02_two_pass_equivalence():
    n = 256
    fwd_worst = 0.0
    for mode in TWO_PASS_MODES:
        for tile in (16, 64):
            rng = np.random.default_rng(100)
            cfg = AttentionConfig(n_heads=2, head_dim=8, normalizer=mode, tile=tile)
            q, k, v = _qkv(rng, n, 16, "float32")
            bias = Tensor(rng.normal(size=(2, 33)) * 0.5, dtype="float32")
            tau = Tensor(np.array([-1.0, -0.4]), dtype="float32")
            a = attend_naive(q, k, v, cfg, bias=bias, tau=tau)
            b = attend_two_pass(q, k, v, cfg, bias=bias, tau=tau)
            fwd_worst = max(fwd_worst, float(np.abs(a.data - b.data).max()))

    bwd_worst = 0.0
    for mode in TWO_PASS_MODES:
        for tile in (16, 64):
            def grads_via(attend, mode=mode, tile=tile):
                rng = np.random.default_rng(200)
                cfg = AttentionConfig(n_heads=2, head_dim=8, normalizer=mode, tile=tile)
                q, k, v = _qkv(rng, n, 16, "float64", grad=True)
                bias = Tensor(rng.normal(size=(2, 33)) * 0.5, requires_grad=True, dtype="float64")
                tau = Tensor(np.array([-1.0, -0.4]), requires_grad=True, dtype="float64")
                cot = Tensor(rng.normal(size=(n, 16)), dtype="float64")
                with Tape() as tape:
                    loss = core.sum_all(core.mul(attend(q, k, v, cfg, bias=bias, tau=tau), cot))
                backward(tape, loss)
                return [t.grad for t in (q, k, v, bias, tau) if t.grad is not None]

            got = grads_via(attend_two_pass)
            want = grads_via(attend_naive)
            bwd_worst = max(bwd_worst, max(rel_err(g, w) for g, w in zip(got, want)))

    peaks = {}
    for nn in (128, 256, 512):
        rng = np.random.default_rng(nn)
        q, k, v = _qkv(rng, nn, 8, "float32")
        tau = Tensor(np.array([-1.0]), dtype="float32")
        meter = AllocationMeter()
        cfg = AttentionConfig(n_heads=1, head_dim=8,
                              normalizer=NormalizerMode.ELASTIC_PER_QUERY, tile=32)
        attend_two_pass(q, k, v, cfg, tau=tau, meter=meter)
        peaks[nn] = meter.peak
    linear = peaks[256] / peaks[128] < 2.6 and peaks[512] / peaks[256] < 2.6

    ok = fwd_worst < 1e-5 and bwd_worst < 1e-4 and linear
    report(2, "two-pass equals naive (fwd 1e-5 fp32, bwd 1e-4 fp64), O(n) memory", ok,
           f"fwd {fwd_worst:.2e}, bwd {bwd_worst:.2e}, peaks {peaks}")


# -- criterion 3 -------------------------------------------------------------


def test_criterion_03_analytic_zero_row_law():
    # rows i = 1..64 of one uniform score matrix, on both paths (tile 7 does not divide 64)
    n = 64
    q = Tensor(np.zeros((n, 8)), dtype="float32")
    k = Tensor(np.zeros((n, 8)), dtype="float32")
    v = Tensor(np.random.default_rng(0).normal(size=(n, 8)), dtype="float32")
    tau = Tensor(np.array([-1.0]), dtype="float32")
    cfg = AttentionConfig(n_heads=1, head_dim=8, normalizer=NormalizerMode.ELASTIC_PER_QUERY,
                          tile=7)
    ok = True
    for attend in (attend_naive, attend_two_pass):
        cap = CaptureBuffer()
        out = attend(q, k, v, cfg, tau=tau, capture=cap)
        ok = ok and np.all(out.data == 0.0) and np.all(cap.layers[0] == 0.0)
    report(3, "uniform scores with tau=-1 rectify to exactly zero for i in 1..64", ok)


# -- criterion 4 -------------------------------------------------------------


@pytest.mark.slow
def test_criterion_04_metric_identity(corpus_path, trained_twins):
    worst = 0.0
    text = tokenize_bytes(corpus_path.read_bytes())[: 8 * 128].reshape(8, 128)
    for model in (TransformerLM(ModelConfig(normalizer="softmax", positional="rope", seed=9)),
                  load(trained_twins.softmax)):
        stats = measure_density(model, text)
        for dens, sink in stats.per_head.values():
            worst = max(worst, abs(dens + sink - 100.0))
    ok = worst < 1e-4
    report(4, "softmax capture: density + sink = 100% per (layer, head)", ok,
           f"worst deviation {worst:.2e}")


# -- criterion 5 -------------------------------------------------------------


def test_criterion_05_sparsemax_oracle():
    rng = np.random.default_rng(55)
    worst = 0.0
    ok = True
    for _ in range(1000):
        z = rng.normal(size=8) * rng.uniform(0.1, 4.0)
        w = sparsemax_row(z)
        worst = max(worst, float(np.abs(w - sparsemax_bisection(z)).max()))
        ok = ok and np.all(w >= 0.0) and abs(w.sum() - 1.0) < 1e-9
    ok = ok and worst < 1e-9
    report(5, "sparsemax sort-threshold matches bisection oracle on 1000 vectors", ok,
           f"worst abs diff {worst:.2e}")


# -- criterion 6 -------------------------------------------------------------


@pytest.mark.slow
def test_criterion_06_directional_twin_reproduction(trained_twins, holdout_text_path):
    soft = load(trained_twins.softmax)
    lazy = load(trained_twins.elastic)
    batch = holdout_tokens(holdout_text_path, 16 * 128).reshape(16, 128)
    s_stats = measure_density(soft, batch)
    e_stats = measure_density(lazy, batch)
    loss_s = trained_twins.softmax.final_eval_loss
    loss_e = trained_twins.elastic.final_eval_loss

    sink_ok = e_stats.sink_pct < 0.5 * s_stats.sink_pct
    dens_ok = e_stats.density_pct < s_stats.density_pct - 10.0
    loss_ok = abs(loss_e - loss_s) <= 0.05 * loss_s
    time_ok = trained_twins.elapsed < 45 * 60
    ok = sink_ok and dens_ok and loss_ok and time_ok
    report(6, "twin training reproduces sparsity directions at matched loss", ok,
           f"sink {e_stats.sink_pct:.2f}% vs {s_stats.sink_pct:.2f}%, "
           f"density {e_stats.density_pct:.2f}% vs {s_stats.density_pct:.2f}%, "
           f"eval loss {loss_e:.4f} vs {loss_s:.4f}, "
           f"twins trained in {trained_twins.elapsed / 60:.1f} min")


# -- criterion 7 -------------------------------------------------------------


@pytest.mark.slow
def test_criterion_07_repeated_token_probe(trained_twins):
    model = load(trained_twins.softmax)
    result = probe_repeated(model, ord("e"), PROBE_LENGTH, min_row=PROBE_MIN_ROW)
    ok = result.max_score < 1e-3
    report(7, "trained rope-softmax twin: repeated-token weights shift-invariant", ok,
           f"max score {result.max_score:.2e} over rows >= {PROBE_MIN_ROW}")


# -- criterion 8 (reported, not gated) ---------------------------------------


@pytest.mark.slow
def test_criterion_08_length_extrapolation_report(trained_twins, extra_seed_twins,
                                                  holdout_text_path):
    tokens = holdout_tokens(holdout_text_path, 140_000)
    lines = []
    reversed_seeds = []
    ppls = []
    for pair in [trained_twins] + extra_seed_twins:
        ratios = {}
        for name, res in (("softmax", pair.softmax), ("elastic", pair.elastic)):
            model = load(res)
            rows = eval_ppl(model, tokens, [128, 256], batch_size=8)
            ratios[name] = (rows[0]["ppl"], rows[1]["ppl"], rows[1]["ppl"] / rows[0]["ppl"])
            ppls += [rows[0]["ppl"], rows[1]["ppl"]]
        s, e = ratios["softmax"], ratios["elastic"]
        if e[2] > s[2]:
            reversed_seeds.append(pair.seed)
        lines.append(f"seed {pair.seed}: softmax ppl {s[0]:.2f}->{s[1]:.2f} (x{s[2]:.3f}), "
                     f"elastic ppl {e[0]:.2f}->{e[1]:.2f} (x{e[2]:.3f})")
    finite = all(math.isfinite(v) for v in ppls)
    flag = f"; DIRECTION REVERSED for seeds {reversed_seeds}" if reversed_seeds else ""
    report(8, "length extrapolation reported (direction not gated; perplexities finite)", finite,
           "; ".join(lines) + flag)


# -- criterion 9 -------------------------------------------------------------


def test_criterion_09_determinism(small_corpus_path, tmp_path):
    outputs = []
    for run in ("a", "b"):
        mc = ModelConfig(n_layers=2, d_model=64, n_heads=2, n_ctx=64, window=32, seed=5)
        tc = TrainConfig(corpus=str(small_corpus_path), out_dir=str(tmp_path / run),
                         steps=60, batch_tokens=256, warmup=10, eval_every=30, seed=5)
        result = train(mc, tc)
        model = load(result)
        bias_csv = tmp_path / f"{run}_bias.csv"
        tau_csv = tmp_path / f"{run}_tau.csv"
        dens_csv = tmp_path / f"{run}_density.csv"
        export_bias(model, bias_csv)
        export_offsets(model, tau_csv)
        toks = tokenize_bytes(small_corpus_path.read_bytes())[: 4 * 64].reshape(4, 64)
        measure_density(model, toks).write_csv(dens_csv)
        outputs.append((Path(result.checkpoint).read_bytes(), bias_csv.read_bytes(),
                        tau_csv.read_bytes(), dens_csv.read_bytes()))
    ok = outputs[0] == outputs[1]
    report(9, "identical (seed, config, corpus) give bit-identical checkpoint and CSVs", ok)


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_ablation_identities():
    rng = np.random.default_rng(10)
    ids = rng.integers(0, 256, size=(2, 64))
    base = dict(n_layers=2, d_model=64, n_heads=2, n_ctx=64, window=32, seed=6)
    minus_elastic = TransformerLM(ModelConfig(normalizer="elastic", tau_init=0.0,
                                              freeze_tau=True, **base))
    softmax = TransformerLM(ModelConfig(normalizer="softmax", **base))
    d1 = float(np.abs(minus_elastic.lm_forward(ids).data - softmax.lm_forward(ids).data).max())

    minus_positional = TransformerLM(ModelConfig(positional="rope_bias", freeze_bias=True, **base))
    rope_only = TransformerLM(ModelConfig(positional="rope", **base))
    d2 = float(np.abs(minus_positional.lm_forward(ids).data - rope_only.lm_forward(ids).data).max())

    ok = d1 < 1e-7 and d2 < 1e-7
    report(10, "-Elastic == softmax mode and -Positional == rope-only, within 1e-7", ok,
           f"max diffs {d1:.2e}, {d2:.2e}")
