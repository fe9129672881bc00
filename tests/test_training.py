"""Ingestion, schedule, optimizer, training-loop, and config-file tests."""

import csv
import json
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from lazyattn import core, training
from lazyattn.core import Tape, Tensor, backward
from lazyattn.model import BOS_ID, MASK_ID, ModelConfig, TransformerLM, load_checkpoint
from lazyattn.training import (
    AdamW,
    ConfigError,
    TrainConfig,
    build_configs,
    ingest,
    lr_at,
    mask_at_insert,
    parse_config_file,
    tokenize_bytes,
    train,
)


def test_tokenize_two_byte_file(tmp_path):
    p = tmp_path / "two.bin"
    p.write_bytes(b"hi")
    toks = tokenize_bytes(p.read_bytes())
    assert toks.tolist() == [BOS_ID, ord("h"), ord("i")]


def test_ingest_deterministic_and_permutation(tmp_path):
    p = tmp_path / "corpus.bin"
    rng = np.random.default_rng(0)
    p.write_bytes(bytes(rng.integers(0, 256, size=5000).tolist()))
    a = ingest(p, n_ctx=16, seed=42)
    b = ingest(p, n_ctx=16, seed=42)
    assert np.array_equal(a, b)
    c = ingest(p, n_ctx=16, seed=43)
    assert not np.array_equal(a, c)
    # shuffling permutes chunks: the sorted chunk multisets agree
    key = lambda chunks: sorted(map(tuple, chunks.tolist()))
    assert key(a) == key(c)


def test_ingest_rejects_empty(tmp_path):
    p = tmp_path / "empty.bin"
    p.write_bytes(b"")
    with pytest.raises(ValueError, match="too small"):
        ingest(p, n_ctx=16, seed=0)


def test_ingest_marks_document_boundaries(tmp_path):
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    p1.write_bytes(b"x" * 40)
    p2.write_bytes(b"y" * 40)
    chunks = ingest([p1, p2], n_ctx=9, seed=0)
    flat = chunks.reshape(-1)
    assert (flat == BOS_ID).sum() >= 2  # one BOS per file survives chunking


def test_lr_schedule_endpoints():
    cfg = TrainConfig(steps=1000, warmup=100, peak_lr=3e-4, min_lr_frac=0.1)
    assert lr_at(0, cfg) == 0.0
    assert math.isclose(lr_at(100, cfg), 3e-4, rel_tol=1e-12)
    assert math.isclose(lr_at(1000, cfg), 3e-5, rel_tol=1e-9)
    assert lr_at(550, cfg) < 3e-4


def test_lr_schedule_monotone_decay_after_warmup():
    cfg = TrainConfig(steps=400, warmup=50)
    vals = [lr_at(s, cfg) for s in range(50, 401)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_mask_at_insert():
    batch = np.arange(40).reshape(4, 10) % 256
    out = mask_at_insert(batch, 3, n_ctx=9)
    assert np.all(out[:, 3] == MASK_ID)
    keep = np.ones(10, dtype=bool)
    keep[3] = False
    assert np.array_equal(out[:, keep], batch[:, keep])
    assert not np.shares_memory(out, batch)
    for bad in (0, 1, 9, 50):
        with pytest.raises(ConfigError):
            mask_at_insert(batch, bad, n_ctx=9)


def test_adamw_zero_grad_touches_only_decayed_groups():
    model = TransformerLM(ModelConfig(n_layers=1, d_model=16, n_heads=2, n_ctx=8, window=4))
    opt = AdamW(model.parameters(), weight_decay=0.01)
    before = {k: t.data.copy() for k, t in model.parameters().items()}
    for _, t in opt.items:
        t.grad = np.zeros_like(t.data)
    opt.step(1e-2)
    for name, t in model.parameters().items():
        if name.endswith(("attn.tau", "attn.bias_table")):
            assert np.array_equal(t.data, before[name]), name  # exempt from decay
        else:
            expected = before[name] * (1 - 1e-2 * 0.01)
            assert np.allclose(t.data, expected, atol=1e-12), name


def test_adamw_matches_reference_update():
    rng = np.random.default_rng(1)
    w0 = rng.normal(size=(4, 3)).astype(np.float32)
    g = rng.normal(size=(4, 3)).astype(np.float32)
    p = Tensor(w0.copy(), requires_grad=True, dtype="float32")
    opt = AdamW({"w": p}, beta1=0.9, beta2=0.95, weight_decay=0.0)
    p.grad = g.copy()
    opt.step(1e-3)
    # first step with bias correction reduces to sign-like update g/|g|
    want = w0 - 1e-3 * g / (np.abs(g) + 1e-8)
    assert np.abs(p.data - want).max() < 1e-6


def smoke_cfgs(corpus, out_dir, steps=30, seed=0, **model_over):
    mc = ModelConfig(n_layers=2, d_model=32, n_heads=2, n_ctx=32, window=16,
                     seed=seed, **model_over)
    tc = TrainConfig(corpus=str(corpus), out_dir=str(out_dir), steps=steps,
                     batch_tokens=128, warmup=5, eval_every=0, seed=seed)
    return mc, tc


def test_loss_decreases_over_200_steps(small_corpus_path, tmp_path):
    mc, tc = smoke_cfgs(small_corpus_path, tmp_path / "run", steps=200)
    result = train(mc, tc)
    first = np.mean([l for _, l, _ in result.history[:10]])
    last = np.mean([l for _, l, _ in result.history[-10:]])
    assert result.history[-1][1] < result.history[0][1]
    assert last < first - 0.5  # byte-level loss falls well below the uniform floor


def test_training_determinism_and_logged_lr(small_corpus_path, tmp_path):
    mc1, tc1 = smoke_cfgs(small_corpus_path, tmp_path / "a", steps=25, seed=3)
    mc2, tc2 = smoke_cfgs(small_corpus_path, tmp_path / "b", steps=25, seed=3)
    r1 = train(mc1, tc1)
    r2 = train(mc2, tc2)
    assert r1.history == r2.history  # bit-identical loss curves
    with open(os.path.join(tc1.out_dir, "train_log.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25
    for row in rows:
        assert float(row["lr"]) == lr_at(int(row["step"]), tc1)
    assert Path(r1.checkpoint).read_bytes() == Path(r2.checkpoint).read_bytes()


def test_train_log_records_the_clipped_grad_norm(small_corpus_path, tmp_path, monkeypatch):
    """train_log.csv's grad_norm is what clip_grads returned at that step."""
    norms = []
    clip = training.AdamW.clip_grads

    def recording_clip(self, max_norm):
        norms.append(clip(self, max_norm))
        return norms[-1]

    monkeypatch.setattr(training.AdamW, "clip_grads", recording_clip)
    mc, tc = smoke_cfgs(small_corpus_path, tmp_path / "run", steps=6)
    train(mc, tc)
    with open(os.path.join(tc.out_dir, "train_log.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["step", "loss", "lr", "grad_norm", "wallclock"]
    assert [float(r["grad_norm"]) for r in rows] == norms
    assert all(n > 0 for n in norms)


# Minor page faults of the 10 steps below when glibc trims freed heap and moves
# its mmap threshold (its defaults): 145,228 for the softmax twin and 145,486 for
# the lazy twin, about 58 MB of freshly zeroed pages per step.
FAULTS_WITH_TRIMMING = 145_000


@pytest.mark.skipif(not core._FREED_HEAP_KEPT, reason="glibc mallopt unavailable")
@pytest.mark.parametrize("over", [dict(positional="rope", normalizer="softmax"),
                                  dict(positional="rope_bias", normalizer="elastic",
                                       tau_init=-1.0)], ids=["softmax", "lazy"])
def test_training_steps_reuse_freed_heap(over):
    """A warm twin-config step faults in almost no fresh pages (allocator policy in core).

    The step is the one ``train`` runs: row shards on the shard map, whose
    pool threads allocate too, then clipping and the optimizer.
    """
    import resource

    from conftest import TWIN_MODEL

    model = TransformerLM(ModelConfig(**{**TWIN_MODEL, **over}))
    opt = AdamW(model.parameters())
    replicas = [model] + [model.replica() for _ in range(training.SHARDS - 1)]
    batches = np.random.default_rng(0).integers(0, 256, size=(12, 8, 129))

    with training._shard_map(training.SHARDS) as shard_map:
        def step(batch):
            training._sharded_grads(replicas, batch, shard_map)
            opt.clip_grads(1.0)
            opt.step(1e-3)
            opt.zero_grads()

        for batch in batches[:2]:
            step(batch)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for batch in batches[2:]:
            step(batch)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 0.1 * FAULTS_WITH_TRIMMING


SHARD_MODELS = {
    "softmax": dict(positional="rope", normalizer="softmax"),
    "lazy": dict(positional="rope_bias", normalizer="elastic", tau_init=-1.0),
    "lazy_two_pass": dict(positional="rope_bias", normalizer="elastic", tau_init=-1.0,
                          attention_path="two_pass", tile=8),
}


def shard_model(kind, dtype="float32"):
    return TransformerLM(ModelConfig(n_layers=2, d_model=32, n_heads=2, n_ctx=32, window=16,
                                     dtype=dtype, **SHARD_MODELS[kind]))


def sharded_step(model, batch):
    """Loss, grads and shard thread count of one sharded step, as ``train`` runs it."""
    with training._shard_map(training.SHARDS) as shard_map:
        loss = training._sharded_grads([model, model.replica()], batch, shard_map)
    grads = {k: t.grad for k, t in model.parameters().items() if t.grad is not None}
    return loss, grads, training._shard_threads(training.SHARDS)


def test_replica_shares_parameter_arrays_but_not_grads():
    model = shard_model("lazy")
    twin = model.replica()
    for name, t in model.parameters().items():
        r = twin.parameters()[name]
        assert r is not t and r.data is t.data and r.requires_grad == t.requires_grad
    assert [lp["attn.bias_table"] for lp in twin.layers] == twin.bias_table.tables
    batch = np.random.default_rng(2).integers(0, 256, size=(2, 33))
    with Tape() as tape:
        loss = twin.loss(batch[:, :-1], batch[:, 1:])
    backward(tape, loss)
    assert all(t.grad is None for t in model.parameters().values())
    assert twin.parameters()["embed"].grad is not None


@pytest.mark.parametrize("kind", list(SHARD_MODELS))
def test_concurrent_shards_match_shards_run_one_after_another(kind, monkeypatch):
    """Loss and every gradient are the same bits whether one or two threads ran the shards."""
    batch = np.random.default_rng(3).integers(0, 256, size=(4, 33))
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    loss2, grads2, threads = sharded_step(shard_model(kind), batch)
    assert threads == (2 if core.BLAS_PINNABLE else 1)
    monkeypatch.setattr(training, "_usable_cpus", lambda: 1)
    loss1, grads1, threads = sharded_step(shard_model(kind), batch)
    assert threads == 1
    assert loss1 == loss2
    assert grads1.keys() == grads2.keys()
    for name in grads1:
        assert np.array_equal(grads1[name], grads2[name]), name


@pytest.mark.parametrize("dtype,rows,tol", [("float32", 4, 1e-5), ("float64", 4, 1e-12),
                                            ("float64", 3, 1e-12)])
@pytest.mark.parametrize("kind", list(SHARD_MODELS))
def test_sharded_gradients_match_the_full_batch(kind, dtype, rows, tol):
    """Shard losses scaled by their row shares sum to the full batch's loss and gradient.

    A 3-row batch splits into 1 + 2 rows; weighting those shards equally
    would miss the full-batch loss by far more than rounding.
    """
    batch = np.random.default_rng(4).integers(0, 256, size=(rows, 33))
    model = shard_model(kind, dtype)
    with Tape() as tape:
        full = model.loss(batch[:, :-1], batch[:, 1:])
    backward(tape, full)
    want = {k: t.grad for k, t in model.parameters().items() if t.grad is not None}
    model.zero_grads()
    loss, grads, _ = sharded_step(model, batch)
    assert [s.stop - s.start for s in training._row_shards(rows)] == [rows // 2, rows - rows // 2]
    assert abs(loss / full.item() - 1) < tol
    assert grads.keys() == want.keys()
    for name, g in want.items():
        assert np.linalg.norm(grads[name] - g) <= tol * np.linalg.norm(g), name


def test_one_row_batch_is_one_shard():
    assert training._row_shards(1) == [slice(0, 1)]


def test_mean_nll_sums_batches_in_batch_order():
    """Five batches give the bits of evaluating them one by one in batch order."""
    model = shard_model("lazy")
    chunks = np.random.default_rng(5).integers(0, 256, size=(9, 33))
    total, count = 0.0, 0
    for i in range(0, len(chunks), 2):
        part = chunks[i:i + 2]
        total += model.loss(part[:, :-1], part[:, 1:]).item() * part[:, 1:].size
        count += part[:, 1:].size
    assert training.mean_nll(model, chunks, batch_size=2) == total / count


def test_mean_nll_through_two_threads_matches_one_thread(monkeypatch):
    """Seven batches dealt to two threads give the one-thread bits, the short last one included.

    Under two threads the first batch is held until the other six are done,
    so the losses finish far out of batch order. The model is float64:
    float32 batch losses times their token counts sum exactly in any order,
    so only float64 shows a sum taken in the order the batches finish; on
    these chunks that sum differs from the batch-order one in the last bit.
    """
    model = shard_model("lazy", "float64")
    chunks = np.random.default_rng(9).integers(0, 256, size=(13, 33))
    loss, done, cond, hold = TransformerLM.loss, [], threading.Condition(), [False]

    def last_first_batch(self, ids, targets, *, max_len=None):
        if hold[0] and np.array_equal(ids, chunks[:2, :-1]):
            with cond:
                assert cond.wait_for(lambda: len(done) == 6, timeout=60)
        out = loss(self, ids, targets, max_len=max_len)
        with cond:
            done.append(out.item() * targets.size)  # mean_nll's term, in finishing order
            cond.notify_all()
        return out

    monkeypatch.setattr(TransformerLM, "loss", last_first_batch)
    monkeypatch.setattr(training, "_usable_cpus", lambda: 1)
    one = training.mean_nll(model, chunks, batch_size=2)
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    hold[0] = training._shard_threads(training.SHARDS) == 2
    done.clear()
    two = training.mean_nll(model, chunks, batch_size=2)
    assert hold[0] == core.BLAS_PINNABLE
    assert len(done) == 7
    assert two == one
    if hold[0]:
        assert sum(done) / chunks[:, 1:].size != one


def _train_log_without_wallclock(out_dir):
    with open(os.path.join(out_dir, "train_log.csv")) as fh:
        return [row[:-1] for row in csv.reader(fh)]


@pytest.mark.parametrize("kind", ["lazy", "lazy_two_pass"])
def test_train_bits_do_not_depend_on_the_thread_count(kind, small_corpus_path, tmp_path,
                                                      monkeypatch):
    """One and two shard threads write the same checkpoint, eval log and train log.

    Two periodic evals and the final one each cover an odd number of eval
    batches, the last one short.
    """
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
        mc, tc = smoke_cfgs(small_corpus_path, tmp_path / f"cpus{cpus}", steps=7,
                            **SHARD_MODELS[kind])
        tc.eval_every, tc.eval_frac = 3, 0.019
        train(mc, tc)
        runs[cpus] = tc.out_dir
    with open(os.path.join(runs[2], "run_meta.json")) as fh:
        meta = json.load(fh)
    assert meta["shard_threads"] == (2 if core.BLAS_PINNABLE else 1)
    batch_rows = tc.batch_tokens // mc.n_ctx
    assert meta["chunks"]["eval"] % batch_rows != 0
    assert math.ceil(meta["chunks"]["eval"] / batch_rows) % 2 == 1
    for name in ("checkpoint.bin", "eval_log.csv"):
        with open(os.path.join(runs[1], name), "rb") as a, open(os.path.join(runs[2], name), "rb") as b:
            assert a.read() == b.read(), name
    with open(os.path.join(runs[2], "eval_log.csv")) as fh:
        assert [row["step"] for row in csv.DictReader(fh)] == ["2", "5", "6"]
    assert _train_log_without_wallclock(runs[1]) == _train_log_without_wallclock(runs[2])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blow-up overflows on purpose
def test_diverging_run_exits_2_and_dumps_its_gradients(small_corpus_path, tmp_path, capsys):
    from lazyattn.cli import main

    cfg = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfg.write_text(
        f"corpus = {small_corpus_path}\nout_dir = {out_dir}\n"
        "steps = 5\nbatch_tokens = 128\nwarmup = 0\neval_every = 0\n"
        "peak_lr = 1e9\ngrad_clip = 0\n"
        "n_layers = 1\nd_model = 32\nn_heads = 2\nn_ctx = 32\nwindow = 8\n"
    )
    assert main(["train", "--config", str(cfg), "--quiet"]) == 2
    dump = out_dir / "divergence.json"
    assert f"non-finite loss nan at step 1; see {dump}" in capsys.readouterr().err
    with open(dump) as fh:
        blob = json.load(fh)
    assert blob["step"] == 1 and math.isnan(blob["loss"])
    model = TransformerLM(build_configs(parse_config_file(cfg))[0])
    trained = [name for name, t in model.parameters().items() if t.requires_grad]
    assert list(blob["max_abs_grad"]) == trained
    assert not (out_dir / "checkpoint.bin").exists()


def test_shard_map_joins_its_workers_and_restores_blas_when_a_shard_raises(monkeypatch):
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    threads_before = threading.active_count()
    blas_before = core._BLAS_THREADS[0]() if core.BLAS_PINNABLE else None

    def shard(i):
        if i == 1:
            raise ValueError("worker shard failed")
        return i

    with pytest.raises(ValueError, match="worker shard failed"):
        with training._shard_map(2) as shard_map:
            if core.BLAS_PINNABLE:
                assert core._BLAS_THREADS[0]() == 1
            shard_map(shard, [0, 1])
    assert threading.active_count() == threads_before
    if core.BLAS_PINNABLE:
        assert core._BLAS_THREADS[0]() == blas_before


def test_shard_map_returns_results_in_item_order_when_a_later_item_finishes_first(monkeypatch):
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    if training._shard_threads(2) < 2:
        pytest.skip("the shard map runs on one thread here")
    item_1_done = threading.Event()
    finished = []

    def item(i):
        if i == 0:
            assert item_1_done.wait(timeout=10), "item 0 waited for item 1 in vain"
        finished.append(i)
        if i == 1:
            item_1_done.set()
        return i * 10

    with training._shard_map(2) as shard_map:
        assert shard_map(item, [0, 1]) == [0, 10]
    assert finished == [1, 0]


def test_clip_grads_norm_agrees_with_a_float64_sum():
    from conftest import TWIN_MODEL

    model = TransformerLM(ModelConfig(**TWIN_MODEL))
    batch = np.random.default_rng(6).integers(0, 256, size=(8, 129))
    with Tape() as tape:
        loss = model.loss(batch[:, :-1], batch[:, 1:])
    backward(tape, loss)
    opt = AdamW(model.parameters())
    want = math.sqrt(sum(float((t.grad.astype(np.float64) ** 2).sum())
                         for _, t in opt.items if t.grad is not None))
    assert abs(opt.clip_grads(0.0) / want - 1) < 1e-6  # max_norm 0 measures without scaling


def test_training_writes_metadata_and_eval(small_corpus_path, tmp_path):
    mc, tc = smoke_cfgs(small_corpus_path, tmp_path / "run", steps=12)
    tc.eval_every = 6
    threads_before = threading.active_count()
    result = train(mc, tc)
    assert threading.active_count() == threads_before  # the shard workers are joined
    assert math.isfinite(result.final_eval_loss)
    meta = os.path.join(tc.out_dir, "run_meta.json")
    assert os.path.exists(meta)
    with open(meta) as fh:
        blob = json.load(fh)
    assert blob["normalizer"] == mc.normalizer
    assert blob["rope_base"] == mc.rope_base
    assert blob["shards"] == 2  # 128-token batches of 32-token rows: 4 rows
    assert blob["blas_pinned"] == core.BLAS_PINNABLE
    assert blob["shard_threads"] == (min(2, training._usable_cpus()) if core.BLAS_PINNABLE else 1)
    with open(os.path.join(tc.out_dir, "eval_log.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    model, manifest = load_checkpoint(result.checkpoint)
    assert manifest["step"] == 12


def test_training_with_mask_probe(small_corpus_path, tmp_path):
    mc, tc = smoke_cfgs(small_corpus_path, tmp_path / "run", steps=5, mask_token=True)
    tc.mask_at = 4
    result = train(mc, tc)
    model, _ = load_checkpoint(result.checkpoint)
    assert model.cfg.vocab_size == 258
    mc2, tc2 = smoke_cfgs(small_corpus_path, tmp_path / "run2", steps=5)
    tc2.mask_at = 4  # mask probe without the reserved vocab slot
    with pytest.raises(ConfigError):
        train(mc2, tc2)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(steps=10, warmup=20).validate(32)
    with pytest.raises(ConfigError):
        TrainConfig(batch_tokens=100).validate(32)
    for bad in (0, -32, 16):  # below one context, even where divisible by it
        with pytest.raises(ConfigError, match="below one context"):
            TrainConfig(batch_tokens=bad).validate(32)
    for bad in (1, 32, 40):
        with pytest.raises(ConfigError, match="mask position"):
            TrainConfig(mask_at=bad).validate(32)
    TrainConfig(mask_at=31).validate(32)


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# twin run\n"
        "corpus = data.txt\n"
        "steps = 40\n"
        "peak_lr = 1e-3   # peak\n"
        "normalizer = elastic\n"
        "tau_init = -1.0\n"
        "freeze_tau = false\n"
        "mask_at = none\n"
    )
    kv = parse_config_file(p)
    mc, tc = build_configs(kv)
    assert tc.steps == 40 and tc.peak_lr == 1e-3 and tc.corpus == "data.txt"
    assert mc.normalizer == "elastic" and mc.tau_init == -1.0 and mc.freeze_tau is False
    assert tc.mask_at is None


def test_config_file_seed_reaches_model_and_training(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("seed = 7\nsteps = 40\n")
    mc, tc = build_configs(parse_config_file(p))
    assert mc.seed == 7 and tc.seed == 7
    assert tc.steps == 40


def test_parse_config_rejects_bad_lines(tmp_path):
    bad1 = tmp_path / "bad1.cfg"
    bad1.write_text("steps 40\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad1)
    bad2 = tmp_path / "bad2.cfg"
    bad2.write_text("steps = 40\nsteps = 50\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad2)
    bad3 = tmp_path / "bad3.cfg"
    bad3.write_text("nonsense = 1\n")
    with pytest.raises(ConfigError):
        build_configs(parse_config_file(bad3))


BAD_MODEL_KEYS = {
    "zero heads": ("n_heads = 0\n", "n_heads"),
    "zero layers": ("n_layers = 0\n", "n_layers must be >= 1"),
    "negative layers": ("n_layers = -1\n", "n_layers must be >= 1"),
    "sparsemax on the two-pass path": ("normalizer = sparsemax\nattention_path = two_pass\n",
                                       "sparsemax"),
    "unknown positional mode": ("positional = bogus\n", "positional mode 'bogus'"),
    "float16": ("dtype = float16\n", "unsupported dtype 'float16'"),
    "negative window": ("window = -1\n", "window must be >= 0"),
    "fixed normalizer": ("normalizer = fixed\n",
                         "expected one of softmax, sparsemax, elastic_global, elastic"),
    "nan rope_base": ("rope_base = nan\n", "rope_base must be finite"),
    "nan tau_init": ("tau_init = nan\n", "tau_init must be finite"),
    "infinite tau_init": ("tau_init = -inf\n", "tau_init must be finite"),
}


@pytest.mark.parametrize("bad", list(BAD_MODEL_KEYS))
def test_bad_model_keys_fail_before_training_writes(bad, small_corpus_path, tmp_path, capsys):
    from lazyattn.cli import main

    cfg = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    lines, message = BAD_MODEL_KEYS[bad]
    cfg.write_text(f"corpus = {small_corpus_path}\nout_dir = {out_dir}\n" + lines)
    with pytest.raises(ConfigError, match=message):
        build_configs(parse_config_file(cfg))
    assert main(["train", "--config", str(cfg), "--quiet"]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


BAD_TRAIN_KEYS = {
    "zero batch_tokens": ({"batch_tokens": 0}, "batch_tokens 0"),
    "negative batch_tokens": ({"batch_tokens": -32}, "batch_tokens -32"),
    "mask_at past the context": ({"mask_token": "true", "mask_at": 40}, "mask position 40"),
    "negative warmup": ({"warmup": -5}, "warmup must lie in [0, steps]"),
    "negative peak_lr": ({"peak_lr": -1}, "peak_lr must be >= 0"),
    "beta1 above one": ({"beta1": 1.5}, "beta1 must lie in [0, 1)"),
    "negative beta1": ({"beta1": -0.1}, "beta1 must lie in [0, 1)"),
    "beta2 of one": ({"beta2": 1.0}, "beta2 must lie in [0, 1)"),
    "eval_frac above one": ({"eval_frac": 1.5}, "eval_frac must lie in [0, 1)"),
    "negative weight_decay": ({"weight_decay": -1}, "weight_decay must be >= 0"),
    "negative eval_every": ({"eval_every": -3}, "eval_every must be >= 0"),
    "negative grad_clip": ({"grad_clip": -1}, "grad_clip must be >= 0"),
    "negative seed": ({"seed": -1}, "seed must be >= 0"),
    "nan grad_clip": ({"grad_clip": "nan"}, "grad_clip must be finite"),
    "nan peak_lr": ({"peak_lr": "nan"}, "peak_lr must be finite"),
    "infinite weight_decay": ({"weight_decay": "inf"}, "weight_decay must be finite"),
    "nan beta1": ({"beta1": "nan"}, "beta1 must be finite"),
    "infinite min_lr_frac": ({"min_lr_frac": "inf"}, "min_lr_frac must be finite"),
    "mask_at not an int": ({"mask_token": "true", "mask_at": "abc"}, "bad value for mask_at: "),
}


@pytest.mark.parametrize("bad", list(BAD_TRAIN_KEYS))
def test_bad_train_keys_fail_before_training_writes(bad, small_corpus_path, tmp_path, capsys):
    """Train keys are checked against the model's context before anything is written."""
    from lazyattn.cli import main

    cfg = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    overrides, message = BAD_TRAIN_KEYS[bad]
    keys = {"corpus": small_corpus_path, "out_dir": out_dir, "steps": 8, "warmup": 2,
            "n_layers": 1, "d_model": 32, "n_heads": 2, "n_ctx": 32, "window": 8, **overrides}
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
    assert main(["train", "--config", str(cfg), "--quiet"]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_batch_larger_than_training_split_fails_before_writing(tmp_path, capsys):
    """A batch needs that many distinct training chunks; a smaller split is a config error."""
    from lazyattn.cli import main

    corpus = tmp_path / "tiny.txt"
    corpus.write_bytes(b"lazy attention " * 133)  # 1995 bytes: 60 chunks at n_ctx 32, 58 to train
    out_dir = tmp_path / "out"
    mc = ModelConfig(n_layers=1, d_model=32, n_heads=2, n_ctx=32, window=8)
    tc = TrainConfig(corpus=str(corpus), out_dir=str(out_dir), steps=3, warmup=0,
                     batch_tokens=3200, eval_every=0)
    with pytest.raises(ConfigError, match="batch_tokens 3200 needs 100 training chunks; "
                                          "the training split holds 58"):
        train(mc, tc)
    assert not out_dir.exists()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"corpus = {corpus}\nout_dir = {out_dir}\nsteps = 3\nwarmup = 0\n"
                   "batch_tokens = 3200\neval_every = 0\n"
                   "n_layers = 1\nd_model = 32\nn_heads = 2\nn_ctx = 32\nwindow = 8\n")
    assert main(["train", "--config", str(cfg), "--quiet"]) == 2
    assert "the training split holds 58" in capsys.readouterr().err
    assert not (out_dir / "run_meta.json").exists() and not (out_dir / "checkpoint.bin").exists()


def test_cli_train_and_diagnose(small_corpus_path, tmp_path):
    from lazyattn.cli import main

    cfg = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfg.write_text(
        f"corpus = {small_corpus_path}\n"
        f"out_dir = {out_dir}\n"
        "steps = 8\nbatch_tokens = 128\nwarmup = 2\neval_every = 0\n"
        "n_layers = 1\nd_model = 32\nn_heads = 2\nn_ctx = 32\nwindow = 8\n"
    )
    assert main(["train", "--config", str(cfg), "--quiet"]) == 0
    ckpt = out_dir / "checkpoint.bin"
    assert ckpt.exists()
    out_csv = tmp_path / "bias.csv"
    assert main(["export-bias", "--checkpoint", str(ckpt), "--out", str(out_csv)]) == 0
    assert out_csv.exists()
    assert main(["export-bias", "--checkpoint", str(tmp_path / "missing.bin"),
                 "--out", str(out_csv)]) == 2
