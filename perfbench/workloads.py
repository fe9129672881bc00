"""The two workloads: set-up, measured rounds, and output checks.

A run sets up (several times, for a median set-up time), then repeats
whole rounds of the same program calls for about ``seconds``, then
checks the last round's outputs. Every train call and every CLI
subcommand is one attempted operation; one that raises or exits nonzero
is a failed one.

Timings are medians of many small samples, kept apart per model and per
subcommand, and summed only at the end: this host's speed drifts by 10-20 %
over a few seconds, and a median of a few whole rounds, or of a pool that
mixes two models of different speed, moved by as much from run to run.

The program is driven only through ``lazyattn.training.train``, other
public functions, and the ``lazyattn`` CLI (``lazyattn.cli.main``, run
in this process so that the load stays in one process).
"""

from __future__ import annotations

import contextlib
import io
import math
import pathlib
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import checks
import spans

WORKLOADS = ("twin_short", "long_two_pass")

# Stdlib sources make a deterministic few-MB byte corpus with no download,
# the same recipe as the test suite's conftest.
CORPUS_MODULES = [
    "json", "argparse", "dataclasses", "typing", "inspect", "difflib",
    "ast", "pickle", "pydoc", "unittest", "logging", "email", "http",
    "urllib", "xml", "asyncio", "collections", "importlib", "ctypes",
    "multiprocessing", "concurrent", "encodings",
]

PROBE_TOKEN = ord("e")
EVAL_LENGTHS = (128, 256)
SINK_POSITIONS = 15  # stats-sink default


def build_corpus(target_bytes: int) -> bytes:
    parts, total = [], 0
    for name in CORPUS_MODULES:
        mod = __import__(name)
        path = pathlib.Path(mod.__file__)
        files = sorted(path.parent.rglob("*.py")) if path.name == "__init__.py" else [path]
        for f in files:
            try:
                data = f.read_bytes()
            except OSError:
                continue
            parts.append(data)
            total += len(data)
            if total >= target_bytes:
                return b"".join(parts)[:target_bytes]
    return b"".join(parts)[:target_bytes]


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` its self-test."""

    corpus_bytes: int = 2_200_000
    holdout_bytes: int = 16_384
    n_layers: int = 2
    d_model: int = 128
    n_heads: int = 4
    n_ctx: int = 128
    long_ctx: int = 512
    batch_tokens: int = 1024
    twin_steps: int = 40
    long_steps: int = 20
    setup_repeats: int = 15
    check_tokens: int = 2048  # held-out tokens for the density/two-pass checks
    density_tokens: int = 2048  # measure-density input per checkpoint


FULL = Sizes()
TINY = Sizes(corpus_bytes=300_000, holdout_bytes=4096, d_model=32, n_heads=2, n_ctx=32,
             long_ctx=256, batch_tokens=256, twin_steps=6, long_steps=4, setup_repeats=2,
             check_tokens=256, density_tokens=256)


@dataclass
class Ctx:
    """One run's inputs, operation counters and timing samples."""

    sizes: Sizes
    seed: int
    work: pathlib.Path
    tracer: spans.Tracer | None = None
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)  # failed checks
    failures: list[str] = field(default_factory=list)  # failed operations
    # timing samples, keyed by model (and subcommand)
    step_s: dict = field(default_factory=dict)  # kind -> seconds of each train step
    call_extra_s: dict = field(default_factory=dict)  # kind -> call time outside the steps
    train_shape: dict = field(default_factory=dict)  # kind -> (steps, tokens) per train call
    eval_tokens: dict = field(default_factory=dict)  # kind -> tokens per eval subcommand
    cli_s: dict = field(default_factory=dict)  # (kind, subcommand) -> seconds

    @property
    def corpus(self) -> pathlib.Path:
        return self.work / "corpus.txt"

    @property
    def holdout(self) -> pathlib.Path:
        return self.work / "holdout.txt"

    def holdout_tokens(self) -> np.ndarray:
        from lazyattn import tokenize_bytes
        return tokenize_bytes(self.holdout.read_bytes())

    def check(self, reason: str | None) -> None:
        if reason is not None:
            self.errors.append(reason)


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------


def model_config(ctx: Ctx, kind: str, *, n_ctx: int | None = None, path: str = "naive"):
    from lazyattn import ModelConfig
    s = ctx.sizes
    mode = (dict(positional="rope", normalizer="softmax") if kind == "softmax"
            else dict(positional="rope_bias", normalizer="elastic", tau_init=-1.0))
    return ModelConfig(n_layers=s.n_layers, d_model=s.d_model, n_heads=s.n_heads,
                       n_ctx=n_ctx or s.n_ctx, window=512, rope_base=1e5,
                       attention_path=path, seed=ctx.seed, **mode)


def train_config(ctx: Ctx, out_dir: pathlib.Path, *, steps: int, batch_tokens: int,
                 warmup: int, peak_lr: float):
    from lazyattn import TrainConfig
    # The run seed sets the model's initialisation only. Data order and the
    # held-out split stay fixed: a seed-drawn split of a few dozen chunks
    # moves the held-out NLL by several percent on its own.
    return TrainConfig(corpus=str(ctx.corpus), out_dir=str(out_dir), steps=steps,
                       batch_tokens=batch_tokens, warmup=warmup, peak_lr=peak_lr,
                       eval_every=0, eval_frac=0.005, seed=0)


# ---------------------------------------------------------------------------
# program calls
# ---------------------------------------------------------------------------


def run_train(ctx: Ctx, kind: str, model_cfg, train_cfg):
    """One ``training.train`` call; returns the TrainResult or None.

    The step times come from the wall clock that ``train`` writes to
    train_log.csv after every step; the rest of the call (ingest, init, the
    final eval and the checkpoint save) is its time outside the steps.
    """
    from lazyattn import training
    ctx.attempted += 1
    t0 = time.perf_counter()
    try:
        result = training.train(model_cfg, train_cfg)
    except Exception:  # a failed operation is counted, not fatal
        ctx.failed += 1
        ctx.failures.append("train raised:\n" + traceback.format_exc())
        return None
    wall = time.perf_counter() - t0
    clock = [0.0] + [float(r["wallclock"]) for r in
                     checks.read_csv(pathlib.Path(train_cfg.out_dir) / "train_log.csv")]
    ctx.step_s.setdefault(kind, []).extend(b - a for a, b in zip(clock, clock[1:]))
    ctx.call_extra_s.setdefault(kind, []).append(wall - clock[-1])
    ctx.train_shape[kind] = (train_cfg.steps, train_cfg.steps * train_cfg.batch_tokens)
    return result


def run_cli(ctx: Ctx, kind: str, argv: list[str]) -> int:
    """One ``lazyattn`` subcommand, in process; returns its exit code."""
    from lazyattn import cli
    ctx.attempted += 1
    sink = io.StringIO()
    span = ctx.tracer.open(f"cli.{argv[0]}") if ctx.tracer else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except Exception:  # an uncaught error is the CLI's exit status 1
        rc = 1
        sink.write(traceback.format_exc())
    dt = time.perf_counter() - t0
    if span is not None:
        ctx.tracer.close(span)
    if rc != 0:
        ctx.failed += 1
        ctx.failures.append(f"lazyattn {' '.join(argv)} exited {rc}: {sink.getvalue().strip()}")
        return rc
    ctx.cli_s.setdefault((kind, argv[0]), []).append(dt)
    return rc


def suite_argv(ckpt: str, text: str, out: pathlib.Path, n_ctx: int,
               density_tokens: int) -> list[list[str]]:
    lengths = ",".join(str(n) for n in EVAL_LENGTHS)
    return [
        ["eval", "--checkpoint", ckpt, "--text", text, "--lengths", lengths,
         "--out", str(out / "eval.csv")],
        ["measure-density", "--checkpoint", ckpt, "--text", text,
         "--max-sequences", str(max(1, density_tokens // n_ctx)), "--out", str(out / "density.csv")],
        ["probe-repeat", "--checkpoint", ckpt, "--token", str(PROBE_TOKEN), "--length", "128",
         "--min-row", "64", "--out", str(out / "probe.csv")],
        ["stats-sink", "--checkpoint", ckpt, "--text", text, "--out", str(out / "sink.csv")],
        ["export-bias", "--checkpoint", ckpt, "--out", str(out / "bias.csv")],
        ["export-offsets", "--checkpoint", ckpt, "--out", str(out / "tau.csv")],
    ]


def run_suite(ctx: Ctx, ckpts: dict[str, tuple[str, int]]) -> None:
    """The six diagnostic subcommands over each checkpoint."""
    for name, (ckpt, n_ctx) in ckpts.items():
        out = ctx.work / "diag" / name
        out.mkdir(parents=True, exist_ok=True)
        for argv in suite_argv(ckpt, str(ctx.holdout), out, n_ctx, ctx.sizes.density_tokens):
            if run_cli(ctx, name, argv) == 0 and argv[0] == "eval":
                rows = checks.read_csv(out / "eval.csv")
                ctx.eval_tokens[name] = sum(int(r["length"]) * int(r["windows"]) for r in rows)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def write_texts(ctx: Ctx) -> None:
    s = ctx.sizes
    data = build_corpus(s.corpus_bytes + s.holdout_bytes)
    if len(data) < s.corpus_bytes + s.holdout_bytes:
        raise RuntimeError(f"stdlib sources give only {len(data)} corpus bytes")
    ctx.corpus.write_bytes(data[: s.corpus_bytes])
    ctx.holdout.write_bytes(data[s.corpus_bytes:])


def setup(ctx: Ctx) -> float:
    """Build the corpus and held-out text ``setup_repeats`` times; returns the median seconds."""
    times = []
    for _ in range(ctx.sizes.setup_repeats):
        # Time writing new files: truncating the last set-up's files frees
        # their blocks inside the timed region and doubles the jitter.
        ctx.corpus.unlink(missing_ok=True)
        ctx.holdout.unlink(missing_ok=True)
        t0 = time.perf_counter()
        write_texts(ctx)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def twin_round(ctx: Ctx) -> dict:
    s = ctx.sizes
    results = {}
    for kind in ("softmax", "lazy"):
        tc = train_config(ctx, ctx.work / "twin" / kind, steps=s.twin_steps,
                          batch_tokens=s.batch_tokens, warmup=min(10, s.twin_steps),
                          peak_lr=1e-3)
        results[kind] = run_train(ctx, kind, model_config(ctx, kind), tc)
        # Each model's suite follows its training, so the two models' suite
        # samples fall at different times of the run.
        run_suite(ctx, {kind: (str(ctx.work / "twin" / kind / "checkpoint.bin"), s.n_ctx)})
    return results


def long_round(ctx: Ctx) -> dict:
    s = ctx.sizes
    tc = train_config(ctx, ctx.work / "long" / "lazy", steps=s.long_steps,
                      batch_tokens=s.batch_tokens, warmup=min(5, s.long_steps), peak_lr=1e-3)
    result = run_train(ctx, "lazy", model_config(ctx, "lazy", n_ctx=s.long_ctx, path="two_pass"), tc)
    run_suite(ctx, {"lazy": (str(ctx.work / "long" / "lazy" / "checkpoint.bin"), s.long_ctx)})
    return {"lazy": result}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def held_out_batch(ctx: Ctx, n: int) -> np.ndarray:
    toks = ctx.holdout_tokens()
    rows = max(1, ctx.sizes.check_tokens // n)
    if len(toks) < rows * n + 1:
        raise RuntimeError("held-out text too short for the check batch")
    return toks[: rows * n].reshape(rows, n)


def check_training(ctx: Ctx, results: dict) -> None:
    for kind, res in results.items():
        if res is None:
            continue
        ctx.check(checks.first_loss(kind, res.history))
        ctx.check(checks.loss_fell(kind, res.history, res.final_eval_loss))


def capture_stats(ckpt: str, batch: np.ndarray):
    from lazyattn import CaptureBuffer, load_checkpoint, measure_density
    model, _ = load_checkpoint(ckpt)
    cap = CaptureBuffer()
    return model, measure_density(model, batch, capture=cap), cap


def check_suite(ctx: Ctx, name: str, ckpt: str) -> None:
    """Outputs of the six subcommands against the checkpoint itself."""
    from lazyattn import diagnostics, load_checkpoint
    out = ctx.work / "diag" / name
    model, _ = load_checkpoint(ckpt)
    cfg = model.cfg
    heads = cfg.n_layers * cfg.n_heads
    try:
        rows = {k: checks.read_csv(out / f"{k}.csv")
                for k in ("eval", "density", "probe", "sink", "bias", "tau")}
    except OSError as exc:
        ctx.errors.append(f"{name}: missing subcommand output: {exc}")
        return
    expected = {"eval": len(EVAL_LENGTHS), "density": heads + 1, "probe": heads,
                "sink": cfg.n_layers * SINK_POSITIONS,
                "bias": heads * (model.window + 1), "tau": heads}
    for k, want in expected.items():
        ctx.check(checks.row_count(f"{name} {k}", rows[k], want))
    ctx.check(checks.ppl_rows(name, rows["eval"]))
    model64, _ = load_checkpoint(ckpt, dtype="float64")
    nll64 = diagnostics.eval_ppl(model64, ctx.holdout_tokens(), [EVAL_LENGTHS[0]])[0]["nll"]
    row = next(r for r in rows["eval"] if int(r["length"]) == EVAL_LENGTHS[0])
    ctx.check(checks.nll_matches_fp64(name, float(row["nll"]), nll64))
    if cfg.normalizer == "softmax":
        ctx.check(checks.density_csv_identity(name, rows["density"]))
        ctx.check(checks.probe_rows(name, rows["probe"]))
    ctx.check(checks.exported_params(name, rows["bias"], rows["tau"],
                                     [t.data for t in model.bias_table.tables], model.taus()))


def check_twin(ctx: Ctx, results: dict) -> None:
    check_training(ctx, results)
    if None in results.values():
        return
    batch = held_out_batch(ctx, ctx.sizes.n_ctx)
    _, base, _ = capture_stats(results["softmax"].checkpoint, batch)
    lazy_model, lazy, cap = capture_stats(results["lazy"].checkpoint, batch)
    ctx.check(checks.softmax_identity("baseline", base.per_head))
    ctx.check(checks.zero_share("lazy", cap.layers))
    ctx.check(checks.lazy_weights("lazy", cap.layers, lazy_model.taus()))
    ctx.check(checks.twin_directions((lazy.density_pct, lazy.sink_pct),
                                     (base.density_pct, base.sink_pct),
                                     results["lazy"].final_eval_loss,
                                     results["softmax"].final_eval_loss))
    for kind, res in results.items():
        check_suite(ctx, kind, res.checkpoint)


def two_pass_grads(ckpt: str, ids: np.ndarray, path: str) -> dict:
    from lazyattn import Tape, backward, load_checkpoint
    model, _ = load_checkpoint(ckpt, dtype="float64")
    model.attn_cfg.path = path
    with Tape() as tape:
        loss = model.loss(ids[:, :-1], ids[:, 1:])
    backward(tape, loss)
    return {k: t.grad.copy() for k, t in model.parameters().items() if t.grad is not None}


def check_long(ctx: Ctx, results: dict) -> None:
    from lazyattn import AllocationMeter, CaptureBuffer, load_checkpoint
    check_training(ctx, results)
    res = results["lazy"]
    if res is None:
        return
    n = ctx.sizes.long_ctx
    batch = held_out_batch(ctx, n)
    model, _ = load_checkpoint(res.checkpoint)
    outputs = {}
    for path in ("two_pass", "naive"):
        model.attn_cfg.path = path
        cap = CaptureBuffer()
        logits = model.lm_forward(batch, capture=cap).data
        outputs[path] = (logits, cap.layers)
    ctx.check(checks.lazy_weights("long lazy", outputs["two_pass"][1], model.taus()))
    ctx.check(checks.two_pass_matches_naive(outputs["two_pass"], outputs["naive"]))

    ids = ctx.holdout_tokens()[: n + 1][None, :]
    ctx.check(checks.grads_close(two_pass_grads(res.checkpoint, ids, "two_pass"),
                                 two_pass_grads(res.checkpoint, ids, "naive")))

    model.attn_cfg.path = "two_pass"
    peaks = []
    for length in (n // 2, n):
        meter = AllocationMeter()
        model.lm_forward(batch[:1, :length], meter=meter)
        peaks.append(meter.peak)
    ctx.check(checks.aux_growth(*peaks))
    check_suite(ctx, "lazy", res.checkpoint)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, work: pathlib.Path,
        sizes: Sizes = FULL) -> dict:
    """Set up, measure whole rounds for ``seconds``, check; returns the result."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    ctx = Ctx(sizes=sizes, seed=seed % 2**31, work=work)
    setup_s = setup(ctx)

    if trace:
        ctx.tracer = spans.Tracer()
        ctx.tracer.install()
    rounds = 0
    t_end = time.perf_counter() + seconds
    try:
        while True:
            t0 = time.perf_counter()
            results = twin_round(ctx) if workload == "twin_short" else long_round(ctx)
            rounds += 1
            # Start another round only if it would end nearer to ``seconds``
            # than stopping now does, so a run lasts ``seconds`` +- half a round.
            now = time.perf_counter()
            if now + (now - t0) / 2 >= t_end:
                break
    finally:
        if ctx.tracer is not None:
            ctx.tracer.uninstall()

    {"twin_short": check_twin, "long_two_pass": check_long}[workload](ctx, results)

    lazy = results.get("lazy")
    eval_s = {key: v for key, v in ctx.cli_s.items() if key[1] == "eval"}
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "train_tok_per_s": (train_rate(ctx), "tok/s"),
        "eval_nll": (lazy.final_eval_loss if lazy is not None else math.nan, "nats/tok"),
        "eval_tok_per_s": (sum(ctx.eval_tokens.values()) / sum_of_medians(eval_s), "tok/s"),
        "diagnose_s": (sum_of_medians(ctx.cli_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {"train_steps": {k: len(v) for k, v in ctx.step_s.items()},
               "train_calls": {k: len(v) for k, v in ctx.call_extra_s.items()},
               "subcommand_calls": {f"{k}/{c}": len(v) for (k, c), v in ctx.cli_s.items()}}
    out = {"rounds": rounds, "attempted": ctx.attempted, "failed": ctx.failed,
           "errors": ctx.errors, "failures": ctx.failures, "end_to_end": end_to_end,
           "samples": samples}
    if ctx.tracer is not None:
        out["per_layer"] = spans.per_layer(ctx.tracer, rounds)
        out["tracer"] = ctx.tracer
    return out


def sum_of_medians(samples: dict) -> float:
    """Sum over keys of each key's median sample; nan when a key has none."""
    if not samples:
        return math.nan
    return sum(statistics.median(v) for v in samples.values())


def train_rate(ctx: Ctx) -> float:
    """Tokens of one train call per model over the median-built wall time of those calls.

    A call's time is its step count times its median step plus its median
    time outside the steps, so ingest, the final eval and the checkpoint
    save count as they do in the call itself.
    """
    if not ctx.step_s:
        return math.nan
    seconds = sum(steps * statistics.median(ctx.step_s[k]) + statistics.median(ctx.call_extra_s[k])
                  for k, (steps, _) in ctx.train_shape.items())
    return sum(tokens for _, tokens in ctx.train_shape.values()) / seconds
