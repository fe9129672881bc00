"""Data ingestion, optimization, and the training loop.

Corpora are read as raw bytes, one BOS token in front of each file, cut
into fixed (context + 1)-token chunks, and globally shuffled under the run
seed. Optimization is AdamW with linear warmup into a cosine decay toward
a minimum-LR fraction, global-norm gradient clipping, and decoupled weight
decay that skips the elastic offsets and distance-bias tables (decay would
drag the offsets back to zero and flatten the learned decay curves).

A training step cuts its batch rows into ``SHARDS`` contiguous shards (one
when the batch has a single row). Each shard's loss and backward run on a
replica of the model that shares its parameter arrays but owns its grad
slots. One ordered pool map runs the shards, one per thread where two CPUs
are usable, with BLAS pinned to one thread while the map is open (numpy
releases the interpreter lock in the ufuncs, reductions and matmuls a step
is made of); with one usable CPU, or a BLAS without a thread setter, the
pool has one thread. Each shard's loss is scaled by its share of the rows,
and the shard gradients are summed into the model's in shard order, which
gives the full batch's gradient (Goyal et al. 2017, arXiv:1706.02677) up to
rounding. Every held-out eval, ``train``'s and the CLI ``eval``'s, goes
through ``mean_nll``, which runs whole batches on a shard map of its own,
again with BLAS pinned to one thread, and sums the per-batch losses in
batch order. A shard or a batch computes the same bits whichever thread
runs it, so neither a run's bits nor an eval's depend on how many threads
ran them.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import core
from .core import Tape, Tensor, backward
from .model import BOS_ID, ModelConfig, TransformerLM, check_finite, save_checkpoint

NO_DECAY_SUFFIXES = ("attn.tau", "attn.bias_table")
SHARDS = 2  # row shards per training step


class ConfigError(ValueError):
    """Invalid training configuration."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; diagnostics were dumped next to the log."""


@dataclass
class TrainConfig:
    corpus: str = ""
    out_dir: str = "run"
    steps: int = 2000
    batch_tokens: int = 1024
    peak_lr: float = 3e-4
    warmup: int = 100
    min_lr_frac: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.95
    weight_decay: float = 0.01
    grad_clip: float = 1.0
    seed: int = 0
    eval_every: int = 250
    eval_frac: float = 0.02

    def validate(self, n_ctx: int) -> None:
        check_finite(self, ConfigError)
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if not 0 <= self.warmup <= self.steps:
            raise ConfigError("warmup must lie in [0, steps]")
        for name in ("peak_lr", "weight_decay", "grad_clip", "seed", "eval_every"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("beta1", "beta2", "eval_frac"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1)")
        if self.batch_tokens < n_ctx:
            raise ConfigError(f"batch_tokens {self.batch_tokens} is below one context of {n_ctx}")
        if self.batch_tokens % n_ctx != 0:
            raise ConfigError(f"batch_tokens {self.batch_tokens} not divisible by context {n_ctx}")
        if not 0.0 <= self.min_lr_frac <= 1.0:
            raise ConfigError("min_lr_frac must lie in [0, 1]")


def tokenize_bytes(data: bytes) -> np.ndarray:
    """BOS followed by the raw byte values."""
    toks = np.empty(len(data) + 1, dtype=np.int32)
    toks[0] = BOS_ID
    toks[1:] = np.frombuffer(data, dtype=np.uint8)
    return toks


def ingest(corpus, n_ctx: int, seed: int) -> np.ndarray:
    """Read file(s) into shuffled (n_ctx + 1)-token training chunks.

    Each file becomes BOS + bytes; streams concatenate, the tail that does
    not fill a chunk is dropped, and chunk order is a seeded permutation.
    """
    paths = [corpus] if isinstance(corpus, (str, os.PathLike)) else list(corpus)
    streams = []
    for p in paths:
        with open(p, "rb") as fh:
            streams.append(tokenize_bytes(fh.read()))
    stream = np.concatenate(streams) if streams else np.empty(0, dtype=np.int32)
    span = n_ctx + 1
    n_chunks = len(stream) // span
    if n_chunks == 0:
        raise ValueError(f"corpus too small: {len(stream)} tokens < one chunk of {span}")
    chunks = stream[: n_chunks * span].reshape(n_chunks, span)
    order = np.random.default_rng(seed).permutation(n_chunks)
    return chunks[order]


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to the peak, then cosine decay to min_lr_frac * peak."""
    if cfg.warmup > 0 and step < cfg.warmup:
        return cfg.peak_lr * step / cfg.warmup
    floor = cfg.min_lr_frac * cfg.peak_lr
    span = max(cfg.steps - cfg.warmup, 1)
    progress = min((step - cfg.warmup) / span, 1.0)
    return floor + (cfg.peak_lr - floor) * 0.5 * (1.0 + math.cos(math.pi * progress))


class AdamW:
    """Decoupled-weight-decay Adam over named parameters.

    Parameters whose name ends in one of ``NO_DECAY_SUFFIXES`` are exempt
    from decay; frozen tensors (requires_grad False) are skipped entirely.
    """

    def __init__(self, params: dict[str, Tensor], beta1=0.9, beta2=0.95, eps=1e-8,
                 weight_decay=0.01):
        self.items = [(name, t) for name, t in params.items() if t.requires_grad]
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in self.items}
        self.v = {name: np.zeros_like(t.data) for name, t in self.items}

    def decayed(self, name: str) -> bool:
        return self.weight_decay > 0 and not name.endswith(NO_DECAY_SUFFIXES)

    def clip_grads(self, max_norm: float) -> float:
        """Scale all grads so their global L2 norm is at most ``max_norm``.

        Each gradient's squared norm is one dot product in its own precision;
        the sum over gradients is in float64.
        """
        total = 0.0
        for _, t in self.items:
            if t.grad is not None:
                total += float(np.vdot(t.grad, t.grad))
        norm = math.sqrt(total)
        if max_norm > 0 and norm > max_norm:
            factor = max_norm / norm
            for _, t in self.items:
                if t.grad is not None:
                    t.grad *= factor
        return norm

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for name, t in self.items:
            g = t.grad
            if g is None:
                g = np.zeros_like(t.data)
            m = self.m[name]
            v = self.v[name]
            tmp = np.multiply(g, 1 - b1, dtype=t.data.dtype)
            m *= b1
            m += tmp
            np.multiply(g, 1 - b2, out=tmp)
            tmp *= g
            v *= b2
            v += tmp
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            update = np.divide(m, c1, dtype=t.data.dtype)
            update /= tmp
            if self.decayed(name):
                np.multiply(t.data, self.weight_decay, out=tmp)
                update += tmp
            update *= lr
            t.data -= update

    def zero_grads(self) -> None:
        for _, t in self.items:
            t.grad = None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shard_threads(shards: int) -> int:
    """Threads that run ``shards`` shards: one per usable CPU where BLAS can be pinned."""
    return min(shards, _usable_cpus()) if shards > 1 and core.BLAS_PINNABLE else 1


@contextlib.contextmanager
def _shard_map(shards: int):
    """Yield a map that runs its calls on ``_shard_threads(shards)`` pool threads.

    The map returns the results in item order. With more than one shard,
    BLAS runs one thread while the block is open. On exit the pool's threads
    are joined, then the BLAS thread count comes back.
    """
    pin = core.one_blas_thread() if shards > 1 else contextlib.nullcontext()
    with pin, ThreadPoolExecutor(_shard_threads(shards)) as pool:
        yield lambda fn, items: list(pool.map(fn, items))


def _row_shards(rows: int) -> list[slice]:
    """``min(SHARDS, rows)`` contiguous row ranges whose sizes differ by at most one."""
    k = min(SHARDS, rows)
    return [slice(i * rows // k, (i + 1) * rows // k) for i in range(k)]


def _shard_loss(model: TransformerLM, batch: np.ndarray, share: float) -> float:
    """Backward of ``share`` times the mean loss of ``batch``; returns that scaled loss."""
    with Tape() as tape:
        loss = core.scale(model.loss(batch[:, :-1], batch[:, 1:]), share)
    backward(tape, loss)
    return loss.item()


def _sharded_grads(replicas: list[TransformerLM], batch: np.ndarray, mapper) -> float:
    """Mean loss of ``batch``; leaves its gradient in ``replicas[0]``'s grad slots.

    Shard i of ``_row_shards`` runs on ``replicas[i]``, its loss scaled by
    its share of the rows. ``replicas[0]`` is the model itself; the other
    replicas' gradients are added to its grads in shard order and cleared.
    ``mapper`` runs the shards and returns their losses in shard order.
    """
    rows = len(batch)
    shards = _row_shards(rows)
    jobs = [(rep, batch[s], (s.stop - s.start) / rows) for rep, s in zip(replicas, shards)]
    losses = mapper(lambda job: _shard_loss(*job), jobs)
    model = replicas[0]
    for rep in replicas[1:len(shards)]:
        for name, t in model.params.items():
            g = rep.params[name].grad
            if g is None:
                continue
            if t.grad is None:
                t.grad = g
            else:
                t.grad += g
        rep.zero_grads()
    return sum(losses)


def mean_nll(model: TransformerLM, chunks: np.ndarray, *, batch_size: int = 16,
             max_len: int | None = None) -> float:
    """Mean per-token negative log-likelihood over (N, len+1) eval chunks.

    Each batch is evaluated whole on one thread of ``_shard_map(SHARDS)``;
    the per-batch losses come back in batch order and are summed in that
    order, so the result has the same bits whichever threads ran the batches.
    """
    def batch_loss(i: int) -> float:
        part = chunks[i:i + batch_size]
        return model.loss(part[:, :-1], part[:, 1:], max_len=max_len).item() * part[:, 1:].size

    with _shard_map(SHARDS) as shard_map:
        return sum(shard_map(batch_loss, range(0, len(chunks), batch_size))) / chunks[:, 1:].size


@dataclass
class TrainResult:
    checkpoint: str
    final_loss: float
    final_eval_loss: float
    steps: int
    history: list[tuple[int, float, float]]  # (step, loss, lr)


def _dump_divergence(out_dir: str, step: int, loss: float, optimizer: AdamW) -> str:
    path = os.path.join(out_dir, "divergence.json")
    grads = {
        name: float(np.abs(t.grad).max()) if t.grad is not None else None
        for name, t in optimizer.items
    }
    with open(path, "w") as fh:
        json.dump({"step": step, "loss": loss, "max_abs_grad": grads}, fh, indent=1)
    return path


def train(model_cfg: ModelConfig, train_cfg: TrainConfig, *, quiet: bool = True) -> TrainResult:
    """Train a model from scratch; returns paths and final losses.

    Writes to out_dir: train_log.csv (step, loss, lr, grad_norm, the global
    gradient norm before clipping, and wallclock), eval_log.csv (step,
    eval_loss, eval_ppl), run_meta.json (which also records the shard count,
    the threads that ran the shards, and whether BLAS was pinned for them)
    and checkpoint.bin. Steps and evals use threads as the module docstring
    describes. Fully deterministic for a fixed (seed, config, corpus) on one
    platform, whatever the number of threads.
    """
    train_cfg.validate(model_cfg.n_ctx)

    chunks = ingest(train_cfg.corpus, model_cfg.n_ctx, train_cfg.seed)
    n_eval = max(2, int(round(len(chunks) * train_cfg.eval_frac)))
    if n_eval >= len(chunks):
        raise ConfigError("corpus too small to hold out an eval split")
    eval_chunks = chunks[-n_eval:]
    train_chunks = chunks[:-n_eval]
    batch_size = train_cfg.batch_tokens // model_cfg.n_ctx
    if batch_size > len(train_chunks):
        raise ConfigError(f"batch_tokens {train_cfg.batch_tokens} needs {batch_size} training "
                          f"chunks; the training split holds {len(train_chunks)}")

    os.makedirs(train_cfg.out_dir, exist_ok=True)
    model = TransformerLM(model_cfg)
    optimizer = AdamW(model.parameters(), beta1=train_cfg.beta1, beta2=train_cfg.beta2,
                      weight_decay=train_cfg.weight_decay)
    shards = len(_row_shards(batch_size))
    replicas = [model] + [model.replica() for _ in range(shards - 1)]

    with open(os.path.join(train_cfg.out_dir, "run_meta.json"), "w") as fh:
        json.dump({
            "model": asdict(model_cfg),
            "train": asdict(train_cfg),
            "normalizer": model_cfg.normalizer,
            "positional": model_cfg.positional,
            "rope_base": model_cfg.rope_base,
            "effective_window": model.window,
            "ffn_activation": "tanh_gelu",
            "chunks": {"train": len(train_chunks), "eval": len(eval_chunks)},
            "shards": shards,
            "shard_threads": _shard_threads(shards),
            "blas_pinned": shards > 1 and core.BLAS_PINNABLE,
        }, fh, indent=1)

    history: list[tuple[int, float, float]] = []
    eval_loss = float("nan")
    t0 = time.perf_counter()
    log_path = os.path.join(train_cfg.out_dir, "train_log.csv")
    eval_path = os.path.join(train_cfg.out_dir, "eval_log.csv")

    def run_eval(step: int, writer) -> float:
        el = mean_nll(model, eval_chunks, batch_size=batch_size)
        writer.writerow([step, repr(el), repr(math.exp(el))])
        return el

    with open(log_path, "w", newline="") as log_fh, open(eval_path, "w", newline="") as ev_fh, \
            _shard_map(shards) as shard_map:
        log = csv.writer(log_fh)
        log.writerow(["step", "loss", "lr", "grad_norm", "wallclock"])
        ev = csv.writer(ev_fh)
        ev.writerow(["step", "eval_loss", "eval_ppl"])

        epoch, cursor = 0, 0
        order = np.random.default_rng([train_cfg.seed, epoch]).permutation(len(train_chunks))
        for step in range(train_cfg.steps):
            if cursor + batch_size > len(order):
                epoch += 1
                cursor = 0
                order = np.random.default_rng([train_cfg.seed, epoch]).permutation(len(train_chunks))
            batch = train_chunks[order[cursor:cursor + batch_size]]
            cursor += batch_size

            loss_val = _sharded_grads(replicas, batch, shard_map)
            if not math.isfinite(loss_val):
                dump = _dump_divergence(train_cfg.out_dir, step, loss_val, optimizer)
                raise TrainingDiverged(f"non-finite loss {loss_val} at step {step}; see {dump}")
            grad_norm = optimizer.clip_grads(train_cfg.grad_clip)
            lr = lr_at(step, train_cfg)
            optimizer.step(lr)
            optimizer.zero_grads()

            history.append((step, loss_val, lr))
            log.writerow([step, repr(loss_val), repr(lr), repr(grad_norm),
                          repr(time.perf_counter() - t0)])
            if train_cfg.eval_every > 0 and (step + 1) % train_cfg.eval_every == 0:
                eval_loss = run_eval(step, ev)
                if not quiet:
                    print(f"step {step}: loss {loss_val:.4f} eval {eval_loss:.4f}")
        if train_cfg.eval_every <= 0 or train_cfg.steps % train_cfg.eval_every != 0:
            eval_loss = run_eval(train_cfg.steps - 1, ev)

    ckpt = os.path.join(train_cfg.out_dir, "checkpoint.bin")
    save_checkpoint(model, ckpt, step=train_cfg.steps,
                    metrics={"train_loss": history[-1][1], "eval_loss": eval_loss})
    return TrainResult(checkpoint=ckpt, final_loss=history[-1][1],
                       final_eval_loss=eval_loss, steps=train_cfg.steps, history=history)


# ---------------------------------------------------------------------------
# flat key = value config files
# ---------------------------------------------------------------------------

_MODEL_KEYS = {f.name for f in ModelConfig.__dataclass_fields__.values()}
_TRAIN_KEYS = {f.name for f in TrainConfig.__dataclass_fields__.values()}


def parse_config_file(path) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value
    return out


def _coerce(value: str, target_type):
    if target_type is bool:
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"expected a boolean, got {value!r}")
    return target_type(value)


def build_configs(kv: dict[str, str]) -> tuple[ModelConfig, TrainConfig]:
    """Split a flat key/value mapping into model and train configurations.

    A key both configurations declare (``seed``) sets both.
    """
    model_kwargs, train_kwargs = {}, {}
    for key, value in kv.items():
        targets = []
        if key in _MODEL_KEYS:
            targets.append((ModelConfig, model_kwargs))
        if key in _TRAIN_KEYS:
            targets.append((TrainConfig, train_kwargs))
        if not targets:
            raise ConfigError(f"unknown config key {key!r}")
        for cls, target in targets:
            ftype = cls.__dataclass_fields__[key].type
            base = {"int": int, "float": float, "str": str, "bool": bool}.get(ftype, str)
            try:
                target[key] = _coerce(value, base)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from None
    try:
        return ModelConfig(**model_kwargs), TrainConfig(**train_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
