"""Spans recorded around the program's public functions.

``install`` wraps the calls into each lazyattn module (the forward ops,
rope, both attention paths, the model, training, normalizers and
diagnostics) and every backward rule those calls register on the tape,
by wrapping ``record_op`` at each place the program bound it. Nothing in
the program changes; ``uninstall`` restores every binding. Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time

CORE_GROUPS = {
    "matmul": "matmul",
    "layernorm": "layernorm",
    "gelu": "gelu",
    "embedding": "embedding",
    "cross_entropy": "cross_entropy",
    **{op: "elementwise" for op in ("add", "add_row", "mul", "scale", "relu", "exp")},
}
OTHER_OPS = {
    "apply_rope": "positional.apply_rope",
    "attend_naive": "attention.attend_naive",
    "attend_two_pass": "attention.attend_two_pass",
}
STEP_LAYERS = ([f"core.{g}" for g in dict.fromkeys(CORE_GROUPS.values())]
               + ["positional.apply_rope", "attention.attend_naive", "attention.attend_two_pass"])
CLI_COMMANDS = ("eval", "measure-density", "probe-repeat", "stats-sink", "export-bias",
                "export-offsets")


def op_layer(op: str) -> str | None:
    if op in CORE_GROUPS:
        return f"core.{CORE_GROUPS[op]}"
    return OTHER_OPS.get(op)


class Tracer:
    """In-memory span list: [name, start, end, parent index, in_step flag]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.tape_records = 0
        self.aux_peak = 0
        self.checkpoint_bytes = 0
        self.meter = None
        self._undo: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        in_step = parent >= 0 and self.spans[parent][4]
        if not in_step and parent >= 0 and self.spans[parent][0] == "training.train":
            in_step = name in ("model.loss", "core.backward")
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, in_step])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # -- installing -----------------------------------------------------------

    def _rebind(self, modules, orig, new) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def _patch_method(self, cls, attr: str, name: str) -> None:
        orig = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, orig))
        self._undo.append((cls, attr, orig))

    def install(self) -> None:
        import lazyattn
        from lazyattn import attention, cli, core, diagnostics, model, normalizers, positional, training

        modules = [lazyattn, core, positional, normalizers, attention, model, training,
                   diagnostics, cli]
        tracer = self
        self.meter = attention.AllocationMeter()

        def fwd(mod, attr, name):
            orig = getattr(mod, attr)
            self._rebind(modules, orig, self.wrap(name, orig))

        for op in CORE_GROUPS:
            fwd(core, op, f"core.{CORE_GROUPS[op]}.fwd")
        fwd(positional, "apply_rope", "positional.apply_rope.fwd")
        fwd(attention, "attend_naive", "attention.attend_naive.fwd")
        fwd(normalizers, "density_and_sink", "normalizers.density_and_sink")
        for attr in ("eval_ppl", "measure_density", "probe_repeated", "sink_variance_report"):
            fwd(diagnostics, attr, f"diagnostics.{attr}")
        for attr in ("export_bias", "export_offsets"):
            fwd(diagnostics, attr, "diagnostics.export")
        fwd(training, "train", "training.train")
        fwd(training, "ingest", "training.ingest")
        fwd(training, "mean_nll", "training.mean_nll")
        self._patch_method(model.TransformerLM, "lm_forward", "model.lm_forward")
        self._patch_method(model.TransformerLM, "loss", "model.loss")
        for attr in ("clip_grads", "step", "zero_grads"):
            self._patch_method(training.AdamW, attr, f"training.opt.{attr}")

        two_pass = attention.attend_two_pass
        traced_two_pass = self.wrap("attention.attend_two_pass.fwd", two_pass)

        def metered_two_pass(*args, **kwargs):
            if kwargs.get("meter") is None:  # training passes no meter; read the public one
                kwargs["meter"] = tracer.meter
            return traced_two_pass(*args, **kwargs)

        self._rebind(modules, two_pass, metered_two_pass)

        def sized(name, fn):
            traced = self.wrap(name, fn)

            def with_size(*args, **kwargs):
                try:
                    return traced(*args, **kwargs)
                finally:
                    if os.path.exists(args[-1]):
                        size = os.path.getsize(args[-1])
                        tracer.checkpoint_bytes = max(tracer.checkpoint_bytes, size)

            return with_size

        for attr in ("save_checkpoint", "load_checkpoint"):
            orig = getattr(model, attr)
            self._rebind(modules, orig, sized(f"model.{attr}", orig))

        traced_backward = self.wrap("core.backward", core.backward)

        def counted_backward(tape, loss):
            tracer.tape_records += len(tape)
            return traced_backward(tape, loss)

        self._rebind(modules, core.backward, counted_backward)

        record_op = core.record_op

        def traced_record_op(output, inputs, vjp):
            if output.requires_grad:
                layer = op_layer(vjp.__qualname__.split(".")[0])
                if layer is not None:
                    vjp = tracer.wrap(f"{layer}.bwd", vjp)
            return record_op(output, inputs, vjp)

        self._rebind(modules, record_op, traced_record_op)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        if self.meter is not None:
            self.aux_peak = max(self.aux_peak, self.meter.peak)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [
                {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "in_step": s[4]}
                for s in self.spans]}, fh)


def _dur_ms(span) -> float:
    return (span[2] - span[1]) * 1000.0


def per_layer(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics (see README for units).

    Step-layer times are per training step where the workload trains (only
    spans inside a step's forward or backward count) and per round where it
    does not. Checkpoint, normalizer, diagnostics and CLI times are mean ms
    per call.
    """
    spans = tracer.spans
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)

    train_idx = [i for i, s in enumerate(spans) if s[0] == "training.train"]
    steps = 0
    step_ms = fwd_ms = bwd_ms = opt_ms = eval_ms = ingest_ms = 0.0
    for ti in train_idx:
        start = None
        for ci in children.get(ti, []):
            name = spans[ci][0]
            if name == "model.loss":
                steps += 1
                fwd_ms += _dur_ms(spans[ci])
                start = spans[ci][1]
            elif name == "core.backward":
                bwd_ms += _dur_ms(spans[ci])
            elif name.startswith("training.opt."):
                opt_ms += _dur_ms(spans[ci])
                if name == "training.opt.zero_grads" and start is not None:
                    step_ms += (spans[ci][2] - start) * 1000.0
                    start = None
            elif name == "training.mean_nll":
                eval_ms += _dur_ms(spans[ci])
            elif name == "training.ingest":
                ingest_ms += _dur_ms(spans[ci])

    calls = max(len(train_idx), 1)
    per = steps or max(rounds, 1)
    out = {
        "training.step_ms": step_ms / max(steps, 1),
        "training.fwd_ms": fwd_ms / max(steps, 1),
        "training.bwd_ms": bwd_ms / max(steps, 1),
        "training.opt_ms": opt_ms / max(steps, 1),
        "training.eval_ms": eval_ms / calls,
        "training.ingest_ms": ingest_ms / calls,
    }

    totals: dict[str, float] = {}
    self_bwd = 0.0
    for i, s in enumerate(spans):
        if steps and not s[4]:
            continue
        totals[s[0]] = totals.get(s[0], 0.0) + _dur_ms(s)
        if s[0] == "core.backward":
            self_bwd += _dur_ms(s) - sum(_dur_ms(spans[c]) for c in children.get(i, []))
    for layer in STEP_LAYERS:
        for phase in ("fwd", "bwd"):
            out[f"{layer}.{phase}_ms"] = totals.get(f"{layer}.{phase}", 0.0) / per
    out["core.backward.self_ms"] = self_bwd / per
    out["core.tape_records"] = tracer.tape_records / max(steps, 1)
    out["attention.two_pass.aux_peak_bytes"] = tracer.aux_peak
    out["model.lm_forward_ms"] = totals.get("model.lm_forward", 0.0) / per

    def mean_call(name: str) -> float:
        durs = [_dur_ms(s) for s in spans if s[0] == name]
        return sum(durs) / len(durs) if durs else 0.0

    out["model.load_checkpoint_ms"] = mean_call("model.load_checkpoint")
    out["model.save_checkpoint_ms"] = mean_call("model.save_checkpoint")
    out["model.checkpoint_bytes"] = tracer.checkpoint_bytes
    out["normalizers.density_and_sink_ms"] = mean_call("normalizers.density_and_sink")
    for attr in ("eval_ppl", "measure_density", "probe_repeated", "sink_variance_report",
                 "export"):
        out[f"diagnostics.{attr}_ms"] = mean_call(f"diagnostics.{attr}")
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd.replace('-', '_')}_ms"] = mean_call(f"cli.{cmd}")
    return out
