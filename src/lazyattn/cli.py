"""Command-line entry point: training plus checkpoint diagnostics.

Subcommands: train, eval, probe-repeat, stats-sink, export-bias,
export-offsets, measure-density. Diagnostics write CSV to --out and exit
nonzero on any contract error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import diagnostics
from .model import CheckpointError, load_checkpoint
from .training import ConfigError, TrainingDiverged, build_configs, parse_config_file, tokenize_bytes, train


def _read_tokens(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return tokenize_bytes(fh.read())


def _cmd_train(args) -> int:
    model_cfg, train_cfg = build_configs(parse_config_file(args.config))
    if args.corpus:
        train_cfg.corpus = args.corpus
    if args.out_dir:
        train_cfg.out_dir = args.out_dir
    result = train(model_cfg, train_cfg, quiet=args.quiet)
    print(f"trained {result.steps} steps; final loss {result.final_loss:.4f}, "
          f"eval loss {result.final_eval_loss:.4f}")
    print(f"checkpoint: {result.checkpoint}")
    return 0


def _cmd_eval(args) -> int:
    try:
        lengths = [int(x) for x in args.lengths.split(",")]
    except ValueError:
        raise ValueError(f"--lengths must be comma-separated integers, got {args.lengths!r}") from None
    model, _ = load_checkpoint(args.checkpoint)
    tokens = _read_tokens(args.text)
    rows = diagnostics.eval_ppl(model, tokens, lengths)
    diagnostics.write_ppl_csv(rows, args.out)
    for r in rows:
        print(f"length {r['length']}: ppl {r['ppl']:.4f} (nll {r['nll']:.4f}, {r['windows']} windows)")
    return 0


def _cmd_probe_repeat(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    result = diagnostics.probe_repeated(model, args.token, args.length, min_row=args.min_row)
    result.write_csv(args.out)
    print(f"max invariance score {result.max_score:.3e} over "
          f"{len(result.scores)} (layer, head) pairs")
    if args.weights_out:
        diagnostics.write_weights_csv(result.capture, args.weights_out)
    return 0


def _cmd_stats_sink(args) -> int:
    if args.length < 1:
        raise ValueError(f"--length must be >= 1, got {args.length}")
    model, _ = load_checkpoint(args.checkpoint)
    tokens = _read_tokens(args.text)[: args.length]
    rows = diagnostics.sink_variance_report(model, tokens, n_positions=args.positions)
    diagnostics.write_sink_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_export_bias(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    diagnostics.export_bias(model, args.out)
    print(f"wrote bias table to {args.out}")
    return 0


def _cmd_export_offsets(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    diagnostics.export_offsets(model, args.out)
    print(f"wrote offsets to {args.out}")
    return 0


def _cmd_measure_density(args) -> int:
    from .attention import CaptureBuffer

    model, _ = load_checkpoint(args.checkpoint)
    tokens = _read_tokens(args.text)
    n = model.cfg.n_ctx if args.context is None else args.context
    for flag, value in (("--context", n), ("--max-sequences", args.max_sequences)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    n_seq = min(args.max_sequences, len(tokens) // n)
    if n_seq < 1:
        raise ValueError(f"text too short: need at least {n} tokens")
    batch = tokens[: n_seq * n].reshape(n_seq, n)
    capture = CaptureBuffer()
    stats = diagnostics.measure_density(model, batch, capture=capture)
    stats.write_csv(args.out)
    if args.weights_out:
        diagnostics.write_weights_csv(capture, args.weights_out)
    print(f"density {stats.density_pct:.2f}% sink {stats.sink_pct:.2f}% "
          f"({n_seq} sequences of {n})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lazyattn",
                                description="Train and analyze lazy-attention toy models.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model from a flat key=value config file")
    t.add_argument("--config", required=True)
    t.add_argument("--corpus", help="override the corpus path from the config")
    t.add_argument("--out-dir", help="override the output directory")
    t.add_argument("--quiet", action="store_true")
    t.set_defaults(fn=_cmd_train)

    e = sub.add_parser("eval", help="perplexity at one or more sequence lengths")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--text", required=True)
    e.add_argument("--lengths", required=True, help="comma-separated, e.g. 128,256")
    e.add_argument("--out", required=True)
    e.set_defaults(fn=_cmd_eval)

    r = sub.add_parser("probe-repeat", help="repeated-token shift-invariance probe")
    r.add_argument("--checkpoint", required=True)
    r.add_argument("--token", type=int, default=ord("a"))
    r.add_argument("--length", type=int, default=64)
    r.add_argument("--min-row", type=int, default=2)
    r.add_argument("--out", required=True)
    r.add_argument("--weights-out", help="also dump captured weights as CSV")
    r.set_defaults(fn=_cmd_probe_repeat)

    s = sub.add_parser("stats-sink", help="per-position value/hidden norm and variance")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--text", required=True)
    s.add_argument("--length", type=int, default=64)
    s.add_argument("--positions", type=int, default=15)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_stats_sink)

    b = sub.add_parser("export-bias", help="dump learnable distance biases")
    b.add_argument("--checkpoint", required=True)
    b.add_argument("--out", required=True)
    b.set_defaults(fn=_cmd_export_bias)

    o = sub.add_parser("export-offsets", help="dump elastic offsets")
    o.add_argument("--checkpoint", required=True)
    o.add_argument("--out", required=True)
    o.set_defaults(fn=_cmd_export_offsets)

    d = sub.add_parser("measure-density", help="density and sink ratio on held-out text")
    d.add_argument("--checkpoint", required=True)
    d.add_argument("--text", required=True)
    d.add_argument("--context", type=int, help="sequence length (default: model context)")
    d.add_argument("--max-sequences", type=int, default=32)
    d.add_argument("--out", required=True)
    d.add_argument("--weights-out", help="also dump the first sequence's weights as CSV")
    d.set_defaults(fn=_cmd_measure_density)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError, TrainingDiverged, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
