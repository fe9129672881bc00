"""lazyattn benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload twin_short --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/``.
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run. The
full result, with the environment it ran in, goes to
``.perfbench/results/`` and a traced run's spans to ``.perfbench/traces/``.
The benchmark changes no machine setting: it pins no CPU and drops no
cache; it only caps its own BLAS threads.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import sys

BLAS_THREADS = 1  # one process, one BLAS thread: the steadiest load on a shared host
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (numpy must load after the BLAS thread settings)


def git_sha(root: pathlib.Path) -> str | None:
    """HEAD commit read from .git without starting git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(ROOT),
        "machine_settings": "unchanged: no CPU pinning, no cache dropping; only this "
                            "process's BLAS thread count is set",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "lazyattn" / "__init__.py").is_file():
        print(f"error: no lazyattn sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in res["failures"]:
        print(f"operation failed: {msg}", file=sys.stderr)
    for msg in res["errors"]:
        print(f"check failed: {msg}", file=sys.stderr)
    e2e = {k: {"value": v, "unit": u} for k, (v, u) in res["end_to_end"].items()}
    metrics = e2e
    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in res["per_layer"].items()}
        print("traced end-to-end (tracing overhead = difference from --trace 0): "
              + json.dumps({k: v["value"] for k, v in e2e.items()}))
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        res["tracer"].write(OUT / "traces" / f"{tag}.json")
    env = environment()
    print("environment: " + json.dumps(env))
    line = {"correct": not res["errors"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{tag}.json", "w") as fh:
        json.dump({**line, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "rounds": res["rounds"], "samples": res["samples"],
                   "end_to_end": e2e,
                   "errors": res["errors"], "failures": res["failures"],
                   "environment": env}, fh, indent=1)
    print(json.dumps(line))
    return 0


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
