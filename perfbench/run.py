"""Benchmark for the multicopy package: one stdlib-only command.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Each workload prints its machine record, the
notes of its output checks, and one line per metric with its unit; the last
line of a single-workload run is a JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics;
--trace 1 runs one traced round and reports the per-layer metrics, and
writes its spans to perfbench/out/. With --workload all (the default) every
workload runs in a process of its own, so no peak memory carries over.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

WORKLOAD_NAMES = ["lsm-ingest", "df-read", "lsm-checked"]


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "switchinterval_s": sys.getswitchinterval(),
        "platform": platform.platform(),
    }


def run_one(args) -> int:
    try:
        import workloads
    except ImportError as e:
        print(f"cannot import the multicopy package from src/: {e}", file=sys.stderr)
        return 2
    from tracing import GIL_NOTE, Tracer

    print("machine: " + json.dumps(machine()))
    tracer = Tracer() if args.trace else None
    out = workloads.run(args.workload, args.seed, args.seconds, tracer)
    correct = out.failed == 0 and bool(out.metrics)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in out.notes:
        print("  " + note)
    print(f"  failed_ops_frac: {out.failed / max(out.attempted, 1):.6f} "
          f"({out.failed} of {out.attempted} ops)")
    for name, (value, unit) in out.metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    if tracer is not None:
        print(f"  note: {GIL_NOTE}")
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(path)
        print(f"  spans: {len(tracer.spans)} written to {os.path.relpath(path)}")
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in out.metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        sys.stdout.flush()
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
