"""Command line front end.

    multicopy stress   run a concurrent workload with checking
    multicopy bench    same workload shape, checking off, throughput only
    multicopy replay   rebuild a bundled scenario and verify its states
    multicopy check    verify a written snapshot/trace pair

Exit status is 0 when everything passed, 1 otherwise. MULTICOPY_SEED sets
the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .core import MulticopyError
from .fixtures import REPLAYS, replay_fixture
from .graph import save_graph
from .harness import WorkloadConfig, check_files, run_stress

SEED_ENV = "MULTICOPY_SEED"


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"{SEED_ENV} must be an integer, got {raw!r}")


def _add_workload_flags(p: argparse.ArgumentParser) -> None:
    d = WorkloadConfig()
    p.add_argument("--keyspace-size", type=int, default=d.keyspace_size)
    p.add_argument("--threads", type=int, default=d.threads)
    p.add_argument("--ops-per-thread", type=int, default=d.ops_per_thread)
    p.add_argument(
        "--mix",
        default="70/25/5",
        help="search/upsert/delete percentages, e.g. 70/25/5",
    )
    p.add_argument("--structure", choices=["lsm", "df"], default=d.structure)
    p.add_argument("--root-capacity", type=int, default=d.root_capacity)
    p.add_argument("--growth-factor", type=int, default=d.growth_factor)
    p.add_argument(
        "--maintenance",
        default=d.maintenance,
        help="on-fail or periodic:<ms>; a write whose root no pass relieves fails the run",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--checkpoint-every", type=int, default=d.checkpoint_every)
    p.add_argument("--json", action="store_true", dest="as_json")


def _config_from_args(args: argparse.Namespace) -> WorkloadConfig:
    try:
        parts = tuple(int(x) for x in args.mix.split("/"))
        if len(parts) != 3:
            raise ValueError
    except ValueError:
        raise SystemExit(f"--mix wants three integers like 70/25/5, got {args.mix!r}")
    return WorkloadConfig(
        keyspace_size=args.keyspace_size,
        threads=args.threads,
        ops_per_thread=args.ops_per_thread,
        mix=parts,
        structure=args.structure,
        root_capacity=args.root_capacity,
        growth_factor=args.growth_factor,
        maintenance=args.maintenance,
        seed=args.seed if args.seed is not None else _default_seed(),
        checkpoint_every=args.checkpoint_every,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="multicopy",
        description="Concurrent multicopy search structures: stress, replay and check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stress = sub.add_parser("stress", help="run a checked concurrent workload")
    _add_workload_flags(p_stress)
    p_stress.add_argument("--trace-out", help="write the JSON-lines trace here")
    p_stress.add_argument("--snapshot-out", help="write the final graph snapshot here")

    p_bench = sub.add_parser("bench", help="run the workload without checking")
    _add_workload_flags(p_bench)

    p_replay = sub.add_parser("replay", help="rebuild and verify a bundled scenario")
    p_replay.add_argument("fixture", choices=sorted(REPLAYS))
    p_replay.add_argument("--json", action="store_true", dest="as_json")

    p_check = sub.add_parser("check", help="verify a snapshot/trace pair")
    p_check.add_argument("snapshot")
    p_check.add_argument("trace")
    p_check.add_argument("--json", action="store_true", dest="as_json")

    args = parser.parse_args(argv)

    try:
        if args.command == "stress":
            config = _config_from_args(args)
            # A path that cannot be written fails here, before any op runs;
            # append mode truncates nothing.
            for path in (args.trace_out, args.snapshot_out):
                if path:
                    open(path, "a").close()
            report = run_stress(config)
            if args.trace_out:
                report.trace.dump(args.trace_out)
            if args.snapshot_out:
                save_graph(report.snapshot, args.snapshot_out)
            if args.as_json:
                print(json.dumps(report.to_json(), indent=2))
            else:
                print(report.format_text())
            return 0 if report.ok else 1

        if args.command == "bench":
            config = _config_from_args(args)
            report = run_stress(config, checked=False)
            if args.as_json:
                print(
                    json.dumps(
                        {
                            "config": config.to_json(),
                            "total_ops": report.total_ops,
                            "duration_s": round(report.duration_s, 3),
                            "throughput_ops_s": round(report.throughput, 1),
                            "final_nodes": report.final_nodes,
                        },
                        indent=2,
                    )
                )
            else:
                print(
                    f"{report.total_ops} ops in {report.duration_s:.2f}s: "
                    f"{report.throughput:.0f} ops/s ({report.final_nodes} nodes)"
                )
            return 0

        if args.command == "replay":
            fixture = replay_fixture(args.fixture)
            if args.as_json:
                print(json.dumps(fixture.to_json(), indent=2))
            else:
                print(fixture.format_text())
            return 0 if fixture.ok else 1

        if args.command == "check":
            ok, out = check_files(args.snapshot, args.trace)
            if args.as_json:
                print(json.dumps(out, indent=2))
            else:
                if "error" in out:
                    print(f"error: {out['error']}")
                else:
                    for c in out["invariants"]["checks"]:
                        if not (c["passed"] or c["skipped"]):
                            print(f"[FAIL] {c['check']}: {c['witnesses'][:2]}")
                    lin = out["linearization"]
                    if not lin["ok"]:
                        print(f"[FAIL] linearization: {lin['failure']}")
                print("result: " + ("OK" if ok else "VIOLATIONS FOUND"))
            return 0 if ok else 1
    except (MulticopyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
