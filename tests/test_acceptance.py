"""Acceptance suite: seven end-to-end criteria, one verdict line each.

Each test prints its [PASS]/[FAIL] line directly to the terminal (bypassing
capture) so a plain pytest run shows the seven verdicts at a glance. The
heavy shared work, three full concurrent stress runs, happens once in a
module fixture and feeds criteria 5 through 7.
"""

import random
import time

import pytest
from support import inset_path_counts, random_dag

from multicopy.checker import linearize
from multicopy.df import DfStructure
from multicopy.fixtures import replay_fixture
from multicopy.graph import compute_flow, flow_residuals, local_reach, reach_maps
from multicopy.harness import WorkloadConfig, run_stress
from multicopy.history import SearchEvent, Trace
from multicopy.lsm import LsmStructure

from test_lsm import run_random_ops

STRESS_THREAD_COUNTS = (2, 4, 8)
STRESS_OPS_PER_THREAD = 10_000
STRESS_TIME_BUDGET_S = 60.0
SEQUENTIAL_OPS = 10_000
SEQUENTIAL_TIME_BUDGET_S = 5.0
RANDOM_GRAPH_COUNT = 1000


def _verdict(capsys, cid, desc, ok, detail=""):
    suffix = f" [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {cid}: {desc}{suffix}")
    assert ok, f"{cid} failed: {desc}{suffix}"


@pytest.fixture(scope="module")
def stress_runs():
    runs = {}
    for threads in STRESS_THREAD_COUNTS:
        cfg = WorkloadConfig(
            keyspace_size=64,
            threads=threads,
            ops_per_thread=STRESS_OPS_PER_THREAD,
            mix=(70, 25, 5),
            structure="lsm",
            root_capacity=8,
            growth_factor=2,
            maintenance="periodic:2",
            seed=100 + threads,
            checkpoint_every=2500,
        )
        runs[threads] = run_stress(cfg)
    return runs


def test_c1_sequential_oracle(capsys):
    results = []
    for name, make in (
        ("lsm", lambda: LsmStructure.create(keyspace_size=48, root_capacity=8)),
        ("df", lambda: DfStructure.create(keyspace_size=48, root_capacity=8)),
    ):
        s = make()
        started = time.monotonic()
        run_random_ops(s, random.Random(2024), SEQUENTIAL_OPS)
        elapsed = time.monotonic() - started
        results.append((name, elapsed))
        assert elapsed < SEQUENTIAL_TIME_BUDGET_S, f"{name} took {elapsed:.1f}s"
    _verdict(
        capsys,
        "C1",
        f"{SEQUENTIAL_OPS} random sequential ops match a dict oracle on both structures",
        True,
        ", ".join(f"{n} {e:.2f}s" for n, e in results),
    )


def test_c2_replay_positive_scenarios(capsys):
    reports = {
        name: replay_fixture(name)
        for name in ("list-compaction", "list-search", "cascade-split")
    }
    bad = {n: r.format_text() for n, r in reports.items() if not r.ok}
    _verdict(
        capsys,
        "C2",
        "bundled flush/search/split scenarios replay to their exact frozen states",
        not bad,
        "; ".join(bad.values())[:400] if bad else f"{len(reports)} scenarios",
    )


def test_c3_replay_negative_scenario(capsys):
    report = replay_fixture("unsound-merges")
    _verdict(
        capsys,
        "C3",
        "rule-breaking merge sequence is flagged with the expected witnesses",
        report.ok,
        report.format_text()[:400] if not report.ok else f"{len(report.checks)} checks",
    )


def test_c4_random_graph_cross_validation(capsys):
    failures = []
    for seed in range(RANDOM_GRAPH_COUNT):
        g = random_dag(random.Random(seed), max_nodes=12, max_keys=16)
        reach = reach_maps(g)
        for n in g.nodes:
            if local_reach(g, n) != reach[n]:
                failures.append(f"seed {seed}: local view diverges at node {n}")
                break
        for kind in ("cir", "inset"):
            fl = compute_flow(g, kind)
            if flow_residuals(g, kind, fl):
                failures.append(f"seed {seed}: {kind} flow residual nonzero")
        if compute_flow(g, "inset") != inset_path_counts(g):
            failures.append(f"seed {seed}: inset flow != path counts")
        if failures:
            break
    _verdict(
        capsys,
        "C4",
        f"{RANDOM_GRAPH_COUNT} random DAGs: local=recursive reach, zero residuals, "
        "inset flow counts root paths",
        not failures,
        failures[0] if failures else f"{RANDOM_GRAPH_COUNT} graphs",
    )


def test_c5_concurrent_stress_with_checkpoints(capsys, stress_runs):
    problems = []
    details = []
    for threads, report in stress_runs.items():
        details.append(
            f"{threads}t {report.total_ops} ops {report.duration_s:.1f}s "
            f"{len(report.checkpoints)}cp"
        )
        if report.recency_violations:
            problems.append(
                f"{threads} threads: {len(report.recency_violations)} recency "
                f"violations, first {report.recency_violations[0]}"
            )
        if report.lock_order_violations:
            problems.append(
                f"{threads} threads: lock order broken {report.lock_order_violations[0]}"
            )
        bad_cp = [c for c in report.checkpoints if not c.ok]
        if bad_cp:
            problems.append(
                f"{threads} threads: checkpoint at {bad_cp[0].ops_done} ops failed"
            )
        if not report.checkpoints:
            problems.append(f"{threads} threads: no checkpoints ran")
        if report.duration_s >= STRESS_TIME_BUDGET_S:
            problems.append(
                f"{threads} threads: took {report.duration_s:.1f}s "
                f"(budget {STRESS_TIME_BUDGET_S:.0f}s)"
            )
    _verdict(
        capsys,
        "C5",
        f"stress at {STRESS_THREAD_COUNTS} threads x {STRESS_OPS_PER_THREAD} ops: "
        "no recency violations, every quiescent checkpoint passes",
        not problems,
        problems[0] if problems else "; ".join(details),
    )


def _inject_stale_read(trace: Trace) -> Trace:
    """Append a search claiming an overwritten copy after its overwrite."""
    by_key: dict[int, list] = {}
    for u in sorted(trace.upserts(), key=lambda u: u.ts):
        by_key.setdefault(u.key, []).append(u)
    last_ts = max(u.ts for u in trace.upserts())
    for k, entries in by_key.items():
        if len(entries) >= 2 and entries[-1].value != entries[-2].value:
            prev, last = entries[-2], entries[-1]
            top = max(max(e.inv, e.resp) for e in trace.events)
            stale = SearchEvent(
                thread=0,
                key=k,
                value=prev.value,
                t0=last.ts,
                tp=prev.ts,
                snap=last_ts,
                inv=top + 1,
                resp=top + 2,
            )
            return Trace(trace.keyspace_size, list(trace.events) + [stale])
    raise AssertionError("no key with two distinct consecutive values in trace")


def _inject_swapped_timestamps(trace: Trace) -> Trace:
    """Swap the timestamps of two sequential upserts from one thread."""
    by_thread: dict[int, list] = {}
    for u in sorted(trace.upserts(), key=lambda u: u.inv):
        by_thread.setdefault(u.thread, []).append(u)
    for ups in by_thread.values():
        for a, b in zip(ups, ups[1:]):
            if a.resp < b.inv and a.ts != b.ts:
                # Events are built as a trace is read, so they are told
                # apart by value: no two events share a sequence number.
                events = []
                for e in trace.events:
                    if e == a:
                        events.append(
                            type(a)(thread=a.thread, key=a.key, value=a.value,
                                    ts=b.ts, inv=a.inv, resp=a.resp)
                        )
                    elif e == b:
                        events.append(
                            type(b)(thread=b.thread, key=b.key, value=b.value,
                                    ts=a.ts, inv=b.inv, resp=b.resp)
                        )
                    else:
                        events.append(e)
                return Trace(trace.keyspace_size, events)
    raise AssertionError("no sequential upsert pair found in trace")


def test_c6_linearizability(capsys, stress_runs):
    problems = []
    for threads, report in stress_runs.items():
        if report.linearization is None or not report.linearization.ok:
            problems.append(
                f"{threads} threads: trace failed to linearize: "
                f"{None if report.linearization is None else report.linearization.failure}"
            )
    base = stress_runs[STRESS_THREAD_COUNTS[0]].trace

    stale = linearize(_inject_stale_read(base))
    if stale.ok or stale.failure["kind"] != "value_mismatch":
        problems.append(f"stale read not rejected as value_mismatch: {stale.failure}")
    elif "event" not in stale.failure:
        problems.append("stale read rejection carries no witness")

    swapped = linearize(_inject_swapped_timestamps(base))
    if swapped.ok or swapped.failure["kind"] != "real_time_order":
        problems.append(
            f"timestamp swap not rejected as real_time_order: {swapped.failure}"
        )
    elif "must_follow" not in swapped.failure:
        problems.append("timestamp swap rejection carries no witness")

    _verdict(
        capsys,
        "C6",
        "every stress trace linearizes; doctored traces are rejected with witnesses",
        not problems,
        problems[0] if problems else
        f"{sum(len(r.trace.events) for r in stress_runs.values())} events checked",
    )


def test_c7_history_predicates(capsys, stress_runs):
    problems = []
    for threads, report in stress_runs.items():
        preds = report.history_predicates
        if preds is None or not preds.ok:
            problems.append(f"{threads} threads: history predicates failed: {preds}")
    # Same predicates on a sequential run for good measure.
    s = LsmStructure.create(keyspace_size=16, root_capacity=4)
    run_random_ops(s, random.Random(77), 2000)
    if not s.history.verify_predicates(s.clock).ok:
        problems.append("sequential run: history predicates failed")
    _verdict(
        capsys,
        "C7",
        "append-only, unique-timestamp and clock-bound history predicates hold "
        "after every run",
        not problems,
        problems[0] if problems else f"{len(stress_runs) + 1} runs",
    )
