import dataclasses
import gc
import hashlib
import json
import re
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from multicopy import harness, lsm
from multicopy.checker import CheckResult
from multicopy.core import TOMBSTONE, MulticopyError, route
from multicopy.graph import reach_maps, save_graph
from multicopy.harness import (
    PauseGate,
    WorkloadConfig,
    check_files,
    generate_ops,
    run_stress,
)
from multicopy.history import HistoryPredicateReport, UpsertHistory
from multicopy.lsm import LsmStructure, MulticopyStructure, SearchProbe
from multicopy.nodes import NodeHandle
from support import UNRELIEVED_ROOT


def small_config(**kw):
    base = dict(
        keyspace_size=16,
        threads=2,
        ops_per_thread=150,
        root_capacity=8,
        maintenance="periodic:1",
        seed=7,
        checkpoint_every=50,
    )
    base.update(kw)
    return WorkloadConfig(**base)


# sha256 of repr(generate_ops(config, thread)) for 3,000 ops a thread, as
# Random.randrange drew them: (seed, thread, keyspace, mix) -> digest prefix.
OP_STREAM_DIGESTS = {
    (0, 0, 64, (70, 25, 5)): "7896c15c15af9dfe",
    (1, 3, 1, (50, 25, 25)): "d28b4aafa0272350",
    (7, 1, 4096, (70, 25, 5)): "d8e3299aa3835a94",
    (42, 2, 65536, (0, 100, 0)): "e6a297b5c0cc433e",
    (3, 0, 1000, (10, 10, 80)): "b240352cb21502ba",
    (9, 5, 3, (34, 33, 33)): "1ac99b815e6e779a",
    (11, 0, 16384, (90, 8, 2)): "6868df536365530a",
}


@pytest.mark.parametrize("seed,thread,keyspace,mix", sorted(OP_STREAM_DIGESTS))
def test_generate_ops_draws_the_pinned_stream(seed, thread, keyspace, mix):
    # A failure replays from its seed only while the stream stays the same.
    cfg = WorkloadConfig(seed=seed, keyspace_size=keyspace, mix=mix, ops_per_thread=3000)
    got = hashlib.sha256(repr(generate_ops(cfg, thread)).encode()).hexdigest()
    assert got[:16] == OP_STREAM_DIGESTS[seed, thread, keyspace, mix]


def test_generate_ops_rejects_an_empty_keyspace():
    with pytest.raises(MulticopyError):
        generate_ops(small_config(keyspace_size=0), 0)


def test_generate_ops_is_deterministic_per_seed_and_thread():
    cfg = small_config()
    assert generate_ops(cfg, 0) == generate_ops(cfg, 0)
    assert generate_ops(cfg, 0) != generate_ops(cfg, 1)
    assert generate_ops(cfg, 0) != generate_ops(small_config(seed=8), 0)
    ops = generate_ops(cfg, 0)
    assert len(ops) == cfg.ops_per_thread
    assert all(0 <= op[1] < cfg.keyspace_size for op in ops)


def test_generate_ops_respects_the_mix():
    only_searches = generate_ops(small_config(mix=(100, 0, 0)), 0)
    assert {op[0] for op in only_searches} == {"search"}
    only_writes = generate_ops(small_config(mix=(0, 100, 0)), 3)
    assert {op[0] for op in only_writes} == {"upsert"}
    assert all(0 <= op[2] < 10_000 for op in only_writes)


def test_config_validation():
    with pytest.raises(MulticopyError):
        small_config(mix=(50, 50, 5)).validate()
    for mix in ((100,), (50, 50), (50, 25, 25, 0)):
        with pytest.raises(MulticopyError, match="mix must be three percentages"):
            small_config(mix=mix).validate()
    with pytest.raises(MulticopyError):
        small_config(structure="btree").validate()
    with pytest.raises(MulticopyError):
        small_config(threads=0).validate()
    with pytest.raises(MulticopyError):
        small_config(maintenance="sometimes").validate()
    with pytest.raises(MulticopyError):
        small_config(maintenance="periodic:0").validate()
    with pytest.raises(MulticopyError):
        small_config(checkpoint_every=-1).validate()
    for gone in ("off", "periodic"):
        with pytest.raises(MulticopyError, match="must be on-fail or periodic:<ms>, got"):
            small_config(maintenance=gone).validate()
    for ok in ("on-fail", "periodic:2.5"):
        small_config(maintenance=ok).validate()


@pytest.mark.parametrize(
    "field, bad",
    [
        ("keyspace_size", 16.0),
        ("threads", True),
        ("ops_per_thread", 10.5),
        ("root_capacity", "8"),
        ("growth_factor", None),
        ("seed", 7.0),
        ("checkpoint_every", False),
    ],
)
def test_a_non_int_field_fails_the_run_by_name_before_any_thread_starts(
    monkeypatch, field, bad
):
    def no_thread(self):
        raise AssertionError("a worker started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    with pytest.raises(MulticopyError, match=f"^{field} must be an int, got {bad!r}$"):
        run_stress(small_config(**{field: bad}))


def _started(target, *args):
    # Daemon threads, so that a test which fails while one still waits at
    # the gate ends instead of hanging the run.
    t = threading.Thread(target=target, args=args, daemon=True)
    t.start()
    return t


def test_pause_gate_quiesces_every_participant():
    gate = PauseGate(2)
    ticks = [0, 0]
    stop = threading.Event()

    def loop(i):
        try:
            while not stop.is_set():
                gate.wait_if_paused()
                ticks[i] += 1
        finally:
            gate.deregister()

    threads = [_started(loop, i) for i in range(2)]
    try:
        while ticks[0] == 0 or ticks[1] == 0:
            time.sleep(0.001)
        gate.pause()
        frozen = tuple(ticks)
        time.sleep(0.05)
        assert tuple(ticks) == frozen  # everyone parked, nothing moves
        gate.resume()
        deadline = time.monotonic() + 5
        while tuple(ticks) == frozen and time.monotonic() < deadline:
            time.sleep(0.001)
        assert tuple(ticks) != frozen
    finally:
        stop.set()
    gate.pause()  # pausing after workers exit must not hang
    gate.resume()
    for t in threads:
        t.join(5)
        assert not t.is_alive()


def test_a_pass_wait_has_no_timeout_and_ends_when_the_gate_stops():
    gate = PauseGate(1)
    jobs = []

    def writer():
        gate.await_pass()

    def take_job():
        jobs.append(gate.next_job(None))

    first = _started(writer)
    _started(take_job).join(5)
    assert jobs == ["pass"]
    first.join(0.05)
    assert first.is_alive()  # parked until the pass ends
    gate.pass_done()
    first.join(5)
    assert not first.is_alive()

    # stop() lets the writer go with no pass run; upsert_timed, not the
    # gate, then fails a write whose root nothing relieves.
    second = _started(writer)
    _started(take_job).join(5)
    assert jobs == ["pass", "pass"]
    second.join(0.05)
    assert second.is_alive()
    gate.stop()
    second.join(5)
    assert not second.is_alive()
    assert gate._passes == 1


def test_a_counted_gate_waits_for_participants_that_have_not_started():
    gate = PauseGate(2)
    paused = threading.Event()
    left = []

    def pauser():
        gate.pause()
        paused.set()

    def participant(i):
        gate.wait_if_paused()
        left.append(i)
        gate.deregister()

    _started(pauser)
    assert not paused.wait(0.05)  # neither participant exists yet
    first = _started(participant, 0)
    assert not paused.wait(0.05)  # one of two is parked
    second = _started(participant, 1)
    assert paused.wait(5)
    assert left == []  # both parked in wait_if_paused
    gate.resume()
    for t in (first, second):
        t.join(5)
        assert not t.is_alive()
    assert sorted(left) == [0, 1]


def test_stress_run_reports_clean_and_complete():
    cfg = small_config()
    report = run_stress(cfg)
    assert report.ok, report.format_text()
    total = cfg.threads * cfg.ops_per_thread
    assert report.total_ops == total
    assert len(report.trace.events) == total
    threads = [e.thread for e in report.trace.events]
    assert sorted(threads) == sorted(list(range(cfg.threads)) * cfg.ops_per_thread)
    assert report.search_count + report.upsert_count == total
    assert report.recency_violations == []
    assert report.lock_order_violations == []
    assert len(report.checkpoints) >= 2  # at least one quiescent plus final
    assert all(c.ok for c in report.checkpoints)
    marks = [c.ops_done for c in report.checkpoints]
    assert marks == sorted(marks) and marks[-1] == total
    assert report.linearization.ok
    assert report.history_predicates.ok
    assert report.throughput > 0
    obj = report.to_json()
    assert obj["ok"] is True and obj["total_ops"] == total
    assert "result: OK" in report.format_text()


def test_a_stale_search_fails_the_run_and_the_report_says_why(monkeypatch):
    search_timed = MulticopyStructure.search_timed

    def stale_search(self, key):
        # Every key reads as never written, also one written long before.
        return SearchProbe(TOMBSTONE, 0, search_timed(self, key).snap)

    monkeypatch.setattr(MulticopyStructure, "search_timed", stale_search)
    report = run_stress(small_config())
    assert not report.ok
    assert not report.lock_order_violations
    assert all(c.ok for c in report.checkpoints) and report.history_predicates.ok
    obj = report.to_json()
    assert obj["ok"] is False
    n = obj["recency_violation_count"]
    assert n == len(report.recency_violations) > 0
    v = obj["recency_violations"][0]
    assert v["value"] is None and v["tp"] == 0 and v["t0"] > 0
    assert v["reason"] == f"returned ts 0 older than invocation-time ts {v['t0']}"
    assert obj["linearization"]["ok"] is False and "failure" in obj["linearization"]
    text = report.format_text().splitlines()
    assert f"recency violations: {n}" in text
    assert any(line.startswith("linearization: FAILED {") for line in text)
    assert text[-1] == "result: FAILURES FOUND"
    # Each remaining verdict fails the report on its own.
    clean = dataclasses.replace(report, recency_violations=[], linearization=None)
    assert clean.ok
    assert not dataclasses.replace(clean, linearization=report.linearization).ok
    bad = HistoryPredicateReport(True, False, True, {"index": 1, "ts": 1, "prev_ts": 1})
    broken = dataclasses.replace(clean, history_predicates=bad)
    assert not broken.ok
    assert broken.to_json()["history_predicates"] == {"init": True, "unique": False, "clock": True}
    assert "history predicates: FAILED" in broken.format_text().splitlines()


def test_a_failed_monotonicity_check_fails_its_checkpoints(monkeypatch):
    witness = {"node": 0, "key": 1, "before_ts": 5, "after_ts": 3}
    monkeypatch.setattr(
        harness,
        "check_inv2_monotone",
        lambda prev, nxt, **_: CheckResult(
            "inv2_reach_monotone", "", passed=False, witnesses=[witness]
        ),
    )
    report = run_stress(small_config())
    assert not report.ok
    assert not report.recency_violations and not report.lock_order_violations
    assert report.linearization.ok and report.history_predicates.ok
    first, *later = report.checkpoints
    assert first.ok and later and not any(c.ok for c in later)
    obj = report.to_json()
    assert obj["ok"] is False
    assert [c["ok"] for c in obj["checkpoints"]] == [True] + [False] * len(later)
    assert obj["checkpoints"][1]["monotone"]["witnesses"] == [witness]
    text = report.format_text().splitlines()
    i = text.index(f"checkpoint 1 at {later[0].ops_done} ops: FAILED")
    assert text[i + 1] == f"    inv2_reach_monotone: {[witness]}"
    assert text[-1] == "result: FAILURES FOUND"
    # A failed invariant is listed under its checkpoint, before monotonicity.
    inv = later[0].invariants.entries[0]
    inv.passed, inv.skipped, inv.witnesses = False, False, [witness]
    text = report.format_text().splitlines()
    assert text[i + 1 : i + 3] == [
        f"    {inv.check_id}: {[witness]}",
        f"    inv2_reach_monotone: {[witness]}",
    ]


def test_run_stress_flags_a_search_that_holds_its_whole_path(monkeypatch):
    def search_holding_path(self, key):
        # Takes the next node's lock before letting go of the current one,
        # and lets go of all of them only when it returns.
        snap = self.history.snapshot()
        nid = self.root_id
        taken = [self._locks[nid]]
        taken[-1].acquire()
        try:
            while True:
                h = self.handle(nid)
                tv = h.in_contents(key)
                if tv is not None:
                    return SearchProbe(tv.value, tv.ts, snap)
                nid = route(h.succ_edgesets, key, nid)
                if nid is None:
                    return SearchProbe(TOMBSTONE, 0, snap)
                taken.append(self._locks[nid])
                taken[-1].acquire()
        finally:
            for lock in taken:
                lock.release()

    monkeypatch.setattr(MulticopyStructure, "search_timed", search_holding_path)
    report = run_stress(small_config(
        threads=1, keyspace_size=64, root_capacity=4, maintenance="on-fail",
        checkpoint_every=0, ops_per_thread=400, seed=1,
    ))
    assert not report.ok
    assert report.lock_order_violations
    assert {v["reason"] for v in report.lock_order_violations} == {"more than two locks"}
    # The JSON lists the first 20 and counts them all.
    out = report.to_json()
    assert out["lock_order_violation_count"] == len(report.lock_order_violations) > 20
    assert out["lock_order_violations"] == report.lock_order_violations[:20]


def test_run_stress_flags_a_lock_coupling_search(monkeypatch):
    def coupling_search(self, key):
        # Takes the next node's lock, then lets go of the current one, so it
        # never holds more than two locks, each pair a node and its successor.
        snap = self.history.snapshot()
        nid = self.root_id
        lock = self._locks[nid]
        lock.acquire()
        try:
            while True:
                h = self.handle(nid)
                tv = h.in_contents(key)
                if tv is not None:
                    return SearchProbe(tv.value, tv.ts, snap)
                nid = route(h.succ_edgesets, key, nid)
                if nid is None:
                    return SearchProbe(TOMBSTONE, 0, snap)
                nxt = self._locks[nid]
                nxt.acquire()
                lock.release()
                lock = nxt
        finally:
            lock.release()

    monkeypatch.setattr(MulticopyStructure, "search_timed", coupling_search)
    report = run_stress(small_config(
        threads=1, keyspace_size=64, root_capacity=4, maintenance="on-fail",
        checkpoint_every=0, ops_per_thread=400, seed=1,
    ))
    assert not report.ok
    assert report.lock_order_violations
    assert {v["reason"] for v in report.lock_order_violations} == {
        "lock coupling: the held lock was taken as a second lock"
    }


@pytest.mark.parametrize("maintenance", ["on-fail", "periodic:1"])
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_checkpoints_are_taken_at_their_marks(threads, maintenance):
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the GIL over often, to shake out races
    try:
        for seed in range(10):
            # 150 ops a thread puts the last mark on the final op; 160 does not.
            cfg = small_config(
                threads=threads, maintenance=maintenance, seed=seed,
                root_capacity=4, ops_per_thread=150 if seed % 2 else 160,
            )
            report = run_stress(cfg)
            assert report.ok, report.format_text()
            total = threads * cfg.ops_per_thread
            step = threads * cfg.checkpoint_every
            marks = list(range(step, total, step))
            assert len(report.checkpoints) == len(marks) + 1
            ops_done = [c.ops_done for c in report.checkpoints]
            assert ops_done[-1] == total
            assert ops_done == sorted(ops_done)
            if threads == 1:
                assert ops_done[:-1] == marks
            else:
                # Other workers may run on until they see the pause.
                assert all(m <= d for m, d in zip(marks, ops_done))
    finally:
        sys.setswitchinterval(switch)


def test_full_root_gets_a_pass_at_once_instead_of_waiting_out_its_interval():
    started = time.monotonic()
    report = run_stress(small_config(maintenance="periodic:1000", root_capacity=4))
    assert time.monotonic() - started < 1
    assert report.ok, report.format_text()
    assert len(report.checkpoints) == 3
    assert report.final_nodes > 1


def test_a_failed_periodic_pass_fails_the_run_instead_of_hanging_it(monkeypatch, capfd):
    def broken_pass(self):
        raise RuntimeError("pass failed")

    monkeypatch.setattr(LsmStructure, "maintenance_pass", broken_pass)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="pass failed"):
        run_stress(small_config(root_capacity=4))
    assert time.monotonic() - started < 1
    assert "Exception in thread" not in capfd.readouterr().err


@pytest.mark.parametrize("maintenance", ["on-fail", "periodic:1"])
def test_maintenance_passes_run_on_the_thread_their_mode_names(monkeypatch, maintenance):
    # periodic: the thread that called run_stress runs every pass, so no
    # other background thread exists. on-fail: the writer that finds the
    # root full runs it.
    runners = []
    pass_of = MulticopyStructure.maintenance_pass

    def spy(self):
        runners.append(threading.current_thread())
        pass_of(self)

    monkeypatch.setattr(LsmStructure, "maintenance_pass", spy)
    report = run_stress(small_config(maintenance=maintenance, root_capacity=4))
    assert report.ok, report.format_text()
    assert runners
    if maintenance == "on-fail":
        assert all(t.name.startswith("worker-") for t in runners)
    else:
        assert set(runners) == {threading.current_thread()}


@pytest.mark.parametrize("maintenance", ["on-fail", "periodic:1"])
def test_a_failed_checkpoint_fails_the_run_and_leaves_no_thread(monkeypatch, maintenance):
    def broken_check(*args, **kwargs):
        raise RuntimeError("check failed")

    monkeypatch.setattr(harness, "check_invariants", broken_check)
    before = threading.active_count()
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="check failed"):
        run_stress(small_config(maintenance=maintenance, root_capacity=4))
    assert time.monotonic() - started < 1
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "bad, error",
    [(dict(mix=(100,)), MulticopyError), (dict(ops_per_thread=10.5), MulticopyError)],
)
def test_a_stream_that_cannot_be_generated_fails_the_run_instead_of_hanging_it(
    bad, error, capfd
):
    # The run goes in a daemon thread with a join timeout, so a run that
    # hangs fails this test instead of stalling the rest.
    raised = []

    def run():
        try:
            run_stress(small_config(maintenance="on-fail", **bad))
        except Exception as e:
            raised.append(e)

    t = _started(run)
    t.join(5)
    assert not t.is_alive(), "run_stress hung"
    assert len(raised) == 1 and isinstance(raised[0], error), raised
    assert "Exception in thread" not in capfd.readouterr().err


def test_inv2_with_handed_in_reach_maps_matches_graphs_alone_across_checkpoints(monkeypatch):
    real, handed = harness.check_inv2_monotone, []

    def both_ways(prev, nxt, *, reach_next=None):
        out = real(prev, nxt, reach_next=reach_next)
        assert reach_next == reach_maps(nxt)
        assert out.to_json() == real(prev, nxt).to_json()
        handed.append(reach_next is not None)
        return out

    monkeypatch.setattr(harness, "check_inv2_monotone", both_ways)
    report = run_stress(small_config(checkpoint_every=20))
    assert report.ok, report.format_text()
    assert len(handed) == len(report.checkpoints) - 1 >= 5 and all(handed)
    # No checkpoint record keeps its reach maps.
    assert all(c.invariants.reach is None for c in report.checkpoints)


@pytest.mark.parametrize("enabled", [True, False])
def test_checks_run_with_the_collector_paused_and_leave_it_as_they_found_it(
    monkeypatch, tmp_path, enabled
):
    seen = []
    for name in ("check_invariants", "check_inv2_monotone", "linearize"):
        def spied(*args, real=getattr(harness, name), name=name, **kwargs):
            seen.append((name, gc.isenabled()))
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, name, spied)

    def broken_check(*args, **kwargs):
        raise RuntimeError("check failed")

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        report = run_stress(small_config())
        assert report.ok and gc.isenabled() is enabled
        calls = len(report.checkpoints)
        trace_path, snap_path = str(tmp_path / "trace.jsonl"), str(tmp_path / "snapshot.json")
        report.trace.dump(trace_path)
        save_graph(report.snapshot, snap_path)
        assert check_files(snap_path, trace_path)[0] and gc.isenabled() is enabled
        assert sorted(Counter(n for n, _ in seen).items()) == [
            ("check_inv2_monotone", calls - 1), ("check_invariants", calls + 1), ("linearize", 2)
        ]
        assert not any(on for _, on in seen)
        monkeypatch.setattr(harness, "check_invariants", broken_check)
        with pytest.raises(RuntimeError, match="check failed"):
            run_stress(small_config())
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_workers_stop_early_after_a_failed_checkpoint(monkeypatch):
    def broken_check(*args, **kwargs):
        raise RuntimeError("check failed")

    monkeypatch.setattr(harness, "check_invariants", broken_check)
    ran = []
    for name in ("search_timed", "upsert_timed"):
        def counted(self, *args, op=getattr(MulticopyStructure, name)):
            ran.append(name)
            return op(self, *args)

        monkeypatch.setattr(MulticopyStructure, name, counted)
    # on-fail: no writer waits for a pass, so only the stopped gate can end
    # the workers before their streams run out.
    cfg = small_config(maintenance="on-fail", root_capacity=4, ops_per_thread=2000)
    with pytest.raises(RuntimeError, match="check failed"):
        run_stress(cfg)
    assert len(ran) < cfg.threads * cfg.ops_per_thread


def test_stress_on_fail_maintenance_grows_the_structure():
    report = run_stress(small_config(maintenance="on-fail", root_capacity=4))
    assert report.ok, report.format_text()
    assert report.final_nodes > 1
    assert report.root_full_waits > 0 and report.root_full_wait_s > 0


def test_stress_on_fail_with_a_root_that_holds_the_keyspace_never_flushes():
    # Every write after the root holds each key is an overwrite, so no write
    # finds the root full and no pass runs.
    report = run_stress(
        small_config(maintenance="on-fail", root_capacity=16, checkpoint_every=0)
    )
    assert report.ok, report.format_text()
    assert report.final_nodes == 1
    assert report.root_full_waits == 0
    assert len(report.checkpoints) == 1  # final only


@pytest.mark.parametrize("maintenance", ["on-fail", "periodic:1"])
@pytest.mark.parametrize("broken", UNRELIEVED_ROOT)
def test_a_run_whose_root_nothing_relieves_fails_fast(monkeypatch, capfd, maintenance, broken):
    monkeypatch.setattr(*UNRELIEVED_ROOT[broken])
    before = threading.active_count()
    started = time.monotonic()
    with pytest.raises(MulticopyError, match="full: two hook rounds moved no record"):
        run_stress(small_config(maintenance=maintenance, root_capacity=4))
    assert time.monotonic() - started < 1
    assert threading.active_count() == before
    assert "Exception in thread" not in capfd.readouterr().err


def test_stress_df_structure():
    report = run_stress(small_config(structure="df", threads=3))
    assert report.ok, report.format_text()
    assert report.final_nodes == 2


@pytest.mark.parametrize(
    "structure, maintenance",
    [("lsm", "on-fail"), ("lsm", "periodic:1"), ("df", "periodic:1")],
)
def test_the_template_writes_only_to_its_root_and_never_merges_into_it(
    monkeypatch, structure, maintenance
):
    # Nodes have no roles, so nothing at run time stops a write below the
    # root or a merge into it: the template itself must never do either.
    written, merged_into = set(), set()
    add_contents, merge_contents = NodeHandle.add_contents, lsm.merge_contents

    def recorded_add(self, key, value, ts):
        written.add(self.id)
        return add_contents(self, key, value, ts)

    def recorded_merge(n, m, **kwargs):
        merged_into.add(m.id)
        return merge_contents(n, m, **kwargs)

    monkeypatch.setattr(NodeHandle, "add_contents", recorded_add)
    monkeypatch.setattr(lsm, "merge_contents", recorded_merge)
    report = run_stress(
        small_config(structure=structure, maintenance=maintenance, root_capacity=4)
    )
    assert report.ok, report.format_text()
    assert written == {report.snapshot.root}
    assert merged_into and report.snapshot.root not in merged_into


def test_bench_mode_skips_recording(monkeypatch):
    def checker_called(*args, **kwargs):
        raise AssertionError("an unchecked run called a checker")

    monkeypatch.setattr(UpsertHistory, "check_search_recency", checker_called)
    monkeypatch.setattr(UpsertHistory, "verify_predicates", checker_called)
    for name in ("check_invariants", "check_inv2_monotone", "linearize"):
        monkeypatch.setattr(harness, name, checker_called)
    report = run_stress(small_config(), checked=False)
    assert report.trace is None
    assert report.linearization is None
    assert report.checkpoints == []
    assert report.total_ops == 300
    assert report.ok


def test_stress_writes_verifiable_files(tmp_path):
    trace_path = str(tmp_path / "trace.jsonl")
    snap_path = str(tmp_path / "snapshot.json")
    report = run_stress(small_config())
    report.trace.dump(trace_path)
    save_graph(report.snapshot, snap_path)
    assert report.ok
    ok, out = check_files(snap_path, trace_path)
    assert ok, out
    assert out["invariants"]["ok"] and out["linearization"]["ok"]


def test_check_files_rejects_a_doctored_snapshot(tmp_path):
    trace_path = str(tmp_path / "trace.jsonl")
    snap_path = str(tmp_path / "snapshot.json")
    report = run_stress(small_config(maintenance="on-fail", root_capacity=16))
    report.trace.dump(trace_path)
    save_graph(report.snapshot, snap_path)
    obj = json.loads(Path(snap_path).read_text())
    node, contents = next(iter(obj["contents"].items()))
    key = next(iter(contents))
    contents[key][1] = 999_999  # timestamp nobody ever issued
    Path(snap_path).write_text(json.dumps(obj))
    ok, out = check_files(snap_path, trace_path)
    assert not ok
    assert not out["invariants"]["ok"]


def test_check_files_rejects_a_trace_with_duplicate_timestamps(tmp_path):
    trace_path = str(tmp_path / "trace.jsonl")
    snap_path = str(tmp_path / "snapshot.json")
    report = run_stress(small_config())
    report.trace.dump(trace_path)
    save_graph(report.snapshot, snap_path)
    lines = Path(trace_path).read_text().splitlines()
    ups = [i for i, l in enumerate(lines) if '"op": "upsert"' in l]
    a = json.loads(lines[ups[0]])
    b = json.loads(lines[ups[1]])
    a["ts"] = b["ts"]
    lines[ups[0]] = json.dumps(a)
    Path(trace_path).write_text("\n".join(lines) + "\n")
    ok, out = check_files(snap_path, trace_path)
    assert not ok
    assert "error" in out and "valid history" in out["error"]


def test_check_files_takes_a_trace_header_only_as_the_first_line(tmp_path):
    # Only a header on the first line bounds every key that follows it.
    snap = tmp_path / "s.json"
    snap.write_text('{"keyspace_size": 4, "root": 0, "nodes": [0]}')
    header = json.dumps({"keyspace_size": 4})
    search = json.dumps(
        {"op": "search", "thread": 0, "key": 9, "value": None,
         "t0": 0, "tp": 0, "snap": 0, "inv": 0, "resp": 1}
    )
    trace = tmp_path / "t.jsonl"
    for lines, reason in (
        ([header, search], "key 9 outside keyspace [0, 4) at line 2"),
        ([search, header], "the first line is not a keyspace header at line 1"),
        (["", header, "", header], "keyspace header is not the first line at line 4"),
    ):
        trace.write_text("\n".join(lines) + "\n")
        with pytest.raises(MulticopyError, match=re.escape("malformed trace: " + reason)):
            check_files(str(snap), str(trace))


def test_check_files_rejects_a_trace_with_a_missing_upsert(tmp_path):
    trace_path = str(tmp_path / "trace.jsonl")
    snap_path = str(tmp_path / "snapshot.json")
    report = run_stress(small_config())
    report.trace.dump(trace_path)
    save_graph(report.snapshot, snap_path)
    lines = Path(trace_path).read_text().splitlines()
    events = [json.loads(l) for l in lines]
    del lines[next(i for i, e in enumerate(events) if e.get("op") == "upsert" and e["ts"] == 1)]
    Path(trace_path).write_text("\n".join(lines) + "\n")
    ok, out = check_files(snap_path, trace_path)
    assert not ok
    assert out["error"].startswith(
        "trace does not form a valid history: upsert timestamp 2 follows 0"
    )
