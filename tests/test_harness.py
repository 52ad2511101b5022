import json
import sys
import threading
import time
from pathlib import Path

import pytest

from multicopy.core import MulticopyError
from multicopy.harness import (
    PauseGate,
    WorkloadConfig,
    check_files,
    generate_ops,
    run_stress,
)
from multicopy.lsm import LsmStructure


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
    with pytest.raises(MulticopyError):
        small_config(structure="btree").validate()
    with pytest.raises(MulticopyError):
        small_config(threads=0).validate()
    with pytest.raises(MulticopyError):
        small_config(maintenance="sometimes").validate()
    with pytest.raises(MulticopyError):
        small_config(maintenance="periodic:0").validate()
    for ok in ("on-fail", "off", "periodic", "periodic:2.5"):
        small_config(maintenance=ok).validate()


def test_pause_gate_quiesces_every_participant():
    gate = PauseGate()
    ticks = [0, 0]
    stop = threading.Event()

    def loop(i):
        gate.register()
        try:
            while not stop.is_set():
                gate.wait_if_paused()
                ticks[i] += 1
        finally:
            gate.deregister()

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
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
    stop.set()
    gate.pause()  # pausing after workers exit must not hang
    gate.resume()
    for t in threads:
        t.join()


def test_stress_run_reports_clean_and_complete():
    cfg = small_config()
    report = run_stress(cfg)
    assert report.ok, report.format_text()
    total = cfg.threads * cfg.ops_per_thread
    assert report.total_ops == total
    assert len(report.trace.events) == total
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


def test_full_root_wakes_the_flusher_instead_of_waiting_out_its_interval():
    started = time.monotonic()
    report = run_stress(small_config(maintenance="periodic:1000", root_capacity=4))
    assert time.monotonic() - started < 1
    assert report.ok, report.format_text()
    assert len(report.checkpoints) == 3
    assert report.final_nodes > 1


def test_a_failed_flusher_fails_the_run_instead_of_hanging_it(monkeypatch, capfd):
    def broken_pass(self):
        raise RuntimeError("pass failed")

    monkeypatch.setattr(LsmStructure, "maintenance_pass", broken_pass)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="pass failed"):
        run_stress(small_config(root_capacity=4))
    assert time.monotonic() - started < 1
    assert "Exception in thread" not in capfd.readouterr().err


def test_stress_on_fail_maintenance_grows_the_structure():
    report = run_stress(small_config(maintenance="on-fail", root_capacity=4))
    assert report.ok, report.format_text()
    assert report.final_nodes > 1
    assert report.root_full_waits > 0 and report.root_full_wait_s > 0


def test_stress_maintenance_off_never_flushes():
    # Root capacity covers the keyspace, so writes never stall.
    report = run_stress(
        small_config(maintenance="off", root_capacity=16, checkpoint_every=0)
    )
    assert report.ok, report.format_text()
    assert report.final_nodes == 1
    assert len(report.checkpoints) == 1  # final only


def test_stress_df_structure():
    report = run_stress(small_config(structure="df", threads=3))
    assert report.ok, report.format_text()
    assert report.final_nodes == 2


def test_bench_mode_skips_recording():
    report = run_stress(
        small_config(), record=False, online_checks=False, checkpoints=False
    )
    assert report.trace is None
    assert report.linearization is None
    assert report.checkpoints == []
    assert report.total_ops == 300
    assert report.ok


def test_stress_writes_verifiable_files(tmp_path):
    trace_path = str(tmp_path / "trace.jsonl")
    snap_path = str(tmp_path / "snapshot.json")
    report = run_stress(
        small_config(), trace_out=trace_path, snapshot_out=snap_path
    )
    assert report.ok
    ok, out = check_files(snap_path, trace_path)
    assert ok, out
    assert out["invariants"]["ok"] and out["linearization"]["ok"]


def test_check_files_rejects_a_doctored_snapshot(tmp_path):
    trace_path = str(tmp_path / "trace.jsonl")
    snap_path = str(tmp_path / "snapshot.json")
    run_stress(
        small_config(maintenance="off", root_capacity=16),
        trace_out=trace_path,
        snapshot_out=snap_path,
    )
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
    run_stress(small_config(), trace_out=trace_path, snapshot_out=snap_path)
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
