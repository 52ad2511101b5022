"""Stress harness: concurrent workloads with online and offline checking.

A run spawns worker threads that execute deterministic per-thread op streams
(derived from the seed) against a fresh structure, while an optional
maintenance thread flushes periodically and whenever a writer finds the
root full. Every search is checked online against the history the moment it
returns. Checkpoints are requested at their marks: the worker whose op
completes every checkpoint_every * threads ops asks for a pause, all
participants park at a gate (between operations, or while waiting holding
no node lock), and the coordinating thread snapshots the structure, runs
the full invariant suite plus cross-snapshot monotonicity, and resumes. At
the end the recorded trace must linearize.

Nothing here trusts the structure under test: every verdict comes from the
history, the snapshot checkers, or the trace, never from the structure's own
bookkeeping.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .checker import (
    CheckResult,
    InvariantReport,
    LinearizationResult,
    check_inv2_monotone,
    check_invariants,
    linearize,
)
from .core import TOMBSTONE, MulticopyError
from .df import DfStructure
from .graph import MulticopyGraph, load_graph, save_graph
from .history import (
    HistoryCorruptionError,
    HistoryPredicateReport,
    SearchEvent,
    Trace,
    UpsertEvent,
)
from .lsm import LsmStructure

__all__ = [
    "WorkloadConfig",
    "StressReport",
    "CheckpointRecord",
    "run_stress",
    "check_files",
]


@dataclass
class WorkloadConfig:
    keyspace_size: int = 64
    threads: int = 4
    ops_per_thread: int = 1000
    # Percent weights: search / upsert / delete. Must sum to 100.
    mix: tuple[int, int, int] = (70, 25, 5)
    structure: str = "lsm"  # lsm | df
    root_capacity: int = 8
    growth_factor: int = 2
    maintenance: str = "periodic:2"  # on-fail | periodic:<ms> | off
    seed: int = 0
    # Per-thread op cadence between quiescent checkpoints; 0 = final only.
    checkpoint_every: int = 2000

    def validate(self) -> None:
        if sum(self.mix) != 100 or any(m < 0 for m in self.mix):
            raise MulticopyError(f"mix must be three percentages summing to 100, got {self.mix}")
        if self.structure not in ("lsm", "df"):
            raise MulticopyError(f"structure must be lsm or df, got {self.structure!r}")
        if self.threads < 1 or self.ops_per_thread < 0:
            raise MulticopyError("threads must be >= 1 and ops_per_thread >= 0")
        _parse_maintenance(self.maintenance)

    def to_json(self) -> dict:
        return {
            "keyspace_size": self.keyspace_size,
            "threads": self.threads,
            "ops_per_thread": self.ops_per_thread,
            "mix": list(self.mix),
            "structure": self.structure,
            "root_capacity": self.root_capacity,
            "growth_factor": self.growth_factor,
            "maintenance": self.maintenance,
            "seed": self.seed,
            "checkpoint_every": self.checkpoint_every,
        }


def _parse_maintenance(spec: str) -> tuple[str, float]:
    if spec in ("on-fail", "off"):
        return spec, 0.0
    if spec == "periodic":
        return "periodic", 0.002
    if spec.startswith("periodic:"):
        ms = float(spec.split(":", 1)[1])
        if ms <= 0:
            raise MulticopyError("periodic maintenance interval must be positive")
        return "periodic", ms / 1000.0
    raise MulticopyError(
        f"maintenance must be on-fail, periodic[:<ms>] or off, got {spec!r}"
    )


def generate_ops(config: WorkloadConfig, thread_id: int) -> list[tuple]:
    """The deterministic op stream for one worker. Seed and thread id fully
    determine it; the shared structure provides the only nondeterminism."""
    rng = random.Random(f"{config.seed}:{thread_id}")
    s_cut = config.mix[0]
    u_cut = config.mix[0] + config.mix[1]
    ops = []
    for _ in range(config.ops_per_thread):
        roll = rng.randrange(100)
        key = rng.randrange(config.keyspace_size)
        if roll < s_cut:
            ops.append(("search", key))
        elif roll < u_cut:
            ops.append(("upsert", key, rng.randrange(10_000)))
        else:
            ops.append(("delete", key))
    return ops


class PauseGate:
    """Where the threads of a run meet, under one lock.

    Participants (the workers and the flusher) are registered before their
    threads start and deregister when they end. A participant parks at the
    gate between operations (wait_if_paused), and also while it idles
    holding no node lock: a writer waiting for a maintenance pass, or the
    flusher waiting for work. pause() returns once every registered
    participant is parked, which is what makes a checkpoint quiescent
    without touching any node lock, and nobody leaves the gate until
    resume().

    A worker whose op reaches a checkpoint mark calls request_pause(); the
    coordinating thread waits for that in next_checkpoint(). A writer that
    finds the root full calls await_pass(), which wakes the flusher waiting
    in await_work(); pass_done() wakes the writer.

    Participants wait on one condition, so a pass request, a resume or
    stop() wakes the flusher at once. The coordinating thread waits on a
    second condition over the same lock, so that the handoffs between
    writers and the flusher do not wake it.
    """

    def __init__(self):
        lock = threading.Lock()
        self._cond = threading.Condition(lock)  # participants wait here
        self._coordinator = threading.Condition(lock)
        self._pausing = False
        self._active = 0
        self._paused = 0
        self._requests = 0  # checkpoint marks reached and not yet taken
        self._pass_wanted = False
        self._passes = 0  # maintenance passes finished
        self._stopped = False

    def register(self) -> None:
        with self._cond:
            self._active += 1

    def deregister(self) -> None:
        with self._cond:
            self._active -= 1
            self._coordinator.notify_all()

    def _park(self, ready: Callable[[], bool], timeout: Optional[float]) -> None:
        # Caller holds the condition and no node lock. Counts as parked until
        # ready() holds or the timeout passes, and while a pause is pending.
        self._paused += 1
        if self._pausing:
            self._coordinator.notify_all()
        try:
            self._cond.wait_for(ready, timeout)
            while self._pausing:
                self._cond.wait()
        finally:
            self._paused -= 1

    def wait_if_paused(self) -> None:
        with self._cond:
            if self._pausing:
                self._park(lambda: True, None)

    def pause(self) -> None:
        with self._cond:
            self._pausing = True
            while self._paused < self._active:
                self._coordinator.wait()

    def resume(self) -> None:
        with self._cond:
            self._pausing = False
            self._cond.notify_all()

    def request_pause(self) -> None:
        """A checkpoint mark was reached: stop the workers at their next
        wait_if_paused and wake the coordinator. Ignored after stop(), when
        the coordinator may no longer be waiting for it."""
        with self._cond:
            if self._stopped:
                return
            self._requests += 1
            self._pausing = True
            self._coordinator.notify_all()

    def next_checkpoint(self, background: int) -> bool:
        """Wait until a checkpoint is requested (True), or until at most
        `background` participants remain registered, e.g. the flusher
        once every worker has ended (False)."""
        with self._cond:
            self._coordinator.wait_for(lambda: self._requests or self._active <= background)
            if not self._requests:
                return False
            self._requests -= 1
            return True

    def await_pass(self, timeout: float) -> None:
        """Ask the flusher for a maintenance pass and park until one ends,
        for at most timeout seconds. Raises once the flusher has stopped."""
        with self._cond:
            seen = self._passes
            self._pass_wanted = True
            self._cond.notify_all()
            self._park(lambda: self._passes != seen or self._stopped, timeout)
            if self._stopped:
                raise MulticopyError("the flusher has stopped; nothing makes room at the root")

    def await_work(self, interval: float) -> bool:
        """The flusher parks until a writer wants a pass or interval has
        passed; False once stop() was called."""
        with self._cond:
            self._park(lambda: self._pass_wanted or self._stopped, interval)
            self._pass_wanted = False
            return not self._stopped

    def pass_done(self) -> None:
        with self._cond:
            self._passes += 1
            self._cond.notify_all()

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()


@dataclass
class CheckpointRecord:
    ops_done: int
    invariants: InvariantReport
    monotone: Optional[CheckResult]  # None for the first checkpoint

    @property
    def ok(self) -> bool:
        return self.invariants.ok and (self.monotone is None or self.monotone.ok)

    def to_json(self) -> dict:
        return {
            "ops_done": self.ops_done,
            "ok": self.ok,
            "invariants": self.invariants.to_json(),
            "monotone": None if self.monotone is None else self.monotone.to_json(),
        }


@dataclass
class StressReport:
    config: WorkloadConfig
    duration_s: float = 0.0
    total_ops: int = 0
    search_count: int = 0
    upsert_count: int = 0
    recency_violations: list[dict] = field(default_factory=list)
    lock_order_violations: list[dict] = field(default_factory=list)
    checkpoints: list[CheckpointRecord] = field(default_factory=list)
    linearization: Optional[LinearizationResult] = None
    history_predicates: Optional[HistoryPredicateReport] = None
    final_nodes: int = 0
    # Upserts that found the root full, and their time in the on_full hook.
    root_full_waits: int = 0
    root_full_wait_s: float = 0.0
    trace: Optional[Trace] = None
    snapshot: Optional[MulticopyGraph] = None

    @property
    def throughput(self) -> float:
        return self.total_ops / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def ok(self) -> bool:
        if self.recency_violations or self.lock_order_violations:
            return False
        if any(not c.ok for c in self.checkpoints):
            return False
        if self.linearization is not None and not self.linearization.ok:
            return False
        if self.history_predicates is not None and not self.history_predicates.ok:
            return False
        return True

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "config": self.config.to_json(),
            "duration_s": round(self.duration_s, 3),
            "total_ops": self.total_ops,
            "throughput_ops_s": round(self.throughput, 1),
            "searches": self.search_count,
            "upserts": self.upsert_count,
            "recency_violations": self.recency_violations[:20],
            "recency_violation_count": len(self.recency_violations),
            "lock_order_violations": self.lock_order_violations[:20],
            "checkpoints": [c.to_json() for c in self.checkpoints],
            "linearization": None
            if self.linearization is None
            else self.linearization.to_json(),
            "history_predicates": None
            if self.history_predicates is None
            else {
                "init": self.history_predicates.init_ok,
                "unique": self.history_predicates.unique_ok,
                "clock": self.history_predicates.clock_ok,
            },
            "final_nodes": self.final_nodes,
            "root_full_waits": self.root_full_waits,
            "root_full_wait_s": round(self.root_full_wait_s, 6),
        }

    def format_text(self) -> str:
        lines = [
            f"structure={self.config.structure} threads={self.config.threads} "
            f"ops/thread={self.config.ops_per_thread} seed={self.config.seed}",
            f"ran {self.total_ops} ops in {self.duration_s:.2f}s "
            f"({self.throughput:.0f} ops/s), {self.final_nodes} nodes at end",
            f"recency violations: {len(self.recency_violations)}",
            f"lock order violations: {len(self.lock_order_violations)}",
            f"root-full waits: {self.root_full_waits} "
            f"({self.root_full_wait_s * 1e3:.1f} ms in all)",
        ]
        for i, c in enumerate(self.checkpoints):
            lines.append(
                f"checkpoint {i} at {c.ops_done} ops: "
                + ("ok" if c.ok else "FAILED")
            )
            if not c.invariants.ok:
                for e in c.invariants.failures():
                    lines.append(f"    {e.check_id}: {e.witnesses[:2]}")
            if c.monotone is not None and not c.monotone.ok:
                lines.append(f"    inv2_reach_monotone: {c.monotone.witnesses[:2]}")
        if self.linearization is not None:
            lines.append(
                "linearization: "
                + ("ok" if self.linearization.ok else f"FAILED {self.linearization.failure}")
            )
        if self.history_predicates is not None:
            lines.append(
                "history predicates: "
                + ("ok" if self.history_predicates.ok else "FAILED")
            )
        lines.append("result: " + ("OK" if self.ok else "FAILURES FOUND"))
        return "\n".join(lines)


def _build_structure(config: WorkloadConfig):
    if config.structure == "lsm":
        return LsmStructure.create(
            config.keyspace_size,
            config.root_capacity,
            config.growth_factor,
            flush_on_full=False,
        )
    return DfStructure.create(
        config.keyspace_size, config.root_capacity, flush_on_full=False
    )


def run_stress(
    config: WorkloadConfig,
    *,
    record: bool = True,
    online_checks: bool = True,
    checkpoints: bool = True,
    trace_out: Optional[str] = None,
    snapshot_out: Optional[str] = None,
) -> StressReport:
    """Execute one configured run; see module doc. With record/online/
    checkpoints all off this degenerates into a pure benchmark loop."""
    config.validate()
    report = StressReport(config=config)
    structure = _build_structure(config)
    gate = PauseGate()
    mode, interval = _parse_maintenance(config.maintenance)

    if mode == "on-fail":
        def make_room():
            gate.wait_if_paused()
            structure.maintenance_pass()
    elif mode == "periodic":
        def make_room():
            gate.await_pass(interval)
    else:
        def make_room():
            raise MulticopyError(
                f"root full with maintenance off: {config.root_capacity} root "
                f"slots for a keyspace of {config.keyspace_size} keys, and "
                "nothing moves copies out of the root"
            )

    full_lock = threading.Lock()

    def on_full():
        started = time.perf_counter()
        make_room()
        waited = time.perf_counter() - started
        with full_lock:
            report.root_full_waits += 1
            report.root_full_wait_s += waited

    structure.set_on_root_full(on_full)

    seq = itertools.count()
    done = [0] * config.threads
    events_per_thread: list[list] = [[] for _ in range(config.threads)]
    violations_per_thread: list[list] = [[] for _ in range(config.threads)]
    thread_errors: list[Exception] = []
    # A checkpoint is requested by the worker whose op completes a mark;
    # marks at or past the last op are left to the final checkpoint.
    step = max(config.checkpoint_every, 0) * config.threads if checkpoints else 0
    total = config.threads * config.ops_per_thread
    completed = itertools.count(1)

    def worker(tid: int) -> None:
        ops = generate_ops(config, tid)
        events = events_per_thread[tid]
        violations = violations_per_thread[tid]
        try:
            for i, op in enumerate(ops):
                gate.wait_if_paused()
                if op[0] == "search":
                    key = op[1]
                    inv = next(seq)
                    probe = structure.search_timed(key)
                    resp = next(seq)
                    rec = structure.history.check_search_recency(
                        key, probe.value, probe.ts, probe.snap
                    )
                    if online_checks and not rec.ok:
                        violations.append(rec.to_dict())
                    if record:
                        events.append(
                            SearchEvent(
                                thread=tid,
                                key=key,
                                value=probe.value,
                                t0=rec.t0,
                                tp=probe.ts,
                                snap=probe.snap,
                                inv=inv,
                                resp=resp,
                            )
                        )
                else:
                    key = op[1]
                    value = TOMBSTONE if op[0] == "delete" else op[2]
                    inv = next(seq)
                    ts = structure.upsert_timed(key, value)
                    resp = next(seq)
                    if record:
                        events.append(
                            UpsertEvent(
                                thread=tid, key=key, value=value,
                                ts=ts, inv=inv, resp=resp,
                            )
                        )
                done[tid] = i + 1
                if step:
                    n = next(completed)
                    if n % step == 0 and n < total:
                        gate.request_pause()
        except Exception as e:  # run_stress raises the first one after join
            thread_errors.append(e)
        finally:
            gate.deregister()

    def flusher() -> None:
        try:
            while gate.await_work(interval):
                structure.maintenance_pass()
                gate.pass_done()
        except Exception as e:
            thread_errors.append(e)
            gate.stop()  # so that writers waiting for room fail, not wait forever
        finally:
            gate.deregister()

    threads = [
        threading.Thread(target=worker, args=(tid,), name=f"worker-{tid}")
        for tid in range(config.threads)
    ]
    flusher_thread = (
        threading.Thread(target=flusher, name="flusher") if mode == "periodic" else None
    )

    prev_graph: Optional[MulticopyGraph] = None

    def take_checkpoint(quiesce: bool) -> None:
        nonlocal prev_graph
        if quiesce:
            gate.pause()
        try:
            g = structure.snapshot_graph()
            inv = check_invariants(g, structure.history, structure.clock)
            mono = None if prev_graph is None else check_inv2_monotone(prev_graph, g)
            report.checkpoints.append(
                CheckpointRecord(ops_done=sum(done), invariants=inv, monotone=mono)
            )
            prev_graph = g
        finally:
            if quiesce:
                gate.resume()

    started = time.monotonic()
    participants = threads + ([flusher_thread] if flusher_thread else [])
    background = len(participants) - len(threads)
    for _ in participants:
        # Before any thread starts, so that no pause and no wait for a
        # checkpoint can miss a participant that has not run yet.
        gate.register()
    for t in participants:
        t.start()
    try:
        while gate.next_checkpoint(background):
            take_checkpoint(quiesce=True)
    finally:
        # Only a check that raised gets here with workers left: they finish
        # unchecked, so that none stays parked at a pause nobody takes.
        while gate.next_checkpoint(background):
            gate.resume()
        gate.stop()
        for t in participants:
            t.join()
    report.duration_s = time.monotonic() - started

    if thread_errors:
        raise thread_errors[0]

    if checkpoints:
        take_checkpoint(quiesce=False)

    report.total_ops = sum(done)
    for v in violations_per_thread:
        report.recency_violations.extend(v)
    report.lock_order_violations = list(structure.lock_order_violations)
    report.final_nodes = len(structure.node_ids())

    if record:
        trace = Trace(keyspace_size=config.keyspace_size)
        for evs in events_per_thread:
            trace.events.extend(evs)
        trace.events.sort(key=lambda e: e.inv)
        report.trace = trace
        report.search_count = len(trace.searches())
        report.upsert_count = len(trace.upserts())
        report.linearization = linearize(trace)
        if trace_out:
            trace.dump(trace_out)

    report.history_predicates = structure.history.verify_predicates(structure.clock)
    report.snapshot = structure.snapshot_graph()
    if snapshot_out:
        save_graph(report.snapshot, snapshot_out)
    return report


def check_files(snapshot_path: str, trace_path: str) -> tuple[bool, dict]:
    """Offline verification of a written snapshot/trace pair.

    The history is rebuilt from the trace's upserts, so the snapshot's
    stored copies must be justified by the trace and the trace itself must
    linearize. Returns (ok, json-able report)."""
    out: dict = {"snapshot": snapshot_path, "trace": trace_path}
    g = load_graph(snapshot_path)
    trace = Trace.load(trace_path)
    if trace.keyspace_size < g.keyspace_size:
        trace.keyspace_size = g.keyspace_size
    try:
        h, clock = trace.rebuild_history()
    except HistoryCorruptionError as e:
        out["ok"] = False
        out["error"] = f"trace does not form a valid history: {e}"
        return False, out
    inv = check_invariants(g, h, clock)
    lin = linearize(trace)
    preds = h.verify_predicates(clock)
    out["invariants"] = inv.to_json()
    out["linearization"] = lin.to_json()
    out["history_predicates"] = {
        "init": preds.init_ok, "unique": preds.unique_ok, "clock": preds.clock_ok,
    }
    ok = inv.ok and lin.ok and preds.ok
    out["ok"] = ok
    return ok, out
