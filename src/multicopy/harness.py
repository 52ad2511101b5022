"""Stress harness: concurrent workloads with online and offline checking.

A run spawns worker threads that execute deterministic per-thread op streams
(derived from the seed) against a fresh structure. The thread that called
run_stress is the run's only background thread: it waits at the gate for its
next job and does it. A job is a checkpoint, a maintenance pass a writer asked
for because it found the root full (the writer stays parked until that pass
ends), or, in periodic mode, a pass because the interval ended. In a checked
run (the default) check_lock_order swaps the structure's node locks for ones
that log every break of the lock-order rule to a LockOrderLog, and every search
is checked online against the history the moment it returns. Checkpoints are
requested at their marks: the worker whose op completes every
checkpoint_every * threads ops asks for a pause, every worker parks at the
gate (between operations, or while waiting holding no node lock), and the
calling thread snapshots the structure, runs the full invariant suite plus
cross-snapshot monotonicity, and resumes. At the end the recorded trace
must linearize and the history predicates must hold. The report carries the
trace and the final snapshot; writing them to files is left to the caller. An
unchecked run does none of this; it only runs the ops, on plain node locks,
and times them.

Each worker records its ops into a search table and an upsert table of its
own (history.EventTable): one bound append per field into array('q')
columns and a value list, so an op makes no event object, no GC-tracked
object and no boxed int that outlives it. Trace.from_workers joins the
tables once the workers have ended; events are built only when read.

The snapshot checks and the linearizer run with CPython's cyclic garbage
collector paused (_collector_paused). They build no reference cycles, so
reference counting frees all they allocate, while their many live tuples
and dicts would otherwise cost a collector pass every few hundred
allocations, each walking everything a check still holds.

Nothing here trusts the structure under test: every verdict comes from the
history, the snapshot checkers, or the trace, never from the structure's own
bookkeeping.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from .checker import (
    CheckResult,
    InvariantReport,
    LinearizationResult,
    check_inv2_monotone,
    check_invariants,
    linearize,
)
from .core import TOMBSTONE, MulticopyError, check_keyspace, int_field
from .df import DfStructure
from .graph import MulticopyGraph, load_graph
from .history import (
    EventTable,
    HistoryCorruptionError,
    HistoryPredicateReport,
    SearchEvent,
    Trace,
    UpsertEvent,
)
from .lsm import LsmStructure, MulticopyStructure
from .nodes import NodeHandle, NodeId

__all__ = [
    "WorkloadConfig",
    "StressReport",
    "CheckpointRecord",
    "run_stress",
    "check_files",
    "check_lock_order",
    "LockOrderLog",
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
    maintenance: str = "periodic:2"  # on-fail | periodic:<ms>
    seed: int = 0
    # Per-thread op cadence between quiescent checkpoints; 0 = final only.
    checkpoint_every: int = 2000

    def validate(self) -> None:
        for name in ("keyspace_size", "threads", "ops_per_thread", "root_capacity",
                     "growth_factor", "seed", "checkpoint_every"):
            int_field(getattr(self, name), name)
        if len(self.mix) != 3 or sum(self.mix) != 100 or any(m < 0 for m in self.mix):
            raise MulticopyError(f"mix must be three percentages summing to 100, got {self.mix}")
        if self.structure not in ("lsm", "df"):
            raise MulticopyError(f"structure must be lsm or df, got {self.structure!r}")
        if self.threads < 1 or self.ops_per_thread < 0:
            raise MulticopyError("threads must be >= 1 and ops_per_thread >= 0")
        if self.checkpoint_every < 0:
            raise MulticopyError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        _parse_maintenance(self.maintenance)

    def to_json(self) -> dict:
        return dict(dataclasses.asdict(self), mix=list(self.mix))


def _parse_maintenance(spec: str) -> tuple[str, Optional[float]]:
    """The mode and, for periodic, its interval in seconds."""
    if spec == "on-fail":
        return spec, None
    if spec.startswith("periodic:"):
        try:
            seconds = float(spec.split(":", 1)[1]) / 1000.0
        except ValueError:
            seconds = 0.0
        # The comparison is also false for nan. The interval becomes a lock
        # timeout, which threading bounds by TIMEOUT_MAX.
        if not 0 < seconds <= threading.TIMEOUT_MAX:
            raise MulticopyError(
                "periodic maintenance interval must be a positive number of ms"
                f" up to {threading.TIMEOUT_MAX * 1000:.0f}, got {spec!r}"
            )
        return "periodic", seconds
    raise MulticopyError(f"maintenance must be on-fail or periodic:<ms>, got {spec!r}")


def generate_ops(config: WorkloadConfig, thread_id: int) -> list[tuple]:
    """The deterministic op stream for one worker. Seed and thread id fully
    determine it; the shared structure provides the only nondeterminism.

    Each draw below n is Random.randrange(n) spelled out: getrandbits of
    n.bit_length() bits, redrawn while not below n. The stream is the one
    randrange gives, so a failure still replays from its seed, without
    randrange's argument checks on every draw."""
    check_keyspace(config.keyspace_size)
    bits = random.Random(f"{config.seed}:{thread_id}").getrandbits
    keyspace = config.keyspace_size
    key_bits = keyspace.bit_length()
    s_cut = config.mix[0]
    u_cut = config.mix[0] + config.mix[1]
    ops = []
    for _ in range(config.ops_per_thread):
        roll = bits(7)
        while roll >= 100:
            roll = bits(7)
        key = bits(key_bits)
        while key >= keyspace:
            key = bits(key_bits)
        if roll < s_cut:
            ops.append(("search", key))
        elif roll < u_cut:
            value = bits(14)
            while value >= 10_000:
                value = bits(14)
            ops.append(("upsert", key, value))
        else:
            ops.append(("delete", key))
    return ops


class PauseGate:
    """Where the threads of a run meet, under one lock.

    The participants are the workers; the gate counts them from its
    construction, so a pause cannot miss one that has not started yet, and
    each deregisters when it ends. A participant parks at the gate between
    operations (wait_if_paused), and also while it waits for a maintenance
    pass holding no node lock (await_pass). pause() returns once every
    participant still running is parked, which is what makes a checkpoint
    quiescent without touching any node lock, and nobody leaves the gate
    until resume().

    The thread that called run_stress is not a participant. It waits in
    next_job() for the next thing to do: a checkpoint, which a worker whose
    op reaches a mark asks for with request_pause(); a pass, which a writer
    that finds the root full asks for with await_pass() and stays parked
    for until pass_done(); or, in periodic mode, the end of the interval.
    One thread does both kinds of job, so a checkpoint never overlaps a
    pass.

    Participants wait on one condition and the calling thread on a second
    one over the same lock, so that neither side's wake-ups disturb the
    other. stop() lifts a pending pause, ignores later requests, lets
    writers that wait for a pass go with no pass run (the template then
    fails their writes) and makes workers end at their next wait_if_paused.
    """

    def __init__(self, participants: int):
        lock = threading.Lock()
        self._cond = threading.Condition(lock)  # participants wait here
        self._coordinator = threading.Condition(lock)
        self._pausing = False
        self._active = participants
        self._paused = 0
        self._requests = 0  # checkpoint marks reached and not yet taken
        self._pass_wanted = False
        self._passes = 0  # maintenance passes finished
        self._stopped = False

    def deregister(self) -> None:
        with self._cond:
            self._active -= 1
            self._coordinator.notify_all()

    def _park(self, ready: Callable[[], bool]) -> None:
        # Caller holds the condition and no node lock. Counts as parked until
        # ready() holds and no pause is pending.
        self._paused += 1
        if self._pausing:
            self._coordinator.notify_all()
        try:
            self._cond.wait_for(lambda: ready() and not self._pausing)
        finally:
            self._paused -= 1

    def wait_if_paused(self) -> bool:
        """Park while a pause is pending; False once the gate has stopped,
        which tells a worker to end its loop.

        The lock is taken only when a pause is pending. A pause requested
        just after the unlocked read is seen at the next call, one op later,
        and pause() waits until every participant has parked."""
        if self._pausing:
            with self._cond:
                if self._pausing:
                    self._park(lambda: True)
        return not self._stopped

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
        wait_if_paused and wake the calling thread. Ignored after stop(),
        when nobody takes checkpoints any more."""
        with self._cond:
            if self._stopped:
                return
            self._requests += 1
            self._pausing = True
            self._coordinator.notify_all()

    def next_job(self, interval: Optional[float]) -> Optional[str]:
        """The calling thread's next job: "checkpoint" when a mark was
        reached (first, as writers that want a pass are parked), "pass" when
        a writer wants one or interval (None: never) has passed, and None
        once every participant has ended."""
        with self._cond:
            self._coordinator.wait_for(
                lambda: self._requests or self._pass_wanted or not self._active,
                interval,
            )
            if self._requests:
                self._requests -= 1
                return "checkpoint"
            if not self._active:
                return None
            self._pass_wanted = False
            return "pass"

    def await_pass(self) -> None:
        """Ask for a maintenance pass and park until one ends or the gate stops."""
        with self._cond:
            seen = self._passes
            self._pass_wanted = True
            self._coordinator.notify_all()
            self._park(lambda: self._passes != seen or self._stopped)

    def pass_done(self) -> None:
        with self._cond:
            self._passes += 1
            self._cond.notify_all()

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._pausing = False
            self._cond.notify_all()


class _HeldList(list):
    """Node ids in acquisition order, and the lock taken last if it was
    taken as a second lock (None otherwise)."""

    __slots__ = ("second",)

    def __init__(self):
        super().__init__()
        self.second: Optional[NodeId] = None


class _HeldLocks(threading.local):
    """The node locks the current thread holds, in acquisition order."""

    def __init__(self):
        self.nodes = _HeldList()


class LockOrderLog:
    """The lock-order rule, checked as node locks are taken.

    A thread holds at most two node locks, and the second is a successor of
    the first: that is what compaction does (parent, then child), and it
    keeps concurrent compactions deadlock-free on a DAG. A lock taken as
    the second one is released without taking another: a merge step lets
    go of parent and child, while a lock-coupling search would keep the
    child and take the grandchild. Every acquisition that breaks the rule
    is appended to violations; the lock is still taken, so the run goes on
    and the report names them all.
    """

    def __init__(self, handles: Mapping[NodeId, NodeHandle]):
        # The structure's own node table, so nodes grown later are known.
        self._handles = handles
        self._held = _HeldLocks()
        self.violations: list[dict] = []
        self._lock = threading.Lock()

    def held(self) -> list[NodeId]:
        """The node locks the current thread holds, in acquisition order."""
        return self._held.nodes

    def check(self, held: _HeldList, nid: NodeId) -> None:
        """Log a violation if a thread already holding held (not empty)
        may not take nid."""
        if len(held) >= 2:
            bad = "more than two locks"
        elif held.second == held[0]:
            bad = "lock coupling: the held lock was taken as a second lock"
        elif nid not in self._handles[held[-1]].succ_edgesets:
            bad = "second lock is not a successor of the first"
        else:
            return
        with self._lock:
            self.violations.append(
                {
                    "thread": threading.current_thread().name,
                    "held": list(held),
                    "acquiring": nid,
                    "reason": bad,
                }
            )


class OrderCheckedLock:
    """A node lock that reports every acquisition to a LockOrderLog."""

    __slots__ = ("_nid", "_log", "_held", "_lock")

    def __init__(self, nid: NodeId, log: LockOrderLog):
        self._nid = nid
        self._log = log
        self._held = log._held
        self._lock = threading.Lock()

    def acquire(self) -> None:
        held = self._held.nodes
        if held:
            self._log.check(held, self._nid)
            held.second = self._nid
        else:
            held.second = None
        self._lock.acquire()
        held.append(self._nid)

    def release(self) -> None:
        self._held.nodes.remove(self._nid)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()


def check_lock_order(structure: MulticopyStructure) -> LockOrderLog:
    """Check the lock-order rule on structure from now on and return the log
    that collects its violations. Every node lock, and each one a grown node
    gets later, becomes an OrderCheckedLock. Call it at quiescence, with no
    node lock held."""
    log = LockOrderLog(structure._handles)
    structure.use_locks(lambda nid: OrderCheckedLock(nid, log))
    return log


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
            "lock_order_violation_count": len(self.lock_order_violations),
            "checkpoints": [c.to_json() for c in self.checkpoints],
            "linearization": None
            if self.linearization is None
            else self.linearization.to_json(),
            "history_predicates": None
            if self.history_predicates is None
            else self.history_predicates.to_json(),
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


@contextmanager
def _collector_paused():
    """Run the block with the cyclic garbage collector disabled, then enable
    it again if it was enabled before, also when the block raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _build_structure(config: WorkloadConfig):
    if config.structure == "lsm":
        return LsmStructure.create(
            config.keyspace_size, config.root_capacity, config.growth_factor
        )
    return DfStructure.create(config.keyspace_size, config.root_capacity)


def run_stress(config: WorkloadConfig, *, checked: bool = True) -> StressReport:
    """Execute one configured run; see module doc. The report carries the
    recorded trace and the final snapshot for the caller to write out. With
    checked=False no checker runs and nothing is recorded, so the report
    carries only the counts, the timing and the final snapshot."""
    config.validate()
    report = StressReport(config=config)
    structure = _build_structure(config)
    # Checked runs take order-checking node locks; unchecked ones keep the
    # plain locks, so their timings carry no instrument.
    lock_order = check_lock_order(structure) if checked else None
    gate = PauseGate(config.threads)
    mode, interval = _parse_maintenance(config.maintenance)

    if mode == "on-fail":
        def make_room():
            gate.wait_if_paused()
            structure.maintenance_pass()
    else:
        make_room = gate.await_pass

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
    tables = [(EventTable(SearchEvent), EventTable(UpsertEvent)) for _ in range(config.threads)]
    violations_per_thread: list[list] = [[] for _ in range(config.threads)]
    thread_errors: list[Exception] = []
    # A checkpoint is requested by the worker whose op completes a mark;
    # marks at or past the last op are left to the final checkpoint.
    step = config.checkpoint_every * config.threads if checked else 0
    total = config.threads * config.ops_per_thread
    completed = itertools.count(1)

    def worker(tid: int) -> None:
        searches, upserts = tables[tid]
        s_thread, s_key, s_value, s_t0, s_tp, s_snap, s_inv, s_resp = searches.appenders()
        u_thread, u_key, u_value, u_ts, u_inv, u_resp = upserts.appenders()
        violations = violations_per_thread[tid]
        try:
            for i, op in enumerate(generate_ops(config, tid)):
                if not gate.wait_if_paused():
                    break
                if op[0] == "search":
                    key = op[1]
                    inv = next(seq)
                    probe = structure.search_timed(key)
                    resp = next(seq)
                    if checked:
                        rec = structure.history.check_search_recency(
                            key, probe.value, probe.ts, probe.snap
                        )
                        if rec.reason is not None:
                            violations.append(rec.to_dict())
                        s_thread(tid)
                        s_key(key)
                        s_value(probe.value)
                        s_t0(rec.t0)
                        s_tp(probe.ts)
                        s_snap(probe.snap)
                        s_inv(inv)
                        s_resp(resp)
                else:
                    key = op[1]
                    value = TOMBSTONE if op[0] == "delete" else op[2]
                    inv = next(seq)
                    ts = structure.upsert_timed(key, value)
                    resp = next(seq)
                    if checked:
                        u_thread(tid)
                        u_key(key)
                        u_value(value)
                        u_ts(ts)
                        u_inv(inv)
                        u_resp(resp)
                done[tid] = i + 1
                if step:
                    n = next(completed)
                    if n % step == 0 and n < total:
                        gate.request_pause()
        except Exception as e:  # run_stress raises the first one after join
            thread_errors.append(e)
        finally:
            gate.deregister()

    threads = [
        threading.Thread(target=worker, args=(tid,), name=f"worker-{tid}")
        for tid in range(config.threads)
    ]

    prev_graph: Optional[MulticopyGraph] = None

    def take_checkpoint(quiesce: bool) -> None:
        nonlocal prev_graph
        if quiesce:
            gate.pause()
        try:
            g = structure.snapshot_graph()
            with _collector_paused():
                inv = check_invariants(g, structure.history, structure.clock)
                # inv2 reuses the reach maps just built; the record keeps none.
                reach, inv.reach = inv.reach, None
                mono = (None if prev_graph is None
                        else check_inv2_monotone(prev_graph, g, reach_next=reach))
            report.checkpoints.append(
                CheckpointRecord(ops_done=sum(done), invariants=inv, monotone=mono)
            )
            prev_graph = g
        finally:
            if quiesce:
                gate.resume()

    started = time.monotonic()
    for t in threads:
        t.start()
    try:
        while job := gate.next_job(interval):
            if job == "checkpoint":
                take_checkpoint(quiesce=True)
            else:
                structure.maintenance_pass()
                gate.pass_done()
    finally:
        # Only a job that raised gets here with workers left: each ends at
        # its next wait_if_paused, and a writer that waits for room fails.
        gate.stop()
        for t in threads:
            t.join()
    report.duration_s = time.monotonic() - started

    if thread_errors:
        raise thread_errors[0]

    report.total_ops = sum(done)
    report.final_nodes = len(structure.node_ids())

    if checked:
        report.lock_order_violations = list(lock_order.violations)
        take_checkpoint(quiesce=False)
        for v in violations_per_thread:
            report.recency_violations.extend(v)
        trace = Trace.from_workers(config.keyspace_size, tables)
        report.trace = trace
        report.search_count, report.upsert_count = len(trace.search_table), len(trace.upsert_table)
        with _collector_paused():
            report.linearization = linearize(trace)
        report.history_predicates = structure.history.verify_predicates(structure.clock)

    # A checked run reuses the final checkpoint's copy: nothing has changed
    # the structure since.
    report.snapshot = prev_graph if checked else structure.snapshot_graph()
    return report


def check_files(snapshot_path: str, trace_path: str) -> tuple[bool, dict]:
    """Offline verification of a written snapshot/trace pair.

    The history is rebuilt from the trace's upserts, so the snapshot's
    stored copies must be justified by the trace and the trace itself must
    linearize. Returns (ok, json-able report)."""
    out: dict = {"snapshot": snapshot_path, "trace": trace_path}
    g = load_graph(snapshot_path)
    trace = Trace.load(trace_path)
    # Inv1 compares only keys inside the snapshot's keyspace, so it would
    # miss a write to any key past it; check_invariants raises on a
    # narrower one.
    if trace.keyspace_size != g.keyspace_size:
        out["ok"] = False
        out["error"] = (
            f"trace keyspace {trace.keyspace_size} is "
            f"{'wider' if trace.keyspace_size > g.keyspace_size else 'narrower'}"
            f" than the snapshot keyspace {g.keyspace_size}"
        )
        return False, out
    try:
        h, clock = trace.rebuild_history()
    except HistoryCorruptionError as e:
        out["ok"] = False
        out["error"] = f"trace does not form a valid history: {e}"
        return False, out
    with _collector_paused():
        inv = check_invariants(g, h, clock)
        lin = linearize(trace)
    preds = h.verify_predicates(clock)
    out["invariants"] = inv.to_json()
    out["linearization"] = lin.to_json()
    out["history_predicates"] = preds.to_json()
    ok = inv.ok and lin.ok and preds.ok
    out["ok"] = ok
    return ok, out
