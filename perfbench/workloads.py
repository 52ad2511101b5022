"""The benchmark's three workloads, their timed phases and output checks.

Every workload runs in rounds. A round sets up from scratch (op lists,
structure, prefill), runs its ops in the timed phase, then checks the
outputs outside the timing. Rounds repeat until the run has lasted the
requested seconds, set-up and checks included, and at least MIN_ROUNDS
times; rounds are kept short so that a run holds many of them. Each round
is pinned to whichever CPU is fastest when it starts (see fastest_cpu). All
rounds of a run replay the same ops, so the history and memory a round
builds are the same size however fast the code is. A traced run is the same
run with the tracer installed around each timed phase.

How rounds become one figure. On a shared host the machine's speed drifts
by tens of percent from one second to the next, which no code change
causes. A single-client round is an exact replay: same ops, same structure
states, same compactions at the same ops. So for lsm-ingest and df-read
each op's latency, and each window of WINDOW ops' wall time, is the least
over the replays; interference only adds time, and a compaction stall that
every replay hits stays in. Percentiles and ops/s are taken from those
minima. lsm-checked replays the same worker ops too, though its flusher
thread races the worker, so structure states differ a little between
rounds. Its figures come from minima over the rounds the same way; its
throughput windows are cut every CHECKED_WINDOW worker ops and around each
checker call the harness makes, so every round has the same windows and
each checkpoint stays in the window of its own. Setup time is a median
over rounds, and per-layer figures of a traced run are medians too.

Why these workloads:
  lsm-ingest   the write path: keyspace 256x the root buffer, 1 closed-loop
               client, 90% upserts from an empty start, on-fail maintenance,
               so the writer that finds the root full compacts. No checker.
  df-read      the shared search path: every key prefilled, 90% searches.
               The same node and merge layers in reverse, and the only user
               of the df module. No checker.
  lsm-checked  what a `multicopy stress` user waits for: run_stress with all
               checking on, 1 worker beside the periodic flusher thread.
There is deliberately no workload with two foreground clients: on a 2-core
CPython box with the GIL, identical 2-client closed loops ran at
43k-82k ops/s (df, 16k keys) and 24k-39k ops/s (lsm, 16k keys). The GIL
hand-off makes such runs bimodal, so they cannot gate a change.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import random
import resource
import statistics
import time
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from multicopy import (
    TOMBSTONE,
    DfStructure,
    LsmStructure,
    MulticopyError,
    MulticopyGraph,
    WorkloadConfig,
    check_invariants,
    run_stress,
)
from multicopy import harness, lsm

from stats import percentile
from tracing import LAYER_METRICS, Patches, Tracer, instrument, layer_figures

MIN_ROUNDS = 3
WINDOW = 1024  # ops per throughput window; a power of two
# Throughput window of lsm-checked, in worker ops. It divides the checkpoint
# interval, so each checkpoint falls in the window that starts at its mark
# in every round (the harness takes it a few ops after the mark).
CHECKED_WINDOW = 1000
SEARCH, UPSERT, DELETE = 0, 1, 2


@dataclass(frozen=True)
class ClientLoop:
    """One closed-loop client calling the structure's public API directly."""

    name: str
    structure: str  # lsm | df
    keyspace: int
    root_capacity: int
    mix: tuple[int, int, int]  # search / upsert / delete percent
    ops_per_round: int
    prefill: bool


@dataclass(frozen=True)
class Checked:
    """run_stress with all checking on; one call per round."""

    name: str
    config: WorkloadConfig


WORKLOADS = {
    w.name: w
    for w in [
        ClientLoop("lsm-ingest", "lsm", 65536, 256, (5, 90, 5), 25_000, prefill=False),
        ClientLoop("df-read", "df", 16384, 256, (90, 8, 2), 50_000, prefill=True),
        Checked(
            "lsm-checked",
            WorkloadConfig(
                keyspace_size=4096,
                threads=1,
                # Not a multiple of checkpoint_every, so that every round
                # takes the same checkpoints: none races the worker's end.
                ops_per_thread=19_500,
                mix=(70, 25, 5),
                structure="lsm",
                root_capacity=64,
                growth_factor=2,
                maintenance="periodic:2",
                checkpoint_every=4_000,
            ),
        ),
    ]
}

# (name, unit) of every end-to-end metric, in report order. search_p99_us
# and upsert_p999_us are printed but not among them: on a shared host they
# moved more than the largest bound between runs of the same code
# (search_p99_us on lsm-ingest rests on ~12 searches per round;
# upsert_p999_us sits on df-read's flush stalls, which copy the table).
END_TO_END = [
    ("ops_per_s", "ops/s"),
    ("search_p50_us", "us"),
    ("upsert_p50_us", "us"),
    ("upsert_p99_us", "us"),
    ("setup_s", "s"),
    ("space_amp", "ratio"),
    ("rss_peak_mb", "MB"),
]
LATENCIES = [("search", (50, 99)), ("upsert", (50, 99, 99.9))]


@dataclass
class Outcome:
    """What one run measured: metric name -> (value, unit), plus notes."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


@dataclass
class Ops:
    kinds: bytearray
    keys: array
    values: array

    def __len__(self) -> int:
        return len(self.kinds)


def generate_ops(seed: str, n: int, keyspace: int, mix: tuple[int, int, int]) -> Ops:
    """n uniform-key ops drawn from the seed; values only matter for upserts."""
    rng = random.Random(seed)
    kinds = bytearray(n)
    keys = array("q", bytes(8 * n))
    values = array("q", bytes(8 * n))
    s_cut, u_cut = mix[0], mix[0] + mix[1]
    for i in range(n):
        roll = rng.randrange(100)
        keys[i] = rng.randrange(keyspace)
        if roll >= u_cut:
            kinds[i] = DELETE
        elif roll >= s_cut:
            kinds[i] = UPSERT
            values[i] = rng.randrange(1 << 30)
    return Ops(kinds, keys, values)


def newest_copies(g: MulticopyGraph) -> tuple[dict, int]:
    """Newest stored copy of each key across all nodes, and the record count."""
    newest: dict = {}
    records = 0
    for contents in g.contents.values():
        records += len(contents)
        for k, tv in contents.items():
            cur = newest.get(k)
            if cur is None or tv.ts > cur.ts:
                newest[k] = tv
    return newest, records


def space_amp(g: MulticopyGraph) -> float:
    """Records stored in all nodes per distinct live (not deleted) key."""
    newest, records = newest_copies(g)
    live = sum(1 for tv in newest.values() if tv.value is not TOMBSTONE)
    return records / live


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def latency_figures(search_ns: array, upsert_ns: array) -> tuple[dict[str, float], str]:
    """Nearest-rank latency percentiles in microseconds, and a note of how
    many samples lie above each."""
    figures: dict[str, float] = {}
    tails = []
    for (label, ps), sample in zip(LATENCIES, (search_ns, upsert_ns)):
        ordered = sorted(sample)
        for p in ps:
            name = f"{label}_p{str(p).replace('.', '')}_us"
            v = percentile(ordered, p)
            figures[name] = v / 1e3
            tails.append(f"{name} {len(ordered) - bisect_right(ordered, v)}")
    return figures, "samples above each percentile: " + ", ".join(tails)


@dataclass
class Rounds:
    """What the rounds of one run add up to."""

    out: Outcome = field(default_factory=Outcome)
    setup_s: list[float] = field(default_factory=list)
    # Per-layer figures of each round of a traced run; their medians are reported.
    per_round: dict[str, list[float]] = field(default_factory=dict)
    # Element-wise least of each sample over rounds that replay the same ops.
    minima: dict[str, array] = field(default_factory=dict)
    timed_s: float = 0.0
    rss_mb: float = 0.0
    # (outputs, oracle after the ops, failures) of the last fully checked round.
    reference: Optional[tuple] = None

    def add(self, ops: int, elapsed: float, setup_s: float) -> None:
        self.out.attempted += ops
        self.timed_s += elapsed
        self.setup_s.append(setup_s)
        self.rss_mb = rss_peak_mb()

    def record(self, figures: dict[str, float]) -> None:
        for name, v in figures.items():
            self.per_round.setdefault(name, []).append(v)

    def keep_minima(self, **samples: array) -> None:
        for name, sample in samples.items():
            best = self.minima.get(name)
            if best is not None and len(best) != len(sample):
                raise ValueError(f"{name}: rounds differ in length ({len(best)}, {len(sample)})")
            self.minima[name] = sample if best is None else array("q", map(min, best, sample))

    def medians(self) -> dict[str, float]:
        return {name: statistics.median(v) for name, v in self.per_round.items()}


def _probe() -> int:
    """Nanoseconds for a fixed bit of dict-and-integer work."""
    t0 = time.perf_counter_ns()
    d: dict = {}
    for i in range(4000):
        d[i & 255] = d.get(i & 255, 0) + i
    return time.perf_counter_ns() - t0


def fastest_cpu(cpus: set[int]) -> int:
    """The CPU on which the probe ran fastest just now.

    On a shared host a CPU's speed drops by up to half while a neighbour
    keeps its other hardware thread busy, often for a minute or more, and
    the two CPUs of this process seldom slow down at once. Each round runs
    on the CPU that is quicker when the round starts, so a run does not
    stay on a slowed CPU for its whole length.
    """
    best_cpu, best_ns = -1, 0
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        ns = min(_probe() for _ in range(5))
        if best_cpu < 0 or ns < best_ns:
            best_cpu, best_ns = cpu, ns
    return best_cpu


def _repeat(one_round: Callable[[Rounds], object], seconds: float):
    """Run rounds until the run has lasted the given seconds, set-up and
    checks included; returns the totals and the last round's state."""
    r = Rounds()
    last = None
    n = 0
    # Pinning needs Linux and more than one CPU; elsewhere rounds run unpinned.
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    on_cpu: Counter = Counter()
    started = time.perf_counter()
    try:
        while n < MIN_ROUNDS or time.perf_counter() - started < seconds:
            last = None  # free the previous round before the next one sets up
            gc.collect()
            if len(cpus) > 1:
                cpu = fastest_cpu(cpus)
                os.sched_setaffinity(0, {cpu})
                on_cpu[cpu] += 1
            last = one_round(r)
            n += 1
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)
    r.out.notes.append(f"{n} rounds, {r.out.attempted} ops, {r.timed_s:.2f} s timed")
    if on_cpu:
        r.out.notes.append("rounds per CPU: " + ", ".join(
            f"cpu{c} {k}" for c, k in sorted(on_cpu.items())))
    return r, last


def _metrics(
    r: Rounds, ops_per_s: float, latencies: dict[str, float], g: MulticopyGraph,
    tracer: Optional[Tracer],
) -> dict[str, tuple[float, str]]:
    if tracer is not None:
        r.out.notes.append("per-layer figures are for one round, median over rounds")
        values = {"traced.ops_per_s": ops_per_s, **r.medians()}
        return {name: (values[name], unit) for name, unit, _ in LAYER_METRICS}
    values = {
        "ops_per_s": ops_per_s,
        **latencies,
        "setup_s": statistics.median(r.setup_s),
        "space_amp": space_amp(g),
        "rss_peak_mb": r.rss_mb,
    }
    gated = dict(END_TO_END)
    for name, v in latencies.items():
        if name not in gated:
            r.out.notes.append(f"not gated: {name} {v:.3f} us")
    return {name: (values[name], unit) for name, unit in END_TO_END}


# --- single-client workloads ------------------------------------------------


def _setup_client(w: ClientLoop, seed: int):
    ops = generate_ops(f"{w.name}:{seed}", w.ops_per_round, w.keyspace, w.mix)
    if w.structure == "lsm":
        s = LsmStructure.create(w.keyspace, w.root_capacity, 2)
    else:
        s = DfStructure.create(w.keyspace, w.root_capacity)
    oracle: dict = {}
    if w.prefill:
        rng = random.Random(f"{w.name}:{seed}:prefill")
        order = list(range(w.keyspace))
        rng.shuffle(order)
        for k in order:
            v = rng.randrange(1 << 30)
            s.upsert(k, v)
            oracle[k] = v
        s.maintenance_pass()
    return ops, s, oracle


def _timed_ops(s, ops: Ops, search_ns: array, upsert_ns: array, window_ns: array):
    """The timed phase: each op timed alone, in a closed loop."""
    search, upsert, delete = s.search_timed, s.upsert_timed, s.delete
    kinds, keys, values = ops.kinds, ops.keys, ops.values
    clock = time.perf_counter_ns
    # What each search returned, unpacked so the probe objects can be freed
    # and do not inflate the peak memory the run reports.
    n = len(ops)
    got = (array("q", bytes(8 * n)), array("q", bytes(8 * n)), [None] * n)
    got_ts, got_snap, got_value = got
    raised: list[int] = []
    mask = WINDOW - 1
    started = window = clock()
    for i in range(n):
        if not i & mask and i:
            now = clock()
            window_ns.append(now - window)
            window = now
        kind = kinds[i]
        key = keys[i]
        try:
            if kind == SEARCH:
                t0 = clock()
                p = search(key)
                search_ns.append(clock() - t0)
                got_value[i], got_ts[i], got_snap[i] = p.value, p.ts, p.snap
            elif kind == UPSERT:
                t0 = clock()
                upsert(key, values[i])
                upsert_ns.append(clock() - t0)
            else:
                t0 = clock()
                delete(key)
                upsert_ns.append(clock() - t0)
        except MulticopyError:
            raised.append(i)
    ended = clock()
    window_ns.append(ended - window)
    return (ended - started) / 1e9, got, raised


def _check_client_round(s, ops: Ops, got: tuple, raised: list[int], oracle: dict) -> set[int]:
    """Op indices whose output is wrong: raised, stale by the history, or
    different from a plain dict fed the same ops. Updates oracle in place."""
    bad = set(raised)
    got_ts, got_snap, got_value = got
    recency = s.history.check_search_recency
    for i in range(len(ops)):
        if i in bad:
            continue
        key = ops.keys[i]
        kind = ops.kinds[i]
        if kind == SEARCH:
            value = got_value[i]
            if value != oracle.get(key, TOMBSTONE):
                bad.add(i)
            elif not recency(key, value, got_ts[i], got_snap[i]).ok:
                bad.add(i)
        elif kind == UPSERT:
            oracle[key] = ops.values[i]
        else:
            oracle[key] = TOMBSTONE
    return bad


def _final_checks(s, g: MulticopyGraph, oracle: dict, out: Outcome) -> int:
    """Whole-structure checks on the last round; returns failures found."""
    failures = 0
    wrong_keys = [
        k for k in range(s.keyspace_size) if s.search(k) != oracle.get(k, TOMBSTONE)
    ]
    if wrong_keys:
        out.notes.append(f"FAIL: {len(wrong_keys)} keys differ from the oracle, e.g. {wrong_keys[:5]}")
        failures += len(wrong_keys)
    report = check_invariants(g, s.history, s.clock)
    for e in report.failures():
        out.notes.append(f"FAIL: invariant {e.check_id}: {e.witnesses[:2]}")
        failures += 1
    return failures


def _client_round(w: ClientLoop, seed: int, tracer: Optional[Tracer], r: Rounds):
    t0 = time.perf_counter()
    ops, s, oracle = _setup_client(w, seed)
    setup_s = time.perf_counter() - t0
    gc.collect()
    search_ns, upsert_ns, window_ns = array("q"), array("q"), array("q")
    if tracer is not None:
        tracer.reset()
        instrument(tracer)
    try:
        elapsed, got, raised = _timed_ops(s, ops, search_ns, upsert_ns, window_ns)
        g = s.snapshot_graph()
    finally:
        if tracer is not None:
            tracer.patches.restore()
    r.add(len(ops), elapsed, setup_s)
    r.keep_minima(search_ns=search_ns, upsert_ns=upsert_ns, window_ns=window_ns)
    if tracer is not None:
        r.record(layer_figures(tracer, len(s.history)))
    # The checks are pure functions of the ops, the outputs and the history.
    # A round whose outputs and history equal the fully checked one's gets
    # the same verdict, so only rounds that differ are checked again.
    outputs = (got, raised, list(s.history.entries()))
    ref = r.reference
    if ref is not None and ref[0] == outputs:
        oracle, failed = ref[1], ref[2]
    else:
        bad = _check_client_round(s, ops, got, raised, oracle)
        failed = len(bad)
        if bad:
            r.out.notes.append(f"FAIL: {len(bad)} ops wrong, e.g. {sorted(bad)[:5]}")
        r.reference = (outputs, oracle, failed)
    r.out.failed += failed
    return s, g, oracle


def run_client_loop(w: ClientLoop, seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    r, (s, g, oracle) = _repeat(lambda r: _client_round(w, seed, tracer, r), seconds)
    r.out.failed += _final_checks(s, g, oracle, r.out)
    ops_per_s = w.ops_per_round / (sum(r.minima["window_ns"]) / 1e9)
    latencies: dict[str, float] = {}
    if tracer is None:
        latencies, note = latency_figures(r.minima["search_ns"], r.minima["upsert_ns"])
        r.out.notes.append(note)
    r.out.metrics = _metrics(r, ops_per_s, latencies, g, tracer)
    return r.out


# --- checked workload -------------------------------------------------------


def _timed_api(patches: Patches, search_ns: array, upsert_ns: array, marks: array) -> None:
    """Time each search and upsert call the lone harness worker makes. Note
    the clock as every CHECKED_WINDOW-th op returns, and as each checker
    call of the harness starts and returns."""
    cls = lsm.MulticopyStructure
    search_timed, upsert_timed = vars(cls)["search_timed"], vars(cls)["upsert_timed"]
    clock = time.perf_counter_ns
    done = [0]

    def timed_search(self, key):
        t0 = clock()
        probe = search_timed(self, key)
        t1 = clock()
        search_ns.append(t1 - t0)
        done[0] += 1
        if not done[0] % CHECKED_WINDOW:
            marks.append(t1)
        return probe

    def timed_upsert(self, key, value):
        t0 = clock()
        ts = upsert_timed(self, key, value)
        t1 = clock()
        upsert_ns.append(t1 - t0)
        done[0] += 1
        if not done[0] % CHECKED_WINDOW:
            marks.append(t1)
        return ts

    def marked(fn):
        def call(*args, **kwargs):
            marks.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append(clock())
        return call

    patches.set(cls, "search_timed", timed_search)
    patches.set(cls, "upsert_timed", timed_upsert)
    for name in ("check_invariants", "check_inv2_monotone", "linearize"):
        patches.set(harness, name, marked(vars(harness)[name]))


def _check_stress(report, ops: list[tuple], out: Outcome) -> int:
    """Failures in one run_stress round: the harness's own verdicts, plus the
    lone worker's trace against a plain dict fed the same ops."""
    failures = 0
    if not report.ok:
        failures += max(1, len(report.recency_violations))
        out.notes.append("FAIL: run_stress verdict: " + report.format_text().replace("\n", "; "))
    if report.total_ops != len(ops):
        failures += len(ops) - report.total_ops
        out.notes.append(f"FAIL: {report.total_ops} of {len(ops)} ops completed")
    oracle: dict = {}
    wrong = 0
    for op, ev in zip(ops, report.trace.events):
        key = op[1]
        if op[0] == "search":
            wrong += ev.key != key or ev.value != oracle.get(key, TOMBSTONE)
        else:
            value = TOMBSTONE if op[0] == "delete" else op[2]
            wrong += ev.key != key or ev.value != value
            oracle[key] = value
    newest, _ = newest_copies(report.snapshot)
    wrong_keys = sum(
        1
        for k in range(report.config.keyspace_size)
        if (newest[k].value if k in newest else TOMBSTONE) != oracle.get(k, TOMBSTONE)
    )
    if wrong or wrong_keys:
        out.notes.append(f"FAIL: {wrong} ops and {wrong_keys} final keys differ from the oracle")
    return failures + wrong + wrong_keys


def _checked_round(w: Checked, seed: int, tracer: Optional[Tracer], r: Rounds):
    t0 = time.perf_counter()
    config = dataclasses.replace(w.config, seed=seed)
    ops = harness.generate_ops(config, 0)
    setup_s = time.perf_counter() - t0
    gc.collect()
    search_ns, upsert_ns, marks = array("q"), array("q"), array("q")
    patches = Patches()
    if tracer is not None:
        tracer.reset()
        instrument(tracer)
    # After instrument, so a traced run pays for both wrappers.
    _timed_api(patches, search_ns, upsert_ns, marks)
    report = None
    clock = time.perf_counter_ns
    started = clock()
    try:
        if tracer is not None:
            report = tracer.wrap("harness.run_stress", run_stress, anchor=True)(config)
        else:
            report = run_stress(config)
    except MulticopyError as e:
        r.out.notes.append(f"FAIL: run_stress raised {e!r}")
        r.out.failed += len(ops)
    finally:
        ended = clock()
        patches.restore()
        if tracer is not None:
            tracer.patches.restore()
    elapsed = (ended - started) / 1e9
    r.add(len(ops), elapsed, setup_s)
    if report is None:
        return None
    failed = _check_stress(report, ops, r.out)
    r.out.failed += failed
    if tracer is not None:
        r.record(layer_figures(tracer, report.upsert_count))
    if not failed:
        # The marks cut the call into windows: every CHECKED_WINDOW ops, and
        # around each checker call, so that no long call is timed inside a
        # window of ops. The first window also holds the structure's build
        # and thread start, the last the rest of the verdict.
        bounds = sorted([started, *marks, ended])
        window_ns = array("q", (b - a for a, b in zip(bounds, bounds[1:])))
        expected = r.minima.get("window_ns")
        if expected is None or len(expected) == len(window_ns):
            r.keep_minima(search_ns=search_ns, upsert_ns=upsert_ns, window_ns=window_ns)
        else:
            r.out.notes.append(
                f"round left out of the minima: {len(window_ns)} windows, not {len(expected)}")
    return report


def run_checked(w: Checked, seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    if w.config.checkpoint_every % CHECKED_WINDOW:
        raise ValueError("checkpoint_every must be a multiple of CHECKED_WINDOW")
    r, report = _repeat(lambda r: _checked_round(w, seed, tracer, r), seconds)
    if report is None or not r.minima:
        return r.out
    ops_per_s = report.total_ops / (sum(r.minima["window_ns"]) / 1e9)
    latencies: dict[str, float] = {}
    if tracer is None:
        latencies, note = latency_figures(r.minima["search_ns"], r.minima["upsert_ns"])
        r.out.notes.append(note)
    r.out.metrics = _metrics(r, ops_per_s, latencies, report.snapshot, tracer)
    return r.out


def run(name: str, seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    w = WORKLOADS[name]
    if isinstance(w, ClientLoop):
        return run_client_loop(w, seed, seconds, tracer)
    return run_checked(w, seed, seconds, tracer)
