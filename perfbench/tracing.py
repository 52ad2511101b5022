"""Span tracing around calls into multicopy's public functions and methods.

The package itself is not edited. `instrument` replaces each traced callable
where its callers look it up (on the defining class, or in the module that
imported the name) and `Patches.restore` puts the originals back. A span is
recorded per call: name, start, end, thread and parent. Spans stay in memory
until the run ends, then `Tracer.dump` writes them out as JSON lines.

Busy and self times are wall-clock, so they include time a thread spent
waiting for the interpreter lock.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter
from typing import Callable, Optional

from stats import LayerTotals, Span, totals_by_name

GIL_NOTE = "busy and self times are wall-clock and include time spent waiting for the GIL"


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        # vars() rather than getattr: patch only where the name is defined,
        # so restoring never leaves a shadowing attribute on a subclass.
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


class Tracer:
    """In-memory span recorder with per-thread span stacks and counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.patches = Patches()
        # Parent for spans opened on a thread that has no open span of its
        # own, e.g. harness workers started inside a traced run_stress call.
        self.anchor: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: list[Counter] = []

    def thread_state(self) -> tuple[list[tuple[int, str]], Counter]:
        try:
            return self._local.state
        except AttributeError:
            state: tuple[list[tuple[int, str]], Counter] = ([], Counter())
            self._counters.append(state[1])
            self._local.state = state
            return state

    def reset(self) -> None:
        """Forget recorded spans and counts, e.g. between rounds."""
        self.spans.clear()
        for c in self._counters:
            c.clear()

    def counts(self) -> Counter:
        total: Counter = Counter()
        for c in self._counters:
            total.update(c)
        return total

    def wrap(
        self,
        name: str,
        fn: Callable,
        items: Optional[Callable[[tuple, object], int]] = None,
        anchor: bool = False,
    ) -> Callable:
        """fn with a span around every call; items(args, result) sizes the
        work. With anchor=True the span also adopts, for its duration, the
        spans of threads that have none open."""
        ids, spans, clock = self._ids, self.spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            stack, _ = self.thread_state()
            parent = stack[-1][0] if stack else self.anchor
            sid = next(ids)
            stack.append((sid, name))
            if anchor:
                self.anchor = sid
            n = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if items is not None:
                    n = items(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                if anchor:
                    self.anchor = parent
                spans.append(
                    Span(sid, name, start, end, threading.get_ident(), parent, n)
                )

        return traced

    def dump(self, path: str) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w") as f:
            f.write(json.dumps({"fields": Span._fields, "note": GIL_NOTE}) + "\n")
            for s in self.spans:
                f.write(json.dumps(s, separators=(",", ":")) + "\n")


def instrument(tracer: Tracer) -> None:
    """Trace every layer the benchmark reports on; undo with patches.restore()."""
    from multicopy import checker, df, harness, history, lsm, nodes

    p = tracer.patches

    def span(owner, attr, name, items=None):
        # owner is the class defining the method, or the module whose
        # global the callers look the function up in.
        p.set(owner, attr, tracer.wrap(name, vars(owner)[attr], items))

    moved = lambda args, result: len(result)  # noqa: E731
    span(lsm.MulticopyStructure, "search_timed", "lsm.search")
    span(lsm.MulticopyStructure, "upsert_timed", "lsm.upsert")
    span(lsm.MulticopyStructure, "compact", "lsm.compact")
    span(lsm.MulticopyStructure, "snapshot_graph", "lsm.snapshot_graph")
    span(df.DfStructure, "flush", "df.flush")
    span(lsm, "merge_contents", "nodes.merge", moved)
    span(df, "merge_contents", "nodes.merge", moved)
    span(history.UpsertHistory, "record_upsert", "history.record_upsert")
    span(history.UpsertHistory, "check_search_recency", "history.check_search_recency")
    span(checker, "reach_maps", "graph.reach_maps")
    span(checker, "compute_flow", "graph.compute_flow")
    span(checker, "inset_map", "graph.inset_map")
    span(harness, "check_invariants", "checker.check_invariants")
    span(harness, "check_inv2_monotone", "checker.check_inv2_monotone")
    span(
        harness, "linearize", "checker.linearize", lambda args, result: len(args[0].events)
    )
    span(harness, "generate_ops", "harness.generate_ops")
    span(harness.PauseGate, "pause", "harness.pause")
    span(harness.PauseGate, "resume", "harness.resume")

    # Counters rather than spans: these calls are too small and too many to
    # time one by one without swamping what they sit inside.
    in_contents = vars(nodes.NodeHandle)["in_contents"]
    add_contents = vars(nodes.NodeHandle)["add_contents"]
    alloc_node = lsm.alloc_node

    def counted_in_contents(self, key):
        stack, counts = tracer.thread_state()
        if stack and stack[-1][1] == "lsm.search":
            counts["lsm.search.hops"] += 1
        return in_contents(self, key)

    def counted_add_contents(self, key, value, ts):
        ok = add_contents(self, key, value, ts)
        counts = tracer.thread_state()[1]
        counts["root.add"] += 1
        if not ok:
            counts["root.full"] += 1
        return ok

    def counted_alloc_node(capacity):
        tracer.thread_state()[1]["lsm.alloc_node"] += 1
        return alloc_node(capacity)

    p.set(nodes.NodeHandle, "in_contents", counted_in_contents)
    p.set(nodes.NodeHandle, "add_contents", counted_add_contents)
    p.set(lsm, "alloc_node", counted_alloc_node)


# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("traced.ops_per_s", "ops/s", "higher"),
    ("lsm.search.calls", "count", "lower"),
    ("lsm.search.self_s", "s", "lower"),
    ("lsm.search.hops_mean", "count", "lower"),
    ("lsm.upsert.calls", "count", "lower"),
    ("lsm.upsert.self_s", "s", "lower"),
    ("lsm.upsert.root_full_frac", "fraction", "lower"),
    ("lsm.compact.calls", "count", "lower"),
    ("lsm.compact.self_s", "s", "lower"),
    ("lsm.compact.nodes_allocated", "count", "lower"),
    ("lsm.snapshot_graph.busy_s", "s", "lower"),
    ("df.flush.calls", "count", "lower"),
    ("df.flush.self_s", "s", "lower"),
    ("nodes.merge.calls", "count", "lower"),
    ("nodes.merge.busy_s", "s", "lower"),
    ("nodes.merge.records_moved", "count", "lower"),
    ("nodes.merge.us_per_record", "us", "lower"),
    ("nodes.merge.records_per_upsert", "count", "lower"),
    ("history.record_upsert.busy_s", "s", "lower"),
    ("history.check_search_recency.calls", "count", "lower"),
    ("history.check_search_recency.busy_s", "s", "lower"),
    ("history.entries_at_end", "count", "lower"),
    ("graph.reach_maps.busy_s", "s", "lower"),
    ("graph.compute_flow.busy_s", "s", "lower"),
    ("graph.inset_map.busy_s", "s", "lower"),
    ("checker.check_invariants.calls", "count", "lower"),
    ("checker.check_invariants.self_s", "s", "lower"),
    ("checker.check_inv2_monotone.busy_s", "s", "lower"),
    ("checker.linearize.busy_s", "s", "lower"),
    ("checker.linearize.us_per_event", "us", "lower"),
    ("harness.run_stress.self_s", "s", "lower"),
    ("harness.checkpoint_pause_ms", "ms", "lower"),
    ("harness.generate_ops.busy_s", "s", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_figures(tracer: Tracer, history_entries: int) -> dict[str, float]:
    """Per-layer figures of one traced round, every LAYER_METRICS name but
    traced.ops_per_s; layers the workload does not exercise read 0."""
    t = totals_by_name(tracer.spans)
    c = tracer.counts()
    zero = LayerTotals(0, 0, 0, 0)
    get = lambda name: t.get(name, zero)  # noqa: E731
    s, u, comp, merge = get("lsm.search"), get("lsm.upsert"), get("lsm.compact"), get("nodes.merge")
    lin = get("checker.linearize")
    pauses = sorted(x.start_ns for x in tracer.spans if x.name == "harness.pause")
    resumes = sorted(x.start_ns for x in tracer.spans if x.name == "harness.resume")
    stalls = [r - p for p, r in zip(pauses, resumes)]
    sec = 1e-9
    return {
        "lsm.search.calls": s.calls,
        "lsm.search.self_s": s.self_ns * sec,
        "lsm.search.hops_mean": _ratio(c["lsm.search.hops"], s.calls),
        "lsm.upsert.calls": u.calls,
        "lsm.upsert.self_s": u.self_ns * sec,
        "lsm.upsert.root_full_frac": _ratio(c["root.full"], c["root.add"]),
        "lsm.compact.calls": comp.calls,
        "lsm.compact.self_s": comp.self_ns * sec,
        "lsm.compact.nodes_allocated": c["lsm.alloc_node"],
        "lsm.snapshot_graph.busy_s": get("lsm.snapshot_graph").busy_ns * sec,
        "df.flush.calls": get("df.flush").calls,
        "df.flush.self_s": get("df.flush").self_ns * sec,
        "nodes.merge.calls": merge.calls,
        "nodes.merge.busy_s": merge.busy_ns * sec,
        "nodes.merge.records_moved": merge.items,
        "nodes.merge.us_per_record": _ratio(merge.busy_ns / 1e3, merge.items),
        "nodes.merge.records_per_upsert": _ratio(merge.items, u.calls),
        "history.record_upsert.busy_s": get("history.record_upsert").busy_ns * sec,
        "history.check_search_recency.calls": get("history.check_search_recency").calls,
        "history.check_search_recency.busy_s": get("history.check_search_recency").busy_ns * sec,
        "history.entries_at_end": history_entries,
        "graph.reach_maps.busy_s": get("graph.reach_maps").busy_ns * sec,
        "graph.compute_flow.busy_s": get("graph.compute_flow").busy_ns * sec,
        "graph.inset_map.busy_s": get("graph.inset_map").busy_ns * sec,
        "checker.check_invariants.calls": get("checker.check_invariants").calls,
        "checker.check_invariants.self_s": get("checker.check_invariants").self_ns * sec,
        "checker.check_inv2_monotone.busy_s": get("checker.check_inv2_monotone").busy_ns * sec,
        "checker.linearize.busy_s": lin.busy_ns * sec,
        "checker.linearize.us_per_event": _ratio(lin.busy_ns / 1e3, lin.items),
        "harness.run_stress.self_s": get("harness.run_stress").self_ns * sec,
        "harness.checkpoint_pause_ms": _ratio(sum(stalls) / 1e6, len(stalls)),
        "harness.generate_ops.busy_s": get("harness.generate_ops").busy_ns * sec,
    }
