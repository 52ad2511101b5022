"""Offline verification: snapshot invariants and trace linearizability.

check_invariants runs CHECKS, one table of named structural, history and flow
checks, each a function of one quiescent snapshot's views (reach, insets, both
flows, local views) built once per call. It reports every check, pass or fail,
each failure with a concrete witness. Where a property has two independent
formulations (the recursive reach versus the per-node local view backed by
flows, or the set-propagated inset versus the inset flow's support), both are
computed and compared; agreement is a check in its own right, so a bug in
either side shows up instead of hiding.

linearize reconstructs a sequential order for a concurrent trace. Upserts go
in timestamp order, which is their commit order. A search that returned the
newest copy known at its invocation sits at its invocation point (after the
upserts its history snapshot had seen); a search that was overtaken by a
newer upsert sits immediately after the upsert whose timestamp it returned.
The candidate order is then validated from scratch: it must embed the
real-time precedence of the trace, and replaying it through a plain map must
reproduce every returned value. Failures carry the first offending event.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations, compress, count, islice, repeat
from operator import eq, gt
from typing import Optional

from .core import INITIAL, TOMBSTONE, MulticopyError, Timestamp, encode_value
from .graph import (
    MulticopyGraph,
    compute_flow,
    flow_residuals,
    inset_map,
    local_reach,
    predecessors,
    reach_maps,
    structural_issues,
)
from .history import EventView, Trace, UpsertHistory

WITNESS_CAP = 20


@dataclass
class CheckResult:
    check_id: str
    label: str
    passed: bool
    witnesses: list[dict] = field(default_factory=list)
    skipped: bool = False

    @property
    def ok(self) -> bool:
        return self.passed or self.skipped

    def to_json(self) -> dict:
        return {
            "check": self.check_id,
            "label": self.label,
            "passed": self.passed,
            "skipped": self.skipped,
            "witnesses": self.witnesses,
        }


@dataclass
class InvariantReport:
    entries: list[CheckResult] = field(default_factory=list)
    # The reach maps the checks read, for check_inv2_monotone to reuse; None
    # where the structure gate left them unbuilt. Not part of the report.
    reach: Optional[dict] = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[CheckResult]:
        return [e for e in self.entries if not e.ok]

    def entry(self, check_id: str) -> CheckResult:
        for e in self.entries:
            if e.check_id == check_id:
                return e
        raise KeyError(check_id)

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [e.to_json() for e in self.entries]}

    def format_text(self) -> str:
        lines = []
        for e in self.entries:
            status = "SKIP" if e.skipped else ("PASS" if e.passed else "FAIL")
            lines.append(f"[{status}] {e.check_id}: {e.label}")
            for w in e.witnesses[:3]:
                lines.append(f"         witness: {w}")
        lines.append("result: " + ("OK" if self.ok else "INVARIANT VIOLATIONS FOUND"))
        return "\n".join(lines)


def _cap(ws: list[dict]) -> list[dict]:
    return ws[:WITNESS_CAP]


class _NotEvaluated(Exception):
    """A check read a view that the structure gate left unbuilt."""


class _Views:
    """What the checks read of one snapshot, each view built once. Of a graph
    with a cycle or an invalid endpoint only the structural issues are built,
    so a check that reads any other view is not evaluated. `failed` collects
    the checks that ran and failed, for a check that rests on them."""

    def __init__(self, g: MulticopyGraph, h: UpsertHistory, clock: Timestamp):
        self.issues = structural_issues(g)
        self.failed: set[str] = set()
        if any(i["kind"] != "edgeset_overlap" for i in self.issues):
            return
        # A history narrower than the keyspace cannot tell the newest copy
        # of the keys past its end, so it is rejected.
        if g.keyspace_size > h.keyspace_size:
            raise MulticopyError(f"history keyspace {h.keyspace_size} is narrower than the "
                                 f"snapshot keyspace {g.keyspace_size}")
        self.g, self.h, self.clock = g, h, clock
        self.nodes = sorted(g.nodes)
        self.reach = reach_maps(g)
        self.insets = inset_map(g)
        self.flows = {kind: compute_flow(g, kind) for kind in ("cir", "inset")}
        self.local = {n: local_reach(g, n) for n in g.nodes}
        self.preds = predecessors(g)

    def __getattr__(self, name: str):
        raise _NotEvaluated(name)


# Whole-input tests, each one C-level set or dict operation. A check runs
# its witness loop only where its test fails, so a passing snapshot costs
# little, and a failing one gets the witnesses the loop has always built.


def _all_below(h: UpsertHistory, clock: Timestamp) -> bool:
    """Inv4 holds: every logged timestamp is below the clock. A timestamp is
    a log position plus one, so the newest is the log's length."""
    return len(h) < clock


def _flow_within_view(fl: Counter, view: dict) -> bool:
    """Condition 2 holds at a node: every copy flowing in is present and
    its local view holds that very copy."""
    return min(fl.values(), default=1) > 0 and fl.keys() <= view.items()


def _held_and_recorded(own: dict, sr: dict) -> set:
    """The keys condition 3 must compare: held and recorded by the node."""
    return own.keys() & sr.keys()


def _keys_within_flow(view: dict, fl: Counter) -> bool:
    """Condition 4 holds at a node: every key it can see flows in."""
    return min(fl.values(), default=1) > 0 and view.keys() <= fl.keys()


# Each check returns its witnesses in the order a walk over sorted nodes and keys
# finds them. It tests the stored copies first and sorts only its failures, so
# its cost follows the copies and succ_reach records, not the keyspace.


def _issues(*kinds: str):
    """A structural check: the issues of these kinds."""
    return lambda v: [i for i in v.issues if i["kind"] in kinds]


def _inv1_logical_matches_reach(v: _Views) -> list[dict]:
    """The logical map told by the history equals the root's reach. A key
    that neither holds is INITIAL on both sides, so only held keys are
    compared."""
    newest, root_reach, keyspace = v.h.newest_copies(), v.reach[v.g.root], v.g.keyspace_size
    ws = []
    for k in newest.keys() | root_reach.keys():
        if 0 <= k < keyspace:
            # A copy equals the plain (value, ts) tuple of its fields.
            logical, reached = newest.get(k, INITIAL), root_reach.get(k, INITIAL)
            if logical != reached:
                ws.append({"key": k, "history": [encode_value(logical[0]), logical[1]],
                           "reach": [encode_value(reached.value), reached.ts]})
    return sorted(ws, key=lambda w: w["key"])


def _inv3_contents_in_history(v: _Views) -> list[dict]:
    """No node invents copies that were never upserted."""
    ws, contains = [], v.h.contains
    for n in v.nodes:
        bad = [(k, tv) for k, tv in v.g.node_contents(n).items()
               if not contains(k, tv.value, tv.ts)]
        ws += ({"node": n, "key": k, "copy": [encode_value(tv.value), tv.ts]}
               for k, tv in sorted(bad))
    return ws


def _inv4_ts_below_clock(v: _Views) -> list[dict]:
    """The clock is ahead of everything logged."""
    if _all_below(v.h, v.clock):
        return []
    return [{"ts": t, "key": k, "clock": v.clock} for k, _, t in v.h.entries() if t >= v.clock]


def _inv6_downstream_older(v: _Views) -> list[dict]:
    """Along an edge owning k, the downstream reach is not newer than the
    upstream copy. This is what makes the first copy found correct."""
    ws = []
    for n, m, ks in sorted(v.g.edges()):
        cn, below = v.g.node_contents(n), v.reach[m]
        bad = [k for k in ks.intersection(cn) if below.get(k, INITIAL).ts > cn[k].ts]
        ws += ({"node": n, "succ": m, "key": k, "upstream_ts": cn[k].ts,
                "downstream_ts": below.get(k, INITIAL).ts} for k in sorted(bad))
    return ws


def _inv7_reach_within_inset(v: _Views) -> list[dict]:
    """A node only has reachable copies for keys that can arrive there."""
    ws = []
    for n in v.nodes:
        ws += ({"node": n, "key": k} for k in sorted(set(v.reach[n]) - v.insets[n]))
    return ws


def _inv8_pred_insets_disjoint(v: _Views) -> list[dict]:
    """When two edges into the same node own the same key, at most one of
    the two sources can actually be reached with that key."""
    ws = []
    for m in v.nodes:
        for a, b in combinations(sorted(v.preds[m]), 2):
            common = v.g.edgesets[a][m] & v.g.edgesets[b][m]
            bad = common & v.insets[a] & v.insets[b]
            ws += ({"node": m, "pred_a": a, "pred_b": b, "key": k} for k in sorted(bad))
    return ws


def _flow_local_edges(v: _Views) -> list[dict]:
    """Flow condition 1: every recorded handed-down key has an outgoing edge."""
    ws = []
    for n in v.nodes:
        unrouted = set(v.g.node_succ_reach(n)).difference(*v.g.successors(n).values())
        ws += ({"node": n, "key": k} for k in sorted(unrouted))
    return ws


def _flow_reach_agree(v: _Views) -> list[dict]:
    """Flow condition 2: whatever copy flows into n, n's local view agrees."""
    ws = []
    for n in v.nodes:
        fl, view = v.flows["cir"][n], v.local[n]
        if _flow_within_view(fl, view):
            continue
        bad = [(k, tv) for (k, tv), cnt in fl.items()
               if cnt > 0 and (got := view.get(k)) is not tv and got != tv]
        for k, tv in sorted(bad, key=lambda el: (el[0], el[1].ts)):
            got = view.get(k)
            ws.append({"node": n, "key": k, "flowed": [encode_value(tv.value), tv.ts],
                       "local": None if got is None else [encode_value(got.value), got.ts]})
    return ws


def _flow_time_order(v: _Views) -> list[dict]:
    """Flow condition 3: handing a copy down never advances its time. Where
    the node holds no copy of its own, the local view is the recorded copy
    itself, so only the keys it both holds and records can fail."""
    ws = []
    for n in v.nodes:
        view, sr = v.local[n], v.g.node_succ_reach(n)
        bad = [(k, sr[k].ts, mine.ts) for k in _held_and_recorded(v.g.node_contents(n), sr)
               if sr[k].ts > (mine := view.get(k, INITIAL)).ts]
        ws += ({"node": n, "key": k, "recorded_ts": t, "local_ts": mine_ts}
               for k, t, mine_ts in sorted(bad))
    return ws


def _flow_inset_cover(v: _Views) -> list[dict]:
    """Flow condition 4: keys a node can see must be able to arrive there."""
    ws = []
    for n in v.nodes:
        view, fl = v.local[n], v.flows["inset"][n]
        if not _keys_within_flow(view, fl):
            ws += ({"node": n, "key": k} for k in sorted([k for k in view if fl.get(k, 0) <= 0]))
    return ws


def _flow_inset_unique(v: _Views) -> list[dict]:
    """Flow condition 5: no key can arrive at a node along two routes."""
    ws = []
    for n in v.nodes:
        fl = v.flows["inset"][n]
        if max(fl.values(), default=0) > 1:
            ws += ({"node": n, "key": k, "multiplicity": cnt}
                   for k, cnt in sorted((k, c) for k, c in fl.items() if c > 1))
    return ws


def _residuals(v: _Views, kind: str) -> list[dict]:
    """The flow equation must hold exactly for the flow of this kind."""
    res = flow_residuals(v.g, kind, v.flows[kind])
    return [{"node": n, "residual": {repr(el): c for el, c in diff.items()}}
            for n, diff in sorted(res.items())]


def _floweqn_cir_residual(v: _Views) -> list[dict]:
    return _residuals(v, "cir")


def _floweqn_inset_residual(v: _Views) -> list[dict]:
    return _residuals(v, "inset")


def _inset_flow_matches_inset(v: _Views) -> list[dict]:
    """Cross-validation: the two inset formulations must agree exactly."""
    ws = []
    for n in v.nodes:
        fl, inset = v.flows["inset"][n], v.insets[n]
        if min(fl.values(), default=1) <= 0:
            fl = {k: c for k, c in fl.items() if c > 0}
        if fl.keys() != inset:
            ws.append({"node": n, "flow_only": sorted(fl.keys() - inset),
                       "set_only": sorted(inset - fl.keys())})
    return ws


# Why a check skips: a check it rests on failed.
_SKIP_REASON = "flow conditions 1/2 already failed"


def _local_vs_recursive_reach(v: _Views) -> Optional[list[dict]]:
    """Cross-validation: when conditions 1 and 2 hold everywhere, the local
    view must equal the recursive reach at every node, not just the root.
    None (skipped) where either failed."""
    if v.failed & {"flow_local_edges", "flow_reach_agree"}:
        return None
    ws = []
    for n in v.nodes:
        local, reach = v.local[n], v.reach[n]
        if local != reach:
            diff_keys = sorted(k for k in local.keys() | reach.keys()
                               if local.get(k) != reach.get(k))
            ws.append({"node": n, "keys": diff_keys[:10]})
    return ws


# Every entry of a check_invariants report, in report order: its id, its
# label and the check that returns its witnesses, or None where it skips.
CHECKS = [
    ("acyclic", "node graph is a DAG", _issues("cycle")),
    ("edgesets_disjoint", "outgoing edgesets of each node are pairwise disjoint",
     _issues("edgeset_overlap")),
    ("endpoints_valid", "root and edge endpoints are nodes of the graph",
     _issues("root_missing", "dangling_edge")),
    ("inv1_logical_matches_reach", "history max-ts map equals reach of root",
     _inv1_logical_matches_reach),
    ("inv3_contents_in_history", "every stored copy appears in the history",
     _inv3_contents_in_history),
    ("inv4_ts_below_clock", "every logged timestamp is below the clock", _inv4_ts_below_clock),
    ("inv6_downstream_older", "copies get older when moving down an edge",
     _inv6_downstream_older),
    ("inv7_reach_within_inset", "reachable keys of a node lie in its inset",
     _inv7_reach_within_inset),
    ("inv8_pred_insets_disjoint", "shared edge keys are in at most one predecessor inset",
     _inv8_pred_insets_disjoint),
    ("flow_local_edges", "recorded handed-down keys are routed by some edge", _flow_local_edges),
    ("flow_reach_agree", "incoming copy flow matches the local reach view", _flow_reach_agree),
    ("flow_time_order", "handed-down copy is never newer than the local view", _flow_time_order),
    ("flow_inset_cover", "locally visible keys are covered by the inset flow", _flow_inset_cover),
    ("flow_inset_unique", "inset flow multiplicity is at most one", _flow_inset_unique),
    ("floweqn_cir_residual", "copy flow satisfies its flow equation", _floweqn_cir_residual),
    ("floweqn_inset_residual", "inset flow satisfies its flow equation",
     _floweqn_inset_residual),
    ("inset_flow_matches_inset", "inset flow support equals set-propagated insets",
     _inset_flow_matches_inset),
    ("local_vs_recursive_reach", "local reach view equals recursive reach",
     _local_vs_recursive_reach),
]


def check_invariants(g: MulticopyGraph, h: UpsertHistory, clock: Timestamp) -> InvariantReport:
    """Every entry of CHECKS for one snapshot, in order. g, h and clock must
    be taken together at quiescence; nothing here locks anything."""
    v = _Views(g, h, clock)
    report = InvariantReport(reach=vars(v).get("reach"))
    for check_id, label, check in CHECKS:
        try:
            ws = check(v)
        except _NotEvaluated:
            ws = [{"not_evaluated": "structure checks failed"}]
        else:
            if ws:
                v.failed.add(check_id)
        if skipped := ws is None:
            ws = [{"not_evaluated": _SKIP_REASON}]
        report.entries.append(CheckResult(check_id, label, not ws, _cap(ws), skipped))
    return report


def check_inv2_monotone(
    prev: MulticopyGraph, nxt: MulticopyGraph, *, reach_next: Optional[dict] = None
) -> CheckResult:
    """Across two snapshots of the same structure, the reach of every node
    present in both may only move forward in time, per key. reach_next, if
    given, is reach_maps(nxt) as check_invariants built it (its report's
    reach), so a checkpoint walks its snapshot once.

    Only keys that either reach map holds are compared: a key absent from
    both is INITIAL on both sides and cannot move backwards."""
    reach_prev = reach_maps(prev)
    if reach_next is None:
        reach_next = reach_maps(nxt)
    keyspace = max(prev.keyspace_size, nxt.keyspace_size)
    ws = []
    for n in sorted(prev.nodes & nxt.nodes):
        before_map = reach_prev.get(n, {})
        after_map = reach_next.get(n, {})
        bad = [
            (k, before.ts, after.ts)
            for k, after in after_map.items()
            if 0 <= k < keyspace
            and after is not (before := before_map.get(k, INITIAL))
            and after.ts < before.ts
        ]
        bad += (
            (k, before.ts, INITIAL.ts)
            for k, before in before_map.items()
            if 0 <= k < keyspace and k not in after_map and INITIAL.ts < before.ts
        )
        ws += (
            {"node": n, "key": k, "before_ts": b, "after_ts": a}
            for k, b, a in sorted(bad)
        )
    return CheckResult(
        "inv2_reach_monotone",
        "per-node reach timestamps never move backwards",
        passed=not ws,
        witnesses=_cap(ws),
    )


# --- linearizability -------------------------------------------------------


@dataclass
class LinearizationResult:
    """linearize's verdict on a trace. The order it built is kept as
    positions into the trace (see Trace), and order builds its events as
    they are read; it is empty where linearize stopped before building one.
    """

    ok: bool
    trace: Trace = field(repr=False)
    positions: array = field(default_factory=lambda: array("q"), repr=False)
    failure: Optional[dict] = None

    @property
    def order(self) -> EventView:
        return EventView(self.trace, self.positions)

    def to_json(self) -> dict:
        out = {"ok": self.ok, "events": len(self.trace)}
        if self.failure is not None:
            out["failure"] = self.failure
        return out


def linearize(trace: Trace) -> LinearizationResult:
    """Build and validate a sequential order for the trace; see module doc.
    It reads the trace's columns and orders positions into them, so the only
    events it builds are a failure's. Each step below frees its own copies
    of the columns when it ends, so the largest one, the sort that builds
    the order, sets what linearize holds at its peak; the result keeps the
    order as an array."""
    order, failure = _candidate_order(trace)
    if failure is None:
        failure = _real_time_failure(trace, order) or _replay_failure(trace, order)
    return LinearizationResult(failure is None, trace, array("q", order), failure)


def _candidate_order(trace: Trace) -> tuple[list[int], Optional[dict]]:
    """The candidate order as positions; empty, with the failure, where the
    upserts' timestamps or a search's return leave none."""
    searches, upserts = trace.search_table, trace.upsert_table
    ns, nu, sc, uc = len(searches), len(upserts), searches.columns, upserts.columns
    u_ts = uc["ts"]
    # Upsert rows in (ts, inv) order: by inv, then stably by ts.
    ups = sorted(sorted(range(nu), key=uc["inv"].__getitem__), key=u_ts.__getitem__)
    ts_list = list(map(u_ts.__getitem__, ups))
    dup = next(compress(count(1), map(eq, islice(ts_list, 1, None), ts_list)), None)
    if dup is not None:
        a, b = upserts.row(ups[dup - 1]), upserts.row(ups[dup])
        return [], {"kind": "duplicate_upsert_ts", "ts": a.ts,
                    "events": [a.to_json(), b.to_json()]}
    if ts_list and ts_list[0] <= 0:
        return [], {"kind": "nonpositive_upsert_ts", "event": upserts.row(ups[0]).to_json()}

    # Each event's place: for a search its gap, the number of upserts placed
    # before it, and i + 1 for the upsert placed i-th. Every search first
    # takes the gap its snapshot had seen; one that was overtaken by a newer
    # upsert then moves right after the upsert whose copy it returned.
    place = array("q", map(bisect_right, repeat(ts_list), sc["snap"]))
    s_tp = sc["tp"]
    unmatched = []
    for j in compress(count(), map(gt, s_tp, sc["t0"])):
        tp = s_tp[j]
        place[j] = i = bisect_right(ts_list, tp)
        if i == 0 or ts_list[i - 1] != tp:
            unmatched.append(j)
    if unmatched:
        first = min(unmatched, key=sc["inv"].__getitem__)
        return [], {"kind": "unmatched_return_ts", "event": searches.row(first).to_json()}
    up_place = array("q", bytes(8 * nu))
    for i, r in enumerate(ups, 1):
        up_place[r] = i
    place += up_place
    # One stable sort of the upserts, then the searches in inv order: where
    # an upsert and the searches of the gap after it tie, the upsert leads.
    by_inv = sorted(range(ns), key=sc["inv"].__getitem__)
    return sorted(chain(range(ns, ns + nu), by_inv), key=place.__getitem__), None


def _real_time_failure(trace: Trace, order: list[int]) -> Optional[dict]:
    """Validation pass one: the order must embed real-time precedence. If an
    operation responded before another was invoked, it must come first."""
    inv, resp = list(trace.column("inv")), list(trace.column("resp"))
    spans = zip(map(inv.__getitem__, order), map(resp.__getitem__, order))
    max_inv, _ = next(spans, (0, 0))
    for k, (i, r) in enumerate(spans, 1):
        if r < max_inv:
            ahead = next(p for p in order if inv[p] == max_inv)
            return {"kind": "real_time_order", "event": trace.event(order[k]).to_json(),
                    "must_follow": trace.event(ahead).to_json()}
        if i > max_inv:
            max_inv = i
    return None


def _replay_failure(trace: Trace, order: list[int]) -> Optional[dict]:
    """Validation pass two: the order must make sequential sense for a map."""
    ns = len(trace.search_table)
    keys = trace.column("key")
    values = trace.search_table.values + trace.upsert_table.values
    state: dict = {}
    for p in order:
        if p >= ns:
            state[keys[p]] = values[p]
        elif (expected := state.get(keys[p], TOMBSTONE)) != values[p]:
            return {"kind": "value_mismatch", "event": trace.event(p).to_json(),
                    "expected": encode_value(expected)}
    return None
