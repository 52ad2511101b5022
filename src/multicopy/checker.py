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

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter
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
from .history import SearchEvent, Trace, TraceEvent, UpsertEvent, UpsertHistory

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
    report = InvariantReport()
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


def check_inv2_monotone(prev: MulticopyGraph, nxt: MulticopyGraph) -> CheckResult:
    """Across two snapshots of the same structure, the reach of every node
    present in both may only move forward in time, per key.

    Only keys that either reach map holds are compared: a key absent from
    both is INITIAL on both sides and cannot move backwards."""
    reach_prev = reach_maps(prev)
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
    ok: bool
    order: list[TraceEvent] = field(default_factory=list)
    failure: Optional[dict] = None

    def to_json(self) -> dict:
        out = {"ok": self.ok, "events": len(self.order)}
        if self.failure is not None:
            out["failure"] = self.failure
        return out


def linearize(trace: Trace) -> LinearizationResult:
    """Build and validate a sequential order for the trace; see module doc."""
    ups = sorted(trace.upserts(), key=lambda u: (u.ts, u.inv))
    for a, b in zip(ups, ups[1:]):
        if a.ts == b.ts:
            return LinearizationResult(
                ok=False,
                failure={
                    "kind": "duplicate_upsert_ts",
                    "ts": a.ts,
                    "events": [a.to_json(), b.to_json()],
                },
            )
    if ups and ups[0].ts <= 0:
        return LinearizationResult(
            ok=False,
            failure={"kind": "nonpositive_upsert_ts", "event": ups[0].to_json()},
        )
    ts_list = [u.ts for u in ups]

    # (inv, gap, search): the gap is the number of upserts placed before it.
    placed: list[tuple[int, int, SearchEvent]] = []
    for s in trace.searches():
        if s.tp <= s.t0:
            anchor = s.snap
        else:
            anchor = s.tp
            pos_probe = bisect_right(ts_list, s.tp)
            if pos_probe == 0 or ts_list[pos_probe - 1] != s.tp:
                return LinearizationResult(
                    ok=False,
                    failure={
                        "kind": "unmatched_return_ts",
                        "event": s.to_json(),
                    },
                )
        placed.append((s.inv, bisect_right(ts_list, anchor), s))

    # One stable sort by inv, then bucketing, leaves each gap's searches in
    # invocation order.
    placed.sort(key=itemgetter(0))
    gaps: list[list[SearchEvent]] = [[] for _ in range(len(ups) + 1)]
    for _, i, s in placed:
        gaps[i].append(s)
    order: list[TraceEvent] = []
    for i, up in enumerate(ups):
        order += gaps[i]
        order.append(up)
    order += gaps[-1]

    # Validation pass one: the order must embed real-time precedence. If an
    # operation responded before another was invoked, it must come first.
    max_inv = None
    max_inv_event = None
    for e in order:
        if max_inv is not None and e.resp < max_inv:
            return LinearizationResult(
                ok=False,
                order=order,
                failure={
                    "kind": "real_time_order",
                    "event": e.to_json(),
                    "must_follow": max_inv_event.to_json(),
                },
            )
        if max_inv is None or e.inv > max_inv:
            max_inv = e.inv
            max_inv_event = e

    # Validation pass two: the order must make sequential sense for a map.
    state: dict = {}
    for e in order:
        if isinstance(e, UpsertEvent):
            state[e.key] = e.value
        else:
            expected = state.get(e.key, TOMBSTONE)
            if expected != e.value:
                return LinearizationResult(
                    ok=False,
                    order=order,
                    failure={
                        "kind": "value_mismatch",
                        "event": e.to_json(),
                        "expected": encode_value(expected),
                    },
                )

    return LinearizationResult(ok=True, order=order)
