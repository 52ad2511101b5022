"""Offline verification: snapshot invariants and trace linearizability.

check_invariants runs every structural, history and flow condition against
one quiescent snapshot and reports them all, pass or fail, each failure with
a concrete witness. Where a property has two independent formulations (the
recursive reach versus the per-node local view backed by flows, or the
set-propagated inset versus the inset flow's support), both are computed and
compared; agreement is a check in its own right, so a bug in either side
shows up instead of hiding.

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


# Whole-input tests, each one C-level set or dict operation. A check runs
# its witness loop only where its test fails, so a passing snapshot costs
# little, and a failing one gets the witnesses the loop has always built.


def _all_below(h: UpsertHistory, clock: Timestamp) -> bool:
    """Inv4 holds: every logged timestamp is below the clock. Timestamps
    strictly increase, so the newest one decides."""
    return h.max_published_ts() < clock


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


# Every entry of a check_invariants report, in report order.
CHECKS = [
    ("acyclic", "node graph is a DAG"),
    ("edgesets_disjoint", "outgoing edgesets of each node are pairwise disjoint"),
    ("endpoints_valid", "root and edge endpoints are nodes of the graph"),
    ("inv1_logical_matches_reach", "history max-ts map equals reach of root"),
    ("inv3_contents_in_history", "every stored copy appears in the history"),
    ("inv4_ts_below_clock", "every logged timestamp is below the clock"),
    ("inv6_downstream_older", "copies get older when moving down an edge"),
    ("inv7_reach_within_inset", "reachable keys of a node lie in its inset"),
    ("inv8_pred_insets_disjoint", "shared edge keys are in at most one predecessor inset"),
    ("flow_local_edges", "recorded handed-down keys are routed by some edge"),
    ("flow_reach_agree", "incoming copy flow matches the local reach view"),
    ("flow_time_order", "handed-down copy is never newer than the local view"),
    ("flow_inset_cover", "locally visible keys are covered by the inset flow"),
    ("flow_inset_unique", "inset flow multiplicity is at most one"),
    ("floweqn_cir_residual", "copy flow satisfies its flow equation"),
    ("floweqn_inset_residual", "inset flow satisfies its flow equation"),
    ("inset_flow_matches_inset", "inset flow support equals set-propagated insets"),
    ("local_vs_recursive_reach", "local reach view equals recursive reach"),
]
_LABELS = dict(CHECKS)


def check_invariants(
    g: MulticopyGraph, h: UpsertHistory, clock: Timestamp
) -> InvariantReport:
    """Full single-snapshot suite. Requires that g, h and clock were taken
    together at quiescence; nothing here locks anything.

    Each check tests the stored copies first and sorts only its failures,
    so its cost follows the copies and succ_reach records, not the keyspace.
    Witnesses come out in the order a sorted walk would find them."""
    report = InvariantReport()

    def add(check_id: str, ws: list[dict]) -> CheckResult:
        result = CheckResult(
            check_id, _LABELS[check_id], passed=not ws, witnesses=_cap(ws)
        )
        report.entries.append(result)
        return result

    issues = structural_issues(g)
    cyclic = [i for i in issues if i["kind"] == "cycle"]
    add("acyclic", cyclic)
    add("edgesets_disjoint", [i for i in issues if i["kind"] == "edgeset_overlap"])
    other = [i for i in issues if i["kind"] not in ("cycle", "edgeset_overlap")]
    add("endpoints_valid", other)

    if cyclic or other:
        for check_id, _ in CHECKS[3:]:
            add(check_id, [{"not_evaluated": "structure checks failed"}])
        return report

    reach = reach_maps(g)
    insets = inset_map(g)
    cir_flow = compute_flow(g, "cir")
    inset_flow = compute_flow(g, "inset")
    root_reach = reach[g.root]
    nodes = sorted(g.nodes)

    # Inv1: the logical map told by the history equals the root's reach. A
    # key that neither holds is INITIAL on both sides, so only held keys are
    # compared. A history narrower than the keyspace cannot tell the newest
    # copy of the keys past its end, so it is rejected.
    if g.keyspace_size > h.keyspace_size:
        raise MulticopyError(
            f"history keyspace {h.keyspace_size} is narrower than the "
            f"snapshot keyspace {g.keyspace_size}"
        )
    newest = h.newest_copies()
    ws = []
    for k in newest.keys() | root_reach.keys():
        if 0 <= k < g.keyspace_size:
            # A copy equals the plain (value, ts) tuple of its fields.
            logical, reached = newest.get(k, INITIAL), root_reach.get(k, INITIAL)
            if logical != reached:
                ws.append(
                    {
                        "key": k,
                        "history": [encode_value(logical[0]), logical[1]],
                        "reach": [encode_value(reached.value), reached.ts],
                    }
                )
    ws.sort(key=lambda w: w["key"])
    add("inv1_logical_matches_reach", ws)

    # Inv3: no node invents copies that were never upserted.
    ws = []
    for n in nodes:
        bad = [
            (k, tv)
            for k, tv in g.node_contents(n).items()
            if not h.contains(k, tv.value, tv.ts)
        ]
        ws += (
            {"node": n, "key": k, "copy": [encode_value(tv.value), tv.ts]}
            for k, tv in sorted(bad)
        )
    add("inv3_contents_in_history", ws)

    # Inv4: the clock is ahead of everything logged.
    ws = []
    if not _all_below(h, clock):
        ws = [{"ts": t, "key": k, "clock": clock} for k, v, t in h.entries() if t >= clock]
    add("inv4_ts_below_clock", ws)

    # Inv6: along an edge owning k, the downstream reach is not newer than
    # the upstream copy. This is what makes the first copy found correct.
    ws = []
    for n, m, ks in sorted(g.edges()):
        cn, below = g.node_contents(n), reach[m]
        bad = [k for k in ks.intersection(cn) if below.get(k, INITIAL).ts > cn[k].ts]
        ws += (
            {
                "node": n,
                "succ": m,
                "key": k,
                "upstream_ts": cn[k].ts,
                "downstream_ts": below.get(k, INITIAL).ts,
            }
            for k in sorted(bad)
        )
    add("inv6_downstream_older", ws)

    # Inv7: a node only has reachable copies for keys that can arrive there.
    ws = []
    for n in nodes:
        ws += ({"node": n, "key": k} for k in sorted(set(reach[n]) - insets[n]))
    add("inv7_reach_within_inset", ws)

    # Inv8: when two edges into the same node own the same key, at most one
    # of the two sources can actually be reached with that key.
    preds = predecessors(g)
    ws = []
    for m in nodes:
        ps = sorted(preds[m])
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                a, b = ps[i], ps[j]
                common = g.edgesets[a][m] & g.edgesets[b][m]
                bad = common & insets[a] & insets[b]
                for k in sorted(bad):
                    ws.append({"node": m, "pred_a": a, "pred_b": b, "key": k})
    add("inv8_pred_insets_disjoint", ws)

    # Flow condition 1: every recorded handed-down key has an outgoing edge.
    ws = []
    for n in nodes:
        unrouted = set(g.node_succ_reach(n))
        for ks in g.successors(n).values():
            unrouted -= ks
        ws += ({"node": n, "key": k} for k in sorted(unrouted))
    phi1 = add("flow_local_edges", ws)

    # Flow condition 2: whatever copy flows into n, n's local view agrees.
    ws = []
    local = {n: local_reach(g, n) for n in g.nodes}
    for n in nodes:
        view = local[n]
        if _flow_within_view(cir_flow[n], view):
            continue
        bad = [
            (k, tv)
            for (k, tv), cnt in cir_flow[n].items()
            if cnt > 0 and (got := view.get(k)) is not tv and got != tv
        ]
        for k, tv in sorted(bad, key=lambda el: (el[0], el[1].ts)):
            got = view.get(k)
            ws.append(
                {
                    "node": n,
                    "key": k,
                    "flowed": [encode_value(tv.value), tv.ts],
                    "local": None if got is None else [encode_value(got.value), got.ts],
                }
            )
    phi2 = add("flow_reach_agree", ws)

    # Flow condition 3: handing a copy down never advances its time. Where
    # the node holds no copy of its own, the local view is the recorded copy
    # itself, so only the keys it both holds and records can fail.
    ws = []
    for n in nodes:
        view, sr = local[n], g.node_succ_reach(n)
        bad = [
            (k, sr[k].ts, mine.ts)
            for k in _held_and_recorded(g.node_contents(n), sr)
            if sr[k].ts > (mine := view.get(k, INITIAL)).ts
        ]
        ws += (
            {"node": n, "key": k, "recorded_ts": t, "local_ts": mine_ts}
            for k, t, mine_ts in sorted(bad)
        )
    add("flow_time_order", ws)

    # Flow condition 4: keys a node can see must be able to arrive there.
    ws = []
    for n in nodes:
        fl = inset_flow[n]
        if _keys_within_flow(local[n], fl):
            continue
        ws += (
            {"node": n, "key": k}
            for k in sorted([k for k in local[n] if fl.get(k, 0) <= 0])
        )
    add("flow_inset_cover", ws)

    # Flow condition 5: no key can arrive at a node along two routes.
    ws = []
    for n in nodes:
        fl = inset_flow[n]
        if max(fl.values(), default=0) > 1:
            ws += (
                {"node": n, "key": k, "multiplicity": cnt}
                for k, cnt in sorted((k, c) for k, c in fl.items() if c > 1)
            )
    add("flow_inset_unique", ws)

    # The flow equation must hold exactly for both flows.
    for kind, check_id, fl in (
        ("cir", "floweqn_cir_residual", cir_flow),
        ("inset", "floweqn_inset_residual", inset_flow),
    ):
        res = flow_residuals(g, kind, fl)
        add(
            check_id,
            [
                {"node": n, "residual": {repr(el): c for el, c in diff.items()}}
                for n, diff in sorted(res.items())
            ],
        )

    # Cross-validation: the two inset formulations must agree exactly.
    ws = []
    for n in nodes:
        fl = inset_flow[n]
        if min(fl.values(), default=1) > 0:
            support = frozenset(fl)
        else:
            support = frozenset(k for k, c in fl.items() if c > 0)
        if support != insets[n]:
            ws.append(
                {
                    "node": n,
                    "flow_only": sorted(support - insets[n]),
                    "set_only": sorted(insets[n] - support),
                }
            )
    add("inset_flow_matches_inset", ws)

    # Cross-validation: when conditions 1 and 2 hold everywhere, the local
    # view must equal the recursive reach at every node, not just the root.
    if phi1.passed and phi2.passed:
        ws = []
        for n in nodes:
            if local[n] != reach[n]:
                diff_keys = sorted(
                    k
                    for k in set(local[n]) | set(reach[n])
                    if local[n].get(k) != reach[n].get(k)
                )
                ws.append({"node": n, "keys": diff_keys[:10]})
        add("local_vs_recursive_reach", ws)
    else:
        add(
            "local_vs_recursive_reach",
            [{"not_evaluated": "flow conditions 1/2 already failed"}],
        ).skipped = True

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
