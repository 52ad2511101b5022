"""Bundled replay scenarios with frozen expected states.

Four deterministic scenarios exercise the machinery end to end and double as
executable documentation. Keys are named k1..k4 (ids 0..3) and letter values
map a=1 b=2 c=3 d=4; a few scenarios use value == timestamp to make the
pictures easy to follow. Each scenario builds an LsmStructure over hand-made
nodes and an upsert history, which fix its clock and succ_reach, and steps it
with the template's own merge step and snapshot.

  list-compaction: a four-node list store. Replays a root flush (the root's
        single record overwrites the node below) and a mid-list compaction
        (the stale copy at the target is discarded), checking the
        values-level states and that the root's reach never changes.
  list-search: the same list with timestamps and history made explicit;
        checks the reach computations, search results including a
        never-written key, and that the full invariant suite passes on a
        healthy snapshot.
  unsound-merges: a three-node diamond whose merge steps break the DAG
        rules on purpose: node insets stop covering reach (step 1), an
        edge carries a newer copy below an older one (step 2), and a newer
        copy is overwritten by an older one outright (steps 1 to 4). The
        checker must name each.
  cascade-split: a three-node list at capacity. Two merge steps replay a
        cascading pass: the root empties into the middle node, which then
        splits its keys off into a freshly allocated sink instead of
        merging into the node below. The root's reach is identical before,
        between and after.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .checker import check_inv2_monotone, check_invariants
from .core import TOMBSTONE, Key, TimedValue, Timestamp, Value, val_projection
from .graph import MulticopyGraph, reach_maps
from .history import UpsertHistory
from .lsm import LsmStructure
from .nodes import NodeHandle, fresh_node_id

K1, K2, K3, K4 = 0, 1, 2, 3
VA, VB, VC, VD = 1, 2, 3, 4


@dataclass
class FixtureReport:
    name: str
    checks: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def expect(self, label: str, ok: bool, detail=None) -> None:
        entry = {"label": label, "ok": bool(ok)}
        if detail is not None and not ok:
            entry["detail"] = detail
        self.checks.append(entry)

    def expect_eq(self, label: str, got, want) -> None:
        self.expect(label, got == want, {"got": repr(got), "want": repr(want)})

    def to_json(self) -> dict:
        return {"fixture": self.name, "ok": self.ok, "checks": self.checks}

    def format_text(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"[{'PASS' if c['ok'] else 'FAIL'}] {c['label']}")
            if not c["ok"] and "detail" in c:
                lines.append(f"         {c['detail']}")
        lines.append(
            f"fixture {self.name}: " + ("OK" if self.ok else "MISMATCH")
        )
        return "\n".join(lines)


def _node(capacity: Optional[int], records: dict[Key, TimedValue]) -> NodeHandle:
    """A hand-built node with an id from the allocator, so that every node a
    scenario grows later gets an id no scenario node holds."""
    return NodeHandle(fresh_node_id(), capacity, records)


def _structure(
    ks: int,
    handles: list[NodeHandle],
    edges: list[tuple[NodeHandle, NodeHandle, Iterable[Key]]],
    upserts: list[tuple[Key, Value, Timestamp]],
) -> LsmStructure:
    """A structure over hand-built nodes, the first of them the root. Its
    history holds the given upserts; the structure works out its clock and
    succ_reach from them and the nodes."""
    for src, dst, keys in edges:
        src.succ_edgesets[dst.id] = frozenset(keys)
    h = UpsertHistory(ks)
    for key, value, ts in upserts:
        h.record_upsert(key, value, ts)
    return LsmStructure(ks, handles[0].id, handles, history=h)


def _list_structure(root_capacity: int, n1_capacity: int) -> tuple[LsmStructure, list[int]]:
    """The shared four-node list: root holding (k2,d) over three tables,
    produced by timestamps 1..7 over keys k1..k3."""
    ks = 4
    r = _node(root_capacity, {K2: TimedValue(VD, 7)})
    n1 = _node(n1_capacity, {K1: TimedValue(TOMBSTONE, 6), K2: TimedValue(VB, 5)})
    n2 = _node(4, {K2: TimedValue(VA, 3), K3: TimedValue(VC, 4)})
    n3 = _node(4, {K1: TimedValue(VC, 2), K3: TimedValue(VB, 1)})
    handles = [r, n1, n2, n3]
    s = _structure(
        ks, handles,
        [(r, n1, range(ks)), (n1, n2, range(ks)), (n2, n3, range(ks))],
        [(K3, VB, 1), (K1, VC, 2), (K2, VA, 3), (K3, VC, 4),
         (K2, VB, 5), (K1, TOMBSTONE, 6), (K2, VD, 7)],
    )
    return s, [h.id for h in handles]


def _expect_searches(report: FixtureReport, s: LsmStructure, label: str) -> None:
    # The list scenarios all present the same logical map.
    for key, value, ts in [
        (K1, TOMBSTONE, 6),
        (K2, VD, 7),
        (K3, VC, 4),
        (K4, TOMBSTONE, 0),
    ]:
        probe = s.search_timed(key)
        report.expect_eq(
            f"{label}: search k{key + 1}", (probe.value, probe.ts), (value, ts)
        )


def replay_list_compaction() -> FixtureReport:
    report = FixtureReport("list-compaction")

    # Transition one: flush a one-record root into the node below it.
    s, (r, n1, n2, n3) = _list_structure(root_capacity=1, n1_capacity=4)
    _expect_searches(report, s, "initial state")
    before = reach_maps(s.snapshot_graph())[r]
    s.compact()
    g = s.snapshot_graph()
    report.expect_eq("flush: root drained", val_projection(g.contents[r]), {})
    report.expect_eq(
        "flush: buffered copy lands below, overwriting the stale one",
        val_projection(g.contents[n1]),
        {K1: TOMBSTONE, K2: VD},
    )
    report.expect_eq(
        "flush: record keeps its timestamp", g.contents[n1][K2].ts, 7
    )
    report.expect_eq(
        "flush: untouched tail", val_projection(g.contents[n2]),
        {K2: VA, K3: VC},
    )
    report.expect_eq("flush: root reach unchanged", reach_maps(g)[r], before)
    inv = check_invariants(g, s.history, s.clock)
    report.expect("flush: snapshot passes the invariant suite", inv.ok, inv.to_json())
    _expect_searches(report, s, "after flush")

    # Transition two: compact the first table into the second.
    s, (r, n1, n2, n3) = _list_structure(root_capacity=2, n1_capacity=2)
    s._merge_down(n1, lambda _: n2)
    g = s.snapshot_graph()
    report.expect_eq("compact: source drained", val_projection(g.contents[n1]), {})
    report.expect_eq(
        "compact: target holds moved copies, stale (k2,a) discarded",
        val_projection(g.contents[n2]),
        {K1: TOMBSTONE, K2: VB, K3: VC},
    )
    report.expect_eq("compact: moved copy keeps ts", g.contents[n2][K2].ts, 5)
    report.expect_eq("compact: root untouched", val_projection(g.contents[r]), {K2: VD})
    report.expect_eq("compact: root reach unchanged", reach_maps(g)[r], before)
    inv = check_invariants(g, s.history, s.clock)
    report.expect("compact: snapshot passes the invariant suite", inv.ok, inv.to_json())
    _expect_searches(report, s, "after compaction")
    return report


def replay_list_search() -> FixtureReport:
    report = FixtureReport("list-search")
    s, (r, n1, n2, n3) = _list_structure(root_capacity=2, n1_capacity=4)
    g = s.snapshot_graph()
    reach = reach_maps(g)

    report.expect_eq(
        "reach of root collects the newest copies",
        reach[r],
        {
            K1: TimedValue(TOMBSTONE, 6),
            K2: TimedValue(VD, 7),
            K3: TimedValue(VC, 4),
        },
    )
    report.expect_eq(
        "reach of the last node is its own contents",
        reach[n3],
        g.contents[n3],
    )
    _expect_searches(report, s, "live structure")

    inv = check_invariants(g, s.history, s.clock)
    report.expect("snapshot passes the invariant suite", inv.ok, inv.to_json())
    preds = s.history.verify_predicates(s.clock)
    report.expect("history predicates hold", preds.ok)
    return report


def replay_unsound_merges() -> FixtureReport:
    report = FixtureReport("unsound-merges")
    # Diamond: root n routes k1 to p and k2 to m; p routes both to m.
    # Values equal timestamps.
    n = _node(None, {K1: TimedValue(5, 5), K2: TimedValue(6, 6)})
    p = _node(None, {K1: TimedValue(3, 3), K2: TimedValue(4, 4)})
    m = _node(None, {K1: TimedValue(2, 2), K2: TimedValue(1, 1)})
    handles = [n, p, m]
    s = _structure(
        2, handles,
        [(n, p, {K1}), (n, m, {K2}), (p, m, {K1, K2})],
        [(k, t, t) for k, t in [(K2, 1), (K1, 2), (K1, 3), (K2, 4), (K1, 5), (K2, 6)]],
    )

    # The template's own merge step, pointed along edges that the DAG
    # rules forbid using in this order.
    states = [s.snapshot_graph()]
    for src, dst in [(n, m), (n, p), (p, m)]:
        s._merge_down(src.id, lambda _: dst.id)
        states.append(s.snapshot_graph())

    report.expect_eq(
        "step 1 state",
        [val_projection(states[0].contents[x.id]) for x in handles],
        [{K1: 5, K2: 6}, {K1: 3, K2: 4}, {K1: 2, K2: 1}],
    )
    report.expect_eq(
        "step 2: k2's newest copy moved to the shared sink",
        [val_projection(states[1].contents[x.id]) for x in handles],
        [{K1: 5}, {K1: 3, K2: 4}, {K1: 2, K2: 6}],
    )
    report.expect_eq(
        "step 3: k1's newest copy moved sideways",
        [val_projection(states[2].contents[x.id]) for x in handles],
        [{}, {K1: 5, K2: 4}, {K1: 2, K2: 6}],
    )
    report.expect_eq(
        "step 4: stale k2 copy overwrote the newer one",
        [val_projection(states[3].contents[x.id]) for x in handles],
        [{}, {}, {K1: 5, K2: 4}],
    )

    reports = [check_invariants(g, s.history, s.clock) for g in states]

    r1 = reports[0]
    ws = r1.entry("inv7_reach_within_inset").witnesses
    report.expect(
        "step 1: reach escapes the inset at (p, k2)",
        (not r1.entry("inv7_reach_within_inset").passed)
        and {"node": p.id, "key": K2} in ws,
        detail=ws,
    )
    report.expect(
        "step 1: edge time order still fine",
        r1.entry("inv6_downstream_older").passed,
        detail=r1.entry("inv6_downstream_older").witnesses,
    )

    r2 = reports[1]
    ws = r2.entry("inv6_downstream_older").witnesses
    report.expect(
        "step 2: edge (p -> m) carries a newer copy below for k2",
        (not r2.entry("inv6_downstream_older").passed)
        and any(
            w["node"] == p.id and w["succ"] == m.id and w["key"] == K2
            for w in ws
        ),
        detail=ws,
    )

    mono = check_inv2_monotone(states[0], states[3])
    report.expect(
        "steps 1 to 4: root reach for k2 went back in time (6 to 4)",
        (not mono.passed)
        and any(
            w["node"] == n.id
            and w["key"] == K2
            and w["before_ts"] == 6
            and w["after_ts"] == 4
            for w in mono.witnesses
        ),
        detail=mono.witnesses,
    )

    report.expect(
        "final state: the lost update is visible at the root",
        not reports[3].entry("inv1_logical_matches_reach").passed,
        detail=reports[3].entry("inv1_logical_matches_reach").witnesses,
    )
    return report


def replay_cascade_split() -> FixtureReport:
    report = FixtureReport("cascade-split")
    ks = 4
    a = _node(4, {
        K1: TimedValue(7, 7), K2: TimedValue(5, 5),
        K3: TimedValue(6, 6), K4: TimedValue(8, 8),
    })
    b = _node(4, {K1: TimedValue(3, 3), K4: TimedValue(4, 4)})
    c = _node(2, {K1: TimedValue(2, 2), K2: TimedValue(1, 1)})
    s = _structure(
        ks, [a, b, c],
        [(a, b, range(ks)), (b, c, {K1, K2})],
        [(k, t, t) for k, t in [(K2, 1), (K1, 2), (K1, 3), (K4, 4),
                                (K2, 5), (K3, 6), (K1, 7), (K4, 8)]],
    )

    full_view = {
        K1: TimedValue(7, 7), K2: TimedValue(5, 5),
        K3: TimedValue(6, 6), K4: TimedValue(8, 8),
    }

    states: list[MulticopyGraph] = [s.snapshot_graph()]

    # The replayed pass first drains the root into b, then has b grow a
    # fresh sink instead of merging into c. The default policy would pick
    # c (it covers live keys); the scripted steps force the other branch.
    # Each step snapshots the structure as it picks its child.
    def snapshot_then(pick: Callable[[NodeHandle], int]):
        def target(n: NodeHandle) -> int:
            states.append(s.snapshot_graph())
            return pick(n)
        return target

    s._merge_down(a.id, snapshot_then(lambda _: b.id))
    s._merge_down(b.id, snapshot_then(s._grow_sink))
    states.append(s.snapshot_graph())
    # states: initial, at-root choice, at-b choice (post root merge), final.

    g_mid = states[2]
    report.expect_eq(
        "root drained into the middle node (stale copies overwritten)",
        (val_projection(g_mid.contents[a.id]), g_mid.contents[b.id]),
        ({}, full_view),
    )

    g_end = states[3]
    new_nodes = g_end.nodes - {a.id, b.id, c.id}
    report.expect("one fresh sink allocated", len(new_nodes) == 1, sorted(g_end.nodes))
    d_id = next(iter(new_nodes)) if new_nodes else None
    if d_id is not None:
        report.expect_eq(
            "fresh edge owns exactly the keys no other successor routes",
            g_end.edgesets[b.id][d_id],
            frozenset({K3, K4}),
        )
        report.expect_eq(
            "middle node kept the keys routed to the old child",
            g_end.contents[b.id],
            {K1: TimedValue(7, 7), K2: TimedValue(5, 5)},
        )
        report.expect_eq(
            "sink received the split-off records",
            g_end.contents[d_id],
            {K3: TimedValue(6, 6), K4: TimedValue(8, 8)},
        )
        report.expect_eq(
            "old child untouched",
            g_end.contents[c.id],
            {K1: TimedValue(2, 2), K2: TimedValue(1, 1)},
        )
        report.expect_eq(
            "sink capacity follows the growth factor", s.handle(d_id).capacity, 8
        )

    for i, g in enumerate(states):
        report.expect_eq(
            f"state {i}: root reach unchanged", reach_maps(g)[a.id], full_view
        )
        inv = check_invariants(g, s.history, s.clock)
        report.expect(f"state {i}: invariant suite passes", inv.ok, inv.to_json())
    for before, after in zip(states, states[1:]):
        mono = check_inv2_monotone(before, after)
        report.expect(
            "reach stays monotone across the pass", mono.passed, mono.witnesses
        )
    return report


REPLAYS: dict[str, Callable[[], FixtureReport]] = {
    "list-compaction": replay_list_compaction,
    "list-search": replay_list_search,
    "unsound-merges": replay_unsound_merges,
    "cascade-split": replay_cascade_split,
}


def replay_fixture(name: str) -> FixtureReport:
    """Rebuild and verify one named scenario; raises KeyError on unknowns."""
    try:
        fn = REPLAYS[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(sorted(REPLAYS))}"
        ) from None
    return fn()
