import random

import pytest

from multicopy.checker import (
    AT_INVOCATION,
    check_inv2_monotone,
    check_invariants,
    linearize,
)
from multicopy.core import MulticopyError, TOMBSTONE, TimedValue
from multicopy.graph import MulticopyGraph, derive_succ_reach
from multicopy.history import SearchEvent, Trace, UpsertEvent, UpsertHistory
from multicopy.lsm import LsmStructure

ALL_CHECK_IDS = [
    "acyclic",
    "edgesets_disjoint",
    "endpoints_valid",
    "inv1_logical_matches_reach",
    "inv3_contents_in_history",
    "inv4_ts_below_clock",
    "inv6_downstream_older",
    "inv7_reach_within_inset",
    "inv8_pred_insets_disjoint",
    "flow_local_edges",
    "flow_reach_agree",
    "flow_time_order",
    "flow_inset_cover",
    "flow_inset_unique",
    "floweqn_cir_residual",
    "floweqn_inset_residual",
    "inset_flow_matches_inset",
    "local_vs_recursive_reach",
]


def base_state():
    """Two nodes, three keys, three upserts; satisfies every check."""
    g = MulticopyGraph(keyspace_size=3, root=0, nodes={0, 1})
    g.contents = {
        0: {0: TimedValue(7, 3)},
        1: {0: TimedValue(5, 1), 1: TimedValue(6, 2)},
    }
    g.edgesets = {0: {1: frozenset({0, 1, 2})}}
    g.succ_reach = derive_succ_reach(g)
    h = UpsertHistory(3)
    h.record_upsert(0, 5, 1)
    h.record_upsert(1, 6, 2)
    h.record_upsert(0, 7, 3)
    return g, h, 4


def test_clean_state_passes_every_check():
    g, h, clock = base_state()
    report = check_invariants(g, h, clock)
    assert report.ok, report.format_text()
    assert [e.check_id for e in report.entries] == ALL_CHECK_IDS
    assert all(e.passed and not e.skipped for e in report.entries)
    assert report.failures() == []
    assert report.to_json()["ok"] is True
    with pytest.raises(KeyError):
        report.entry("no_such_check")


def test_inv1_detects_a_lost_newest_copy():
    g, h, clock = base_state()
    del g.contents[0][0]  # the ts-3 copy vanishes from the structure
    report = check_invariants(g, h, clock)
    bad = report.entry("inv1_logical_matches_reach")
    assert not bad.passed
    assert bad.witnesses == [{"key": 0, "history": [7, 3], "reach": [5, 1]}]
    # Nothing else is wrong with that state.
    assert [e.check_id for e in report.failures()] == ["inv1_logical_matches_reach"]


def test_history_narrower_than_the_snapshot_is_rejected_by_name():
    g, _, clock = base_state()
    g.keyspace_size = 8
    narrow = UpsertHistory(4)
    with pytest.raises(MulticopyError) as err:
        check_invariants(g, narrow, clock)
    assert str(err.value) == (
        "history keyspace 4 is narrower than the snapshot keyspace 8"
    )
    # A history at least as wide as the snapshot is checked as usual.
    wide = UpsertHistory(8)
    for k, v, t in [(0, 5, 1), (1, 6, 2), (0, 7, 3)]:
        wide.record_upsert(k, v, t)
    assert check_invariants(g, wide, clock).ok


def test_inv3_detects_an_invented_copy():
    g, h, clock = base_state()
    g.contents[1][2] = TimedValue(42, 9)
    report = check_invariants(g, h, clock)
    bad = report.entry("inv3_contents_in_history")
    assert not bad.passed
    assert bad.witnesses[0] == {"node": 1, "key": 2, "copy": [42, 9]}


def test_inv4_detects_a_lagging_clock():
    g, h, _ = base_state()
    report = check_invariants(g, h, clock=3)
    bad = report.entry("inv4_ts_below_clock")
    assert not bad.passed
    assert bad.witnesses == [{"ts": 3, "key": 0, "clock": 3}]


def test_inv6_detects_a_newer_copy_downstream():
    g = MulticopyGraph(keyspace_size=1, root=0, nodes={0, 1})
    g.contents = {0: {0: TimedValue(5, 1)}, 1: {0: TimedValue(7, 2)}}
    g.edgesets = {0: {1: frozenset({0})}}
    g.succ_reach = derive_succ_reach(g)
    h = UpsertHistory(1)
    h.record_upsert(0, 5, 1)
    h.record_upsert(0, 7, 2)
    report = check_invariants(g, h, clock=3)
    bad = report.entry("inv6_downstream_older")
    assert not bad.passed
    assert bad.witnesses == [
        {"node": 0, "succ": 1, "key": 0, "upstream_ts": 1, "downstream_ts": 2}
    ]
    # A search from the root would return ts 1 and miss ts 2: inv1 agrees.
    assert not report.entry("inv1_logical_matches_reach").passed


def test_inv7_detects_contents_outside_the_inset():
    g, h, clock = base_state()
    g.edgesets = {0: {1: frozenset({0, 2})}}  # key 1 no longer routed
    g.succ_reach = derive_succ_reach(g)
    report = check_invariants(g, h, clock)
    assert not report.entry("inv7_reach_within_inset").passed
    assert {"node": 1, "key": 1} in report.entry("inv7_reach_within_inset").witnesses
    assert not report.entry("flow_inset_cover").passed


def test_inv8_and_multiplicity_on_a_shared_edge_key():
    g = MulticopyGraph(keyspace_size=1, root=0, nodes={0, 1, 2, 3})
    g.edgesets = {
        0: {1: frozenset({0}), 2: frozenset({0})},
        1: {3: frozenset({0})},
        2: {3: frozenset({0})},
    }
    g.succ_reach = {n: {} for n in g.nodes}
    report = check_invariants(g, UpsertHistory(1), clock=1)
    assert not report.entry("edgesets_disjoint").passed
    bad = report.entry("inv8_pred_insets_disjoint")
    assert not bad.passed
    assert bad.witnesses == [{"node": 3, "pred_a": 1, "pred_b": 2, "key": 0}]
    uniq = report.entry("flow_inset_unique")
    assert not uniq.passed
    assert uniq.witnesses == [{"node": 3, "key": 0, "multiplicity": 2}]
    # Support still matches the set formulation even with multiplicity 2.
    assert report.entry("inset_flow_matches_inset").passed


def test_phi1_flags_recorded_keys_nobody_routes():
    g, h, clock = base_state()
    g.succ_reach[1] = {0: TimedValue(5, 1)}  # leaf records a handed-down copy
    report = check_invariants(g, h, clock)
    assert not report.entry("flow_local_edges").passed
    assert report.entry("flow_local_edges").witnesses == [{"node": 1, "key": 0}]
    crossed = report.entry("local_vs_recursive_reach")
    assert crossed.skipped and crossed.ok  # not evaluable, not a failure
    assert not report.ok


def test_phi2_flags_records_that_disagree_with_the_flow():
    g, h, clock = base_state()
    g.succ_reach[0][0] = TimedValue(7, 3)  # claims the child serves ts 3
    report = check_invariants(g, h, clock)
    bad = report.entry("flow_reach_agree")
    assert not bad.passed
    assert bad.witnesses == [
        {"node": 1, "key": 0, "flowed": [7, 3], "local": [5, 1]}
    ]
    assert report.entry("local_vs_recursive_reach").skipped


def test_phi3_flags_records_newer_than_the_local_view():
    g, h, clock = base_state()
    g.succ_reach[0][0] = TimedValue(7, 4)
    report = check_invariants(g, h, clock)
    bad = report.entry("flow_time_order")
    assert not bad.passed
    assert bad.witnesses[0] == {
        "node": 0, "key": 0, "recorded_ts": 4, "local_ts": 3,
    }


def test_structure_failures_gate_the_rest():
    g = MulticopyGraph(keyspace_size=1, root=0, nodes={0, 1})
    g.edgesets = {0: {1: frozenset({0})}, 1: {0: frozenset({0})}}
    report = check_invariants(g, UpsertHistory(1), clock=1)
    assert not report.ok
    assert not report.entry("acyclic").passed
    assert [e.check_id for e in report.entries] == ALL_CHECK_IDS
    gated = report.entry("inv1_logical_matches_reach")
    assert not gated.passed and not gated.skipped
    assert gated.witnesses == [{"not_evaluated": "structure checks failed"}]


def test_format_text_names_every_check():
    g, h, clock = base_state()
    text = check_invariants(g, h, clock).format_text()
    for cid in ALL_CHECK_IDS:
        assert cid in text
    assert text.endswith("result: OK")
    del g.contents[0][0]
    text = check_invariants(g, h, clock).format_text()
    assert "[FAIL] inv1_logical_matches_reach" in text
    assert "witness" in text
    assert text.endswith("result: INVARIANT VIOLATIONS FOUND")


def test_inv2_monotone_between_snapshots():
    g1, h, clock = base_state()
    g2, _, _ = base_state()
    assert check_inv2_monotone(g1, g2).passed
    # Forward movement is fine: the root learns a newer copy of key 1.
    g2.contents[0][1] = TimedValue(8, 4)
    assert check_inv2_monotone(g1, g2).passed
    # Backward movement is not: the newest copy of key 0 disappears.
    g3, _, _ = base_state()
    del g3.contents[0][0]
    res = check_inv2_monotone(g1, g3)
    assert not res.passed
    assert res.witnesses == [{"node": 0, "key": 0, "before_ts": 3, "after_ts": 1}]
    # Nodes that exist on only one side are nobody's business.
    g4, _, _ = base_state()
    g4.nodes.add(7)
    assert check_inv2_monotone(g1, g4).passed


# --- linearization ----------------------------------------------------------


def U(key, value, ts, inv, resp, thread=0):
    return UpsertEvent(thread=thread, key=key, value=value, ts=ts, inv=inv, resp=resp)


def S(key, value, t0, tp, snap, inv, resp, thread=1):
    return SearchEvent(
        thread=thread, key=key, value=value, t0=t0, tp=tp, snap=snap, inv=inv, resp=resp
    )


def test_linearize_empty_trace():
    res = linearize(Trace(keyspace_size=1))
    assert res.ok and res.order == []


def test_linearize_sequential_trace():
    t = Trace(
        keyspace_size=2,
        events=[
            U(0, 5, ts=1, inv=0, resp=1),
            S(0, 5, t0=1, tp=1, snap=1, inv=2, resp=3),
            U(0, TOMBSTONE, ts=2, inv=4, resp=5),
            S(0, TOMBSTONE, t0=2, tp=2, snap=2, inv=6, resp=7),
            S(1, TOMBSTONE, t0=0, tp=0, snap=2, inv=8, resp=9),
        ],
    )
    res = linearize(t)
    assert res.ok
    assert [getattr(e, "ts", None) for e in res.order] == [1, None, 2, None, None]
    assert all(res.placements[s] == AT_INVOCATION for s in t.searches())


def test_linearize_places_overtaken_search_after_its_upsert():
    u1 = U(0, 5, ts=1, inv=0, resp=1)
    u2 = U(0, 9, ts=2, inv=2, resp=5)  # still pending when the search runs
    s = S(0, 9, t0=1, tp=2, snap=1, inv=3, resp=4)
    res = linearize(Trace(keyspace_size=1, events=[s, u2, u1]))
    assert res.ok
    assert res.order == [u1, u2, s]
    assert res.placements[s] == "after_ts:2"


def test_linearize_keeps_unovertaken_search_at_invocation():
    u1 = U(0, 5, ts=1, inv=0, resp=1)
    u2 = U(0, 9, ts=2, inv=2, resp=5)
    s = S(0, 5, t0=1, tp=1, snap=1, inv=3, resp=4)
    res = linearize(Trace(keyspace_size=1, events=[u1, u2, s]))
    assert res.ok
    assert res.order == [u1, s, u2]
    assert res.placements[s] == AT_INVOCATION


def test_linearize_orders_same_gap_searches_by_invocation():
    u1 = U(0, 5, ts=1, inv=0, resp=1)
    s_late = S(0, 5, t0=1, tp=1, snap=1, inv=4, resp=6, thread=2)
    s_early = S(0, 5, t0=1, tp=1, snap=1, inv=2, resp=3, thread=1)
    res = linearize(Trace(keyspace_size=1, events=[u1, s_late, s_early]))
    assert res.ok
    assert res.order == [u1, s_early, s_late]


def test_linearize_rejects_stale_read():
    u1 = U(0, 5, ts=1, inv=0, resp=1)
    u2 = U(0, 9, ts=2, inv=2, resp=3)
    # Invoked after u2 published (snap=2) yet returned the old copy.
    s = S(0, 5, t0=2, tp=1, snap=2, inv=4, resp=5)
    res = linearize(Trace(keyspace_size=1, events=[u1, u2, s]))
    assert not res.ok
    assert res.failure["kind"] == "value_mismatch"
    assert res.failure["event"]["value"] == 5
    assert res.failure["expected"] == 9


def test_linearize_rejects_timestamps_against_real_time():
    # b was invoked after a responded, but carries the smaller timestamp.
    a = U(0, 5, ts=2, inv=0, resp=1)
    b = U(1, 6, ts=1, inv=2, resp=3)
    res = linearize(Trace(keyspace_size=2, events=[a, b]))
    assert not res.ok
    assert res.failure["kind"] == "real_time_order"
    assert res.failure["event"]["ts"] == 2
    assert res.failure["must_follow"]["ts"] == 1


def test_linearize_rejects_duplicate_timestamps():
    res = linearize(
        Trace(
            keyspace_size=2,
            events=[U(0, 5, ts=1, inv=0, resp=1), U(1, 6, ts=1, inv=2, resp=3)],
        )
    )
    assert not res.ok
    assert res.failure["kind"] == "duplicate_upsert_ts"
    assert res.failure["ts"] == 1


def test_linearize_rejects_nonpositive_timestamps():
    res = linearize(Trace(keyspace_size=1, events=[U(0, 5, ts=0, inv=0, resp=1)]))
    assert not res.ok
    assert res.failure["kind"] == "nonpositive_upsert_ts"


def test_linearize_rejects_returns_nobody_wrote():
    s = S(0, 9, t0=0, tp=5, snap=0, inv=0, resp=1)
    res = linearize(Trace(keyspace_size=1, events=[s]))
    assert not res.ok
    assert res.failure["kind"] == "unmatched_return_ts"


def test_linearize_accepts_real_sequential_runs():
    s = LsmStructure.create(keyspace_size=16, root_capacity=4)
    rng = random.Random(5)
    seq = iter(range(10**9))
    events = []
    for _ in range(800):
        k = rng.randrange(16)
        if rng.random() < 0.5:
            v = rng.randrange(100)
            inv = next(seq)
            ts = s.upsert_timed(k, v)
            events.append(
                UpsertEvent(thread=0, key=k, value=v, ts=ts, inv=inv, resp=next(seq))
            )
        else:
            inv = next(seq)
            snap = s.history.snapshot()
            probe = s.search_timed(k)
            events.append(
                SearchEvent(thread=0, key=k, value=probe.value,
                            t0=s.history.max_ts(k, upto=snap).ts,
                            tp=probe.ts, snap=probe.snap, inv=inv, resp=next(seq))
            )
    res = linearize(Trace(keyspace_size=16, events=events))
    assert res.ok, res.failure
