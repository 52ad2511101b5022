import random
from collections import Counter

import pytest
from support import inset_path_counts, naive_flow, random_dag

from multicopy.core import (
    EdgesetDisjointnessError,
    StructuralError,
    TimedValue,
)
from multicopy.graph import (
    MulticopyGraph,
    compute_flow,
    contents_in_reach,
    derive_succ_reach,
    flow_residuals,
    graph_from_json,
    graph_to_json,
    inset_map,
    load_graph,
    local_reach,
    next_node_for,
    reach_maps,
    routed_keys,
    save_graph,
    structural_issues,
    topological_order,
)


def diamond():
    """Four nodes, two routes down, one dead key (k2 unreachable from 2).

    Expected values below were worked out by hand from the recursive
    definition before this module existed; do not regenerate them from code.
    """
    g = MulticopyGraph(keyspace_size=4, root=0, nodes={0, 1, 2, 3})
    g.contents = {
        0: {1: TimedValue(10, 5)},
        1: {0: TimedValue(11, 2)},
        2: {3: TimedValue(12, 1)},
        3: {0: TimedValue(13, 3), 2: TimedValue(14, 4), 3: TimedValue(15, 6)},
    }
    g.edgesets = {
        0: {1: frozenset({0, 1}), 2: frozenset({2, 3})},
        1: {3: frozenset({0})},
        2: {3: frozenset({3})},
    }
    g.succ_reach = derive_succ_reach(g)
    return g


def test_reach_on_diamond_matches_hand_computation():
    g = diamond()
    assert contents_in_reach(g, 0, 0) == TimedValue(11, 2)
    assert contents_in_reach(g, 0, 1) == TimedValue(10, 5)  # own copy wins
    assert contents_in_reach(g, 0, 2) is None  # node 2 neither holds nor routes k2
    assert contents_in_reach(g, 0, 3) == TimedValue(12, 1)
    assert contents_in_reach(g, 2, 3) == TimedValue(12, 1)
    assert contents_in_reach(g, 3, 3) == TimedValue(15, 6)
    assert reach_maps(g)[0] == {
        0: TimedValue(11, 2),
        1: TimedValue(10, 5),
        3: TimedValue(12, 1),
    }


def test_derived_succ_reach_on_diamond():
    g = diamond()
    assert g.succ_reach[0] == {0: TimedValue(11, 2), 3: TimedValue(12, 1)}
    assert g.succ_reach[1] == {0: TimedValue(13, 3)}
    assert g.succ_reach[2] == {3: TimedValue(15, 6)}
    assert g.succ_reach[3] == {}


def test_insets_on_diamond():
    g = diamond()
    assert inset_map(g) == {
        0: frozenset({0, 1, 2, 3}),
        1: frozenset({0, 1}),
        2: frozenset({2, 3}),
        3: frozenset({0, 3}),
    }
    assert inset_map(g)[3] == frozenset({0, 3})
    assert routed_keys(g, 0) == frozenset({0, 1, 2, 3})
    assert routed_keys(g, 3) == frozenset()


def test_flows_on_diamond_match_hand_computation():
    g = diamond()
    cir = compute_flow(g, "cir")
    assert cir[0] == Counter()
    assert cir[1] == Counter({(0, TimedValue(11, 2)): 1})
    assert cir[2] == Counter({(3, TimedValue(12, 1)): 1})
    assert cir[3] == Counter(
        {(0, TimedValue(13, 3)): 1, (3, TimedValue(15, 6)): 1}
    )
    ins = compute_flow(g, "inset")
    assert ins[0] == Counter({0: 1, 1: 1, 2: 1, 3: 1})
    assert ins[3] == Counter({0: 1, 3: 1})
    assert flow_residuals(g, "cir", cir) == {}
    assert flow_residuals(g, "inset", ins) == {}


def test_flow_residuals_flag_tampering():
    g = diamond()
    ins = compute_flow(g, "inset")
    ins[3][0] += 1
    res = flow_residuals(g, "inset", ins)
    assert res == {3: Counter({0: 1})}
    cir = compute_flow(g, "cir")
    del cir[1][(0, TimedValue(11, 2))]
    assert 1 in flow_residuals(g, "cir", cir)


def test_compute_flow_rejects_unknown_kind():
    with pytest.raises(ValueError):
        compute_flow(diamond(), "outset")


def overlap_diamond():
    # Deliberately breaks edgeset disjointness so two root paths carry k0
    # into node 3; flow multiplicities must count both.
    g = MulticopyGraph(keyspace_size=1, root=0, nodes={0, 1, 2, 3})
    g.edgesets = {
        0: {1: frozenset({0}), 2: frozenset({0})},
        1: {3: frozenset({0})},
        2: {3: frozenset({0})},
    }
    return g


def test_inset_flow_counts_paths_not_just_support():
    g = overlap_diamond()
    ins = compute_flow(g, "inset")
    assert ins[3] == Counter({0: 2})
    assert inset_path_counts(g)[3] == Counter({0: 2})
    assert naive_flow(g, "inset")[3] == Counter({0: 2})
    issues = structural_issues(g)
    assert [i["kind"] for i in issues] == ["edgeset_overlap"]
    assert issues[0]["keys"] == [0]
    with pytest.raises(EdgesetDisjointnessError):
        next_node_for(g, 0, 0)


def test_flows_match_naive_iteration_on_random_dags():
    for seed in range(150):
        g = random_dag(random.Random(seed))
        for kind in ("cir", "inset"):
            fl = compute_flow(g, kind)
            assert fl == naive_flow(g, kind), f"seed {seed} kind {kind}"
            assert flow_residuals(g, kind, fl) == {}, f"seed {seed} kind {kind}"


def test_inset_flow_equals_path_enumeration_on_random_dags():
    for seed in range(150):
        g = random_dag(random.Random(seed))
        fl = compute_flow(g, "inset")
        paths = inset_path_counts(g)
        assert fl == paths, f"seed {seed}"
        assert inset_map(g) == {
            n: frozenset(c) for n, c in paths.items()
        }, f"seed {seed}"


def test_local_reach_equals_recursive_reach_with_consistent_records():
    for seed in range(150):
        g = random_dag(random.Random(1000 + seed), derived_reach=True)
        full = reach_maps(g)
        for n in g.nodes:
            assert local_reach(g, n) == full[n], f"seed {seed} node {n}"


def test_local_reach_diverges_when_a_record_is_tampered():
    g = diamond()
    g.succ_reach[0][0] = TimedValue(11, 9)  # claims a copy that never existed
    assert local_reach(g, 0)[0] != reach_maps(g)[0][0]


def test_reach_matches_per_key_recursion_on_random_dags():
    for seed in range(60):
        g = random_dag(random.Random(2000 + seed))
        full = reach_maps(g)
        for n in g.nodes:
            for k in range(g.keyspace_size):
                assert contents_in_reach(g, n, k) == full[n].get(k)


def test_structural_issue_detection():
    g = MulticopyGraph(keyspace_size=2, root=5, nodes={0, 1})
    g.edgesets = {0: {9: frozenset({0})}}
    kinds = {i["kind"] for i in structural_issues(g)}
    assert kinds == {"root_missing", "dangling_edge"}

    cyc = MulticopyGraph(keyspace_size=2, root=0, nodes={0, 1})
    cyc.edgesets = {0: {1: frozenset({0})}, 1: {0: frozenset({0})}}
    assert {i["kind"] for i in structural_issues(cyc)} == {"cycle"}
    with pytest.raises(StructuralError):
        topological_order(cyc)
    with pytest.raises(StructuralError):
        contents_in_reach(cyc, 0, 0)
    # A cycle is only an error for keys whose resolution enters it.
    cyc.contents = {0: {0: TimedValue(1, 1)}}
    assert contents_in_reach(cyc, 0, 0) == TimedValue(1, 1)


def test_clean_graph_reports_no_issues():
    assert structural_issues(diamond()) == []
    order = topological_order(diamond())
    assert order.index(0) < order.index(1) < order.index(3)


def test_snapshot_serialization_round_trip(tmp_path):
    for seed in (3, 17, 99):
        g = random_dag(random.Random(seed))
        path = tmp_path / f"g{seed}.json"
        save_graph(g, str(path))
        back = load_graph(str(path))
        assert graph_to_json(back) == graph_to_json(g)
        assert reach_maps(back) == reach_maps(g)
        assert compute_flow(back, "cir") == compute_flow(g, "cir")


def test_serialization_keeps_tombstones_distinct_from_values(tmp_path):
    g = diamond()
    from multicopy.core import TOMBSTONE

    g.contents[3][1] = TimedValue(TOMBSTONE, 7)
    back = graph_from_json(graph_to_json(g))
    assert back.contents[3][1].value is TOMBSTONE
    assert back.contents[3][0].value == 13
