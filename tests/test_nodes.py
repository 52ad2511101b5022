import random

import pytest
from support import UnprobedEdgeset

from multicopy.core import (
    EdgesetDisjointnessError,
    MulticopyError,
    TimedValue,
    TOMBSTONE,
)
from multicopy.nodes import (
    NodeHandle,
    alloc_node,
    fresh_node_id,
    insert_node,
    merge_contents,
)


def node(node_id=1, capacity=4, entries=None):
    return NodeHandle(node_id, capacity, entries)


def test_buffer_add_and_overwrite():
    b = node(capacity=2)
    assert b.add_contents(3, 7, 1)
    assert b.in_contents(3) == TimedValue(7, 1)
    assert b.add_contents(3, 8, 2)  # overwrite, still one live record
    assert b.in_contents(3) == TimedValue(8, 2)
    assert b.live_count() == 1
    assert b.add_contents(1, 9, 3)
    assert b.at_capacity()
    # Full of other keys: a new key is refused, an overwrite is not.
    assert not b.add_contents(0, 1, 4)
    assert b.add_contents(1, 2, 5)
    assert b.contents() == {3: TimedValue(8, 2), 1: TimedValue(2, 5)}


def test_full_buffer_accepts_overwrites_and_stays_bounded():
    b = node(capacity=3)
    for ts in range(1, 40):
        # Every write after the third lands at a full root; all overwrite.
        assert b.add_contents(ts % 3, ts, ts)
        assert b.live_count() <= 3
    assert b.at_capacity() and b.live_count() == 3
    assert not b.add_contents(3, 0, 40)
    assert b.live_count() == 3
    assert b.in_contents(0) == TimedValue(39, 39)
    assert b.in_contents(2) == TimedValue(38, 38)
    assert b.in_contents(3) is None


def test_buffer_capacity_bounds_live_records_not_writes():
    b = node(capacity=1)
    assert b.add_contents(0, 1, 1)
    for ts in range(2, 10):
        assert b.add_contents(0, ts, ts)
    assert not b.add_contents(1, 0, 10)
    assert b.contents() == {0: TimedValue(9, 9)}


def test_unbounded_node_never_reports_full():
    b = node(capacity=None)
    for k in range(100):
        assert b.add_contents(k, k, k + 1)
    assert not b.at_capacity()


def test_in_contents_finds_only_the_nodes_own_copies():
    t = node(entries={5: TimedValue(1, 1), 2: TimedValue(2, 2), 9: TimedValue(3, 3)})
    assert t.in_contents(5) == TimedValue(1, 1)
    assert t.in_contents(4) is None


def test_node_constructor_validation():
    with pytest.raises(MulticopyError):
        NodeHandle(1, 0)


def test_choose_next_prefers_most_coverage_then_smaller_id():
    b = node(entries={0: TimedValue(1, 1), 1: TimedValue(1, 2), 5: TimedValue(1, 3)})
    b.succ_edgesets = {20: frozenset({0}), 12: frozenset({1, 5})}
    assert b.choose_next() == 12
    b.succ_edgesets = {20: frozenset({0}), 12: frozenset({1})}
    assert b.choose_next() == 12  # tie on coverage 1, smaller id wins
    b.succ_edgesets = {20: frozenset({7}), 12: frozenset({8})}
    assert b.choose_next() is None  # no edge touches a live key


def test_choose_next_with_one_successor_asks_only_whether_it_overlaps():
    b = node(entries={3: TimedValue(1, 1), 9: TimedValue(1, 2)})
    b.succ_edgesets = {30: frozenset({0, 1, 2})}
    assert b.choose_next() is None  # disjoint: a new node is needed
    b.succ_edgesets = {30: frozenset({1, 9})}
    assert b.choose_next() == 30  # one live key in the edgeset is enough
    b.succ_edgesets = {30: frozenset(range(1 << 16))}
    assert b.choose_next() == 30
    assert node(entries={}).choose_next() is None  # no successor at all


def test_alloc_node_yields_distinct_unlinked_tables():
    a, b = alloc_node(8), alloc_node(8)
    assert a.id != b.id
    assert a.live_count() == 0 and not a.succ_edgesets
    assert fresh_node_id() > b.id


def test_insert_node_guards():
    n, m, p = node(1), node(2), node(3)
    insert_node(n, m, frozenset({0, 1}))
    assert n.succ_edgesets[2] == frozenset({0, 1})
    with pytest.raises(MulticopyError):
        insert_node(n, m, frozenset({5}))  # already linked
    with pytest.raises(MulticopyError):
        insert_node(n, p, frozenset())  # empty edgeset
    with pytest.raises(EdgesetDisjointnessError):
        insert_node(n, p, frozenset({1, 2}))  # overlaps the existing edge
    insert_node(n, p, frozenset({2}))


def test_merge_requires_an_edge():
    n, m = node(1), node(2)
    with pytest.raises(MulticopyError):
        merge_contents(n, m)  # no edge yet
    insert_node(n, m, frozenset({0}))
    merge_contents(n, m)


def test_merge_moves_edge_keys_and_overwrites_for_free():
    n = node(1, capacity=4, entries={
        0: TimedValue(10, 5), 1: TimedValue(11, 6), 2: TimedValue(12, 7),
    })
    m = node(2, capacity=3, entries={1: TimedValue(1, 1), 3: TimedValue(3, 2)})
    insert_node(n, m, frozenset({0, 1, 2, 3}))
    # Room for one new record. Key order: k0 takes the slot, k1 overwrites
    # for free, k2 is skipped.
    assert set(merge_contents(n, m)) == {0, 1}
    assert n.contents() == {2: TimedValue(12, 7)}
    assert m.contents() == {
        0: TimedValue(10, 5), 1: TimedValue(11, 6), 3: TimedValue(3, 2),
    }


def test_merge_into_full_target_moves_nothing_new():
    n = node(1, entries={0: TimedValue(1, 3)})
    m = node(2, capacity=1, entries={5: TimedValue(2, 1)})
    insert_node(n, m, frozenset({0, 5}))
    assert set(merge_contents(n, m)) == set()
    assert n.live_count() == 1 and m.live_count() == 1


def test_merge_ignores_keys_outside_the_edge():
    n = node(1, entries={0: TimedValue(1, 1), 1: TimedValue(2, 2)})
    m = node(2, capacity=8)
    insert_node(n, m, frozenset({1}))
    assert set(merge_contents(n, m)) == {1}
    assert n.contents() == {0: TimedValue(1, 1)}


def expected_merge(src, dst, es, cap):
    """Oracle: greedy selection in key order over plain dicts."""
    room = None if cap is None else cap - len(dst)
    moved, new_src, new_dst = set(), dict(src), dict(dst)
    for k in sorted(set(src) & es):
        cost = 0 if k in dst else 1
        if room is not None:
            if cost > room:
                continue
            room -= cost
        moved.add(k)
        new_dst[k] = src[k]
        del new_src[k]
    return moved, new_src, new_dst


def random_merge_case(rng, keyspace):
    src = {
        k: TimedValue(rng.randrange(50), 1000 + k)
        for k in range(keyspace) if rng.random() < 0.6
    }
    dst = {
        k: TimedValue(rng.randrange(50), 1 + k)
        for k in range(keyspace) if rng.random() < 0.4
    }
    if rng.random() < 0.3:
        es = frozenset(range(keyspace))
    else:
        es = frozenset(k for k in range(keyspace) if rng.random() < 0.7)
    cap = rng.choice([
        None, max(1, len(dst)), len(dst) + 1, len(dst) + 3,
        max(1, len(dst) + rng.randint(0, len(src) // 2)), keyspace,
        # Room for exactly the whole source, and for one record less.
        max(1, len(dst) + len(src)), max(1, len(dst) + len(src) - 1),
    ])
    return src, dst, es, cap


def test_merge_matches_dict_oracle_on_random_pairs():
    # How often each branch of merge_contents ran: the whole-source move
    # (at and above the room boundary) and the per-record selection (room
    # one short of the source, or an edge missing some source key). The
    # hinted_ counts are the runs of a whole-keyspace edge that were also
    # merged with the keyspace size given.
    runs = dict.fromkeys(
        ("whole", "whole_room_exact", "select", "select_room_short",
         "select_edge_partial_unbounded", "hinted_whole", "hinted_select"), 0
    )
    for seed in range(400):
        rng = random.Random(seed)
        keyspace = rng.randint(1, 10) if seed < 200 else rng.randint(1, 400)
        src, dst, es, cap = random_merge_case(rng, keyspace)
        if not es:
            continue
        n = node(1, capacity=None, entries=src)
        m = node(2, capacity=cap, entries=dst)
        insert_node(n, m, es)
        before = n._records
        moved = merge_contents(n, m)
        room = None if cap is None else cap - len(dst)
        covered = es.issuperset(src)
        whole = covered and (room is None or room >= len(src))
        # The whole-source branch hands the source dict over; nothing
        # else returns it.
        assert (moved is before) == whole, f"seed {seed}"
        if whole:
            runs["whole"] += 1
            runs["whole_room_exact"] += room == len(src)
        else:
            runs["select"] += 1
            runs["select_room_short"] += covered and room == len(src) - 1
            runs["select_edge_partial_unbounded"] += room is None and not covered
        want_moved, want_src, want_dst = expected_merge(src, dst, es, cap)
        assert set(moved) == want_moved, f"seed {seed}"
        # The returned copies are exactly the source's copies of those keys.
        assert moved == {k: src[k] for k in want_moved}, f"seed {seed}"
        assert n.contents() == want_src, f"seed {seed}"
        assert m.contents() == want_dst, f"seed {seed}"
        # The pair keeps every key it had, and moved keys keep the source
        # copy, which is the newer one whenever timestamps respect the
        # downstream-older rule (source ts 1000+ vs target ts 1+ here).
        assert set(n.contents()) | set(m.contents()) == set(src) | set(dst)
        for k in moved:
            assert m.in_contents(k) == src[k]
        # The same merge told the keyspace size. A whole-keyspace edge is
        # then taken to own every key and never probed; any other edge is
        # probed as before. Either way the same records move, in the same
        # order.
        whole_keyspace = es == frozenset(range(keyspace))
        hn = node(1, capacity=None, entries=src)
        hm = node(2, capacity=cap, entries=dst)
        hn.succ_edgesets[hm.id] = UnprobedEdgeset(es) if whole_keyspace else es
        hinted_before = hn._records
        hinted = merge_contents(hn, hm, keyspace_size=keyspace)
        assert (hinted is hinted_before) == whole, f"seed {seed}"
        assert list(hinted.items()) == list(moved.items()), f"seed {seed}"
        assert hn.contents() == want_src, f"seed {seed}"
        assert list(hm.contents().items()) == list(m.contents().items()), f"seed {seed}"
        if whole_keyspace:
            runs["hinted_whole" if whole else "hinted_select"] += 1
    assert all(count >= 10 for count in runs.values()), runs


def test_merge_preserves_tombstone_records():
    n = node(1, entries={0: TimedValue(TOMBSTONE, 9)})
    m = node(2, capacity=4, entries={0: TimedValue(7, 1)})
    insert_node(n, m, frozenset({0}))
    assert set(merge_contents(n, m)) == {0}
    assert m.in_contents(0) == TimedValue(TOMBSTONE, 9)
