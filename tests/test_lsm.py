import gc
import random
import sys
import threading
from enum import IntEnum

import pytest

from multicopy.checker import check_invariants
from multicopy.core import (
    HistoryCorruptionError,
    MulticopyError,
    StructuralError,
    TOMBSTONE,
    TimedValue,
    check_key,
    is_tombstone,
)
from multicopy.df import DfStructure
from multicopy.harness import OrderCheckedLock, check_lock_order
from multicopy.lsm import LsmStructure, MulticopyStructure
from multicopy.history import UpsertHistory
from multicopy.nodes import NodeHandle, fresh_node_id


def run_random_ops(s, rng, n_ops, oracle=None):
    """Drive upserts/deletes/searches, checking every search against a dict."""
    oracle = {} if oracle is None else oracle
    for _ in range(n_ops):
        k = rng.randrange(s.keyspace_size)
        r = rng.random()
        if r < 0.5:
            v = rng.randrange(1000)
            s.upsert(k, v)
            oracle[k] = v
        elif r < 0.6:
            s.delete(k)
            oracle.pop(k, None)
        else:
            got = s.search(k)
            want = oracle.get(k)
            if want is None:
                assert is_tombstone(got), f"key {k}: got {got!r}, expected deleted"
            else:
                assert got == want, f"key {k}: got {got!r}, expected {want}"
    return oracle


def test_sequential_ops_match_dict_oracle():
    s = LsmStructure.create(keyspace_size=32, root_capacity=4)
    log = check_lock_order(s)
    oracle = run_random_ops(s, random.Random(42), 3000)
    for k in range(32):
        got = s.search(k)
        if k in oracle:
            assert got == oracle[k]
        else:
            assert is_tombstone(got)
    # The structure grew past the lone root while staying sound.
    assert len(s.node_ids()) > 1
    g = s.snapshot_graph()
    report = check_invariants(g, s.history, s.clock)
    assert report.ok, report.format_text()
    assert log.violations == []


def test_search_timed_reports_timestamp_and_snapshot():
    s = LsmStructure.create(keyspace_size=8, root_capacity=4)
    t1 = s.upsert_timed(3, 50)
    assert t1 == 1
    probe = s.search_timed(3)
    assert (probe.value, probe.ts) == (50, 1)
    assert probe.snap == s.history.snapshot() == 1
    missing = s.search_timed(5)
    assert is_tombstone(missing.value) and missing.ts == 0


def test_a_structure_takes_only_a_dense_history_and_passes_its_own_recency_check():
    h = UpsertHistory(4)
    with pytest.raises(HistoryCorruptionError, match="upsert timestamp 2 follows 0"):
        h.record_upsert(0, 5, 2)
    h.record_upsert(0, 4, 1)
    h.record_upsert(0, 5, 2)
    root = NodeHandle(fresh_node_id(), 4, {0: TimedValue(5, 2)})
    s = LsmStructure(4, root.id, [root], history=h)
    assert s.clock == 3
    probe = s.search_timed(0)
    assert (probe.value, probe.ts, probe.snap) == (5, 2, 2)
    rec = h.check_search_recency(0, probe.value, probe.ts, probe.snap)
    assert rec.ok, rec.reason


def test_upsert_timestamps_are_dense_and_clock_advances():
    s = LsmStructure.create(keyspace_size=4, root_capacity=8)
    assert [s.upsert_timed(k % 4, k) for k in range(6)] == [1, 2, 3, 4, 5, 6]
    assert s.clock == 7
    assert len(s.history) == 6


def test_delete_is_an_upsert_of_the_tombstone():
    s = LsmStructure.create(keyspace_size=4, root_capacity=4)
    s.upsert(0, 9)
    s.delete(0)
    assert is_tombstone(s.search(0))
    # The tombstone is a real record with its own timestamp, not an absence.
    assert s.history.max_ts(0).ts == 2
    assert is_tombstone(s.history.max_ts(0).value)


def test_flush_grows_a_doubling_chain():
    s = LsmStructure.create(keyspace_size=16, root_capacity=2, growth_factor=2)
    s.upsert(0, 10)
    s.upsert(1, 11)
    root = s.handle(s.root_id)
    assert root.at_capacity()
    s.compact()
    assert root.live_count() == 0
    ids = s.node_ids()
    assert len(ids) == 2
    t1 = s.handle(next(i for i in ids if i != s.root_id))
    assert t1.capacity == 4
    assert t1.contents() == {0: s.history.max_ts(0), 1: s.history.max_ts(1)}
    # The root's recorded view of its successor covers the moved keys.
    g = s.snapshot_graph()
    assert set(g.succ_reach[s.root_id]) == {0, 1}

    # The next flush tops t1 up to its capacity of 4, so the same cascade
    # continues at t1 and grows a fresh table of 8 behind it.
    s.upsert(2, 12)
    s.upsert(3, 13)
    s.compact()
    caps = sorted(
        s.handle(i).capacity for i in s.node_ids() if i != s.root_id
    )
    assert caps == [4, 8]
    assert t1.live_count() == 0  # drained into the new sink
    s.upsert(4, 14)
    s.upsert(5, 15)
    s.compact()  # now lands in the empty t1 without cascading further
    assert t1.live_count() == 2 and len(s.node_ids()) == 3
    report = check_invariants(s.snapshot_graph(), s.history, s.clock)
    assert report.ok, report.format_text()


def test_a_failing_merge_step_releases_both_locks():
    s = LsmStructure.create(keyspace_size=16, root_capacity=2)
    for k in range(4):
        s.upsert(k, k)
        s.compact()  # root -> t1 (cap 4) -> t2 (cap 8) by the fourth
    root, (t1, t2) = s.root_id, sorted(set(s.node_ids()) - {s.root_id})
    assert list(s.handle(root).succ_edgesets) == [t1]
    s.upsert(8, 80)
    s.upsert(9, 90)
    log = check_lock_order(s)
    # t2 is not a successor of the root, so the merge step fails after it
    # has taken both locks.
    with pytest.raises(MulticopyError, match=f"no edge {root}->{t2}"):
        s._merge_down(root, lambda n: t2)
    assert log.held() == []
    assert not any(lock.locked() for lock in s._locks.values())
    assert [v["reason"] for v in log.violations] == [
        "second lock is not a successor of the first"
    ]
    s.compact()
    s.upsert(10, 100)
    s.compact()
    assert [s.search(k) for k in (0, 8, 9, 10)] == [0, 80, 90, 100]
    assert check_invariants(s.snapshot_graph(), s.history, s.clock).ok


def test_a_sink_grown_after_check_lock_order_gets_a_checking_lock():
    s = LsmStructure.create(keyspace_size=16, root_capacity=2)
    log = check_lock_order(s)
    for k in range(4):
        s.upsert(k, k)
        s.compact()  # grows t1, then t2, both after the swap
    root, (t1, t2) = s.root_id, sorted(set(s.node_ids()) - {s.root_id})
    assert all(isinstance(lock, OrderCheckedLock) for lock in s._locks.values())
    assert log.violations == []
    s.upsert(8, 80)
    s.upsert(9, 90)
    with pytest.raises(MulticopyError, match=f"no edge {root}->{t2}"):
        s._merge_down(root, lambda n: t2)
    assert [(v["held"], v["acquiring"]) for v in log.violations] == [([root], t2)]
    assert log.held() == []


def test_created_structures_and_their_grown_sinks_hold_plain_locks():
    plain = type(threading.Lock())
    lsm = LsmStructure.create(keyspace_size=16, root_capacity=2)
    df = DfStructure.create(keyspace_size=16, root_capacity=2)
    lock_code = []

    def spy(frame, event, arg):
        if event == "call" and frame.f_code.co_name in ("acquire", "release"):
            lock_code.append(frame.f_code.co_qualname)

    sys.setprofile(spy)
    try:
        for s in (lsm, df):
            for k in range(12):
                s.upsert(k, k)  # on-fail maintenance grows lsm's sinks
                s.search(k)
    finally:
        sys.setprofile(None)
    assert len(lsm.node_ids()) > 2
    for s in (lsm, df):
        assert all(type(lock) is plain for lock in s._locks.values())
    assert lock_code == []


def test_chain_stays_a_list_with_growing_capacities():
    s = LsmStructure.create(keyspace_size=64, root_capacity=2, growth_factor=3)
    rng = random.Random(7)
    for _ in range(300):
        s.upsert(rng.randrange(64), rng.randrange(100))
    g = s.snapshot_graph()
    for n in g.nodes:
        assert len(g.successors(n)) <= 1  # list shape
        for m in g.successors(n):
            assert s.handle(m).capacity == s.handle(n).capacity * 3
    assert check_invariants(g, s.history, s.clock).ok


def test_full_root_stalls_upserts_until_someone_flushes():
    s = LsmStructure.create(keyspace_size=4, root_capacity=1)
    compacted = threading.Event()
    s.set_on_root_full(lambda: compacted.wait(5))  # wait for room, make none
    s.upsert(0, 5)
    got = {}

    def writer():
        got["ts"] = s.upsert_timed(1, 6)

    th = threading.Thread(target=writer, daemon=True)
    th.start()
    th.join(timeout=0.25)
    assert th.is_alive(), "upsert should wait in its hook while the root is full"
    s.compact()
    compacted.set()
    th.join(timeout=5)
    assert not th.is_alive()
    assert got["ts"] == 2
    assert s.search(1) == 6


@pytest.mark.parametrize(
    "make", [lambda: LsmStructure.create(4, 1), lambda: DfStructure.create(4, 1)],
    ids=["lsm", "df"],
)
def test_a_root_nothing_relieves_fails_the_write(make):
    s = make()
    hooks = []
    s.set_on_root_full(lambda: hooks.append("no room made"))
    s.upsert(0, 5)
    with pytest.raises(
        MulticopyError,
        match=f"root {s.root_id} full: two hook rounds moved no record",
    ):
        s.upsert(1, 6)
    assert len(hooks) == 2
    assert s.clock == 2 and s.search(1) is TOMBSTONE  # nothing was written
    # A first round that moves nothing, as a pass begun before the root
    # filled may, does not fail the write when the second one makes room.
    rounds = iter([lambda: None, s.maintenance_pass])
    s.set_on_root_full(lambda: next(rounds)())
    assert s.upsert_timed(1, 6) == 2
    assert s.search(1) == 6


def test_overwrites_never_stall_even_at_a_full_root():
    s = LsmStructure.create(keyspace_size=4, root_capacity=1)
    s.set_on_root_full(lambda: pytest.fail("an overwrite found the root full"))
    s.upsert(2, 1)
    for v in range(2, 8):
        s.upsert(2, v)  # same key: overwrite, no room needed
    assert s.search(2) == 7


def test_snapshot_is_isolated_from_later_writes():
    s = LsmStructure.create(keyspace_size=8, root_capacity=4)
    s.upsert(1, 10)
    g = s.snapshot_graph()
    s.upsert(1, 20)
    s.upsert(2, 30)
    assert g.contents[s.root_id][1].value == 10
    assert 2 not in g.contents[s.root_id]


def test_constructor_validation():
    root = NodeHandle(900, 4)
    with pytest.raises(MulticopyError):
        MulticopyStructure(0, root.id, [root])
    with pytest.raises(StructuralError, match="kind=root_missing root=999"):
        MulticopyStructure(4, 999, [root])
    with pytest.raises(MulticopyError):
        MulticopyStructure(4, root.id, [root], growth_factor=0)
    with pytest.raises(MulticopyError):
        LsmStructure.create(keyspace_size=4, root_capacity=4).upsert(4, 1)
    # A history of another keyspace would accept or reject keys the
    # structure does not, after the root has taken the write.
    for other in (4, 16):
        with pytest.raises(MulticopyError, match=f"history keyspace {other} is not 8"):
            LsmStructure(8, root.id, [root], history=UpsertHistory(other))
    # Malformed shapes are only built, never searched: a search over the
    # cycle would never return.
    a, b, c = NodeHandle(910, 4), NodeHandle(911, 4), NodeHandle(912, 4)
    a.succ_edgesets = {b.id: frozenset({0})}
    b.succ_edgesets = {a.id: frozenset({0})}
    with pytest.raises(StructuralError, match="kind=cycle"):
        LsmStructure(4, a.id, [a, b])
    a.succ_edgesets = {b.id: frozenset({0}), 9999: frozenset({1})}
    b.succ_edgesets = {}
    with pytest.raises(StructuralError, match="kind=dangling_edge src=910 dst=9999"):
        LsmStructure(4, a.id, [a, b])
    a.succ_edgesets = {b.id: frozenset({0, 1}), c.id: frozenset({1, 2})}
    with pytest.raises(StructuralError, match="kind=edgeset_overlap node=910 succ_a=911 succ_b=912"):
        LsmStructure(4, a.id, [a, b, c])


def test_constructor_rejects_keys_outside_the_keyspace():
    # Merges and search hops take an edge of keyspace_size keys to own every
    # key, which holds only if no given key leaves the keyspace.
    a, b = NodeHandle(920, 4, {99: TimedValue(1, 1)}), NodeHandle(921, 4)
    a.succ_edgesets = {b.id: frozenset(range(4))}
    with pytest.raises(StructuralError, match=r"node 920 holds key 99 outside keyspace \[0, 4\)"):
        LsmStructure(4, a.id, [a, b])
    a = NodeHandle(920, 4, {-1: TimedValue(1, 1)})
    with pytest.raises(StructuralError, match="node 920 holds key -1 outside"):
        LsmStructure(4, a.id, [a, b])
    # check_key rejects a bool key, so a given node may not hold one either,
    # not even as the implicit initial copy, which every history contains.
    a = NodeHandle(920, 4, {True: TimedValue(TOMBSTONE, 0)})
    with pytest.raises(StructuralError, match="node 920 holds key True outside"):
        LsmStructure(4, a.id, [a, b])
    a = NodeHandle(920, 4)
    a.succ_edgesets = {b.id: frozenset({0, 1, 77})}
    with pytest.raises(StructuralError, match=r"edge 920->921 owns key 77 outside keyspace \[0, 4\)"):
        LsmStructure(4, a.id, [a, b])
    a.succ_edgesets = {b.id: frozenset({-3, 1})}
    with pytest.raises(StructuralError, match="edge 920->921 owns key -3 outside"):
        LsmStructure(4, a.id, [a, b])
    # Four keys but not the keyspace: routed unprobed, key 1 would go down.
    a.succ_edgesets = {b.id: frozenset({0, 1.5, 2, 3})}
    with pytest.raises(StructuralError, match="edge 920->921 owns key 1.5 outside"):
        LsmStructure(4, a.id, [a, b])
    a.succ_edgesets = {b.id: frozenset({0, "x"})}
    with pytest.raises(StructuralError, match="edge 920->921 owns key 'x' outside"):
        LsmStructure(4, a.id, [a, b])
    a.succ_edgesets = {b.id: frozenset({False, 1})}
    with pytest.raises(StructuralError, match="edge 920->921 owns key False outside"):
        LsmStructure(4, a.id, [a, b])
    a.succ_edgesets = {b.id: frozenset(range(4))}
    assert LsmStructure(4, a.id, [a, b]).search(3) is TOMBSTONE


def test_constructor_rejects_a_copy_the_history_does_not_hold():
    a, b = NodeHandle(930, 4, {2: TimedValue(7, 5)}), NodeHandle(931, 4)
    a.succ_edgesets = {b.id: frozenset(range(4))}
    # Accepted, the clock would start at 1 and hand timestamp 5 out again.
    with pytest.raises(MulticopyError, match=r"node 930 holds key 2 copy \(7@5\)"):
        LsmStructure(4, a.id, [a, b], history=UpsertHistory(4))
    h = UpsertHistory(4)
    for ts in range(1, 6):
        h.record_upsert(2, 7 if ts == 5 else 0, ts)
    b = NodeHandle(931, 4, {2: TimedValue(6, 3)})  # ts 3 wrote value 0, not 6
    with pytest.raises(MulticopyError, match=r"node 931 holds key 2 copy \(6@3\)"):
        LsmStructure(4, a.id, [a, b], history=h)
    b = NodeHandle(931, 4, {2: TimedValue(0, 3), 1: TimedValue(TOMBSTONE, 0)})
    s = LsmStructure(4, a.id, [a, b], history=h)
    assert s.clock == 6 and s.search(2) == 7


def test_concurrent_hammering_stays_sound():
    s = LsmStructure.create(keyspace_size=24, root_capacity=4)
    log = check_lock_order(s)
    probes = [[] for _ in range(4)]

    def worker(tid):
        rng = random.Random(tid)
        for _ in range(400):
            k = rng.randrange(24)
            if rng.random() < 0.5:
                s.upsert(k, rng.randrange(1000))
            else:
                snap_probe = s.search_timed(k)
                probes[tid].append((k, snap_probe))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert log.violations == []
    # Every search returned a copy that was in the history and no older
    # than the key's copy at its invocation snapshot.
    for tid in range(4):
        for k, p in probes[tid]:
            res = s.history.check_search_recency(k, p.value, p.ts, p.snap)
            assert res.ok, res.to_dict()
    report = check_invariants(s.snapshot_graph(), s.history, s.clock)
    assert report.ok, report.format_text()
    assert s.history.verify_predicates(s.clock).ok


def test_tombstones_survive_flushing():
    s = LsmStructure.create(keyspace_size=8, root_capacity=2)
    s.upsert(0, 1)
    s.delete(0)  # overwrite: root holds only the tombstone now
    s.upsert(1, 2)
    s.compact()
    assert is_tombstone(s.search(0))
    disk = next(i for i in s.node_ids() if i != s.root_id)
    assert is_tombstone(s.handle(disk).in_contents(0).value)


class _Key(IntEnum):
    THREE = 3


# Keys an inline key test could judge differently from check_key: a bool,
# both ends just outside the keyspace, a float, a string, and an int
# subclass inside it, which check_key accepts.
ODD_KEYS = [True, -1, 4, 1.5, "3", _Key.THREE]


def _outcome(call):
    """(exception type, message) of call, or None if it returned."""
    try:
        call()
    except Exception as e:
        return type(e), str(e)
    return None


@pytest.mark.parametrize("key", ODD_KEYS, ids=repr)
def test_the_guarded_op_path_accepts_exactly_what_check_key_accepts(key):
    want = _outcome(lambda: check_key(key, 4))
    assert (want is None) == (key is _Key.THREE)

    def recorded():
        h = UpsertHistory(4)
        h.record_upsert(key, 5, 1)
        assert h.max_ts(3) == TimedValue(5, 1)

    def upserted():
        s = LsmStructure.create(4, 2)
        try:
            s.upsert_timed(key, 5)
        finally:
            # A rejected key reaches neither the root nor the history.
            assert s.handle(s.root_id).contents() == ({} if want else {3: TimedValue(5, 1)})
            assert len(s.history) == (0 if want else 1)

    sites = {
        "search_timed": lambda: LsmStructure.create(4, 2).search_timed(key),
        "upsert_timed": upserted,
        "record_upsert": recorded,
        "max_ts": lambda: UpsertHistory(4).max_ts(key),
        "check_search_recency": lambda: UpsertHistory(4).check_search_recency(
            key, TOMBSTONE, 0, 0
        ),
    }
    assert {name: _outcome(call) for name, call in sites.items()} == dict.fromkeys(sites, want)


def _gc_tracked_delta(ops):
    """GC-tracked objects that ops leaves behind. With collection off every
    new container stays in generation 0, so this counts them all."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects(0))
        ops()
        return len(gc.get_objects(0)) - before
    finally:
        gc.enable()


@pytest.mark.parametrize("structure", [LsmStructure, DfStructure])
def test_the_op_path_retains_one_gc_tracked_object_per_root_append_and_none_per_search(structure):
    # Every GC-tracked object the op path keeps alive is a chance for a
    # collection to land on an upsert; a root append keeps its copy alone.
    n = 2000
    s = structure.create(keyspace_size=n, root_capacity=n)
    # The root's records dict is tracked from its first copy on.
    s.upsert(0, 1000)
    assert _gc_tracked_delta(lambda: [s.upsert(k, k + 1000) for k in range(1, n)]) == n - 1
    assert _gc_tracked_delta(lambda: [s.search(k) for k in range(n)]) == 0
