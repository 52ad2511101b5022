import random
import threading

import pytest

from multicopy.checker import check_invariants
from multicopy.core import MulticopyError, is_tombstone
from multicopy.df import DfStructure

from test_lsm import run_random_ops


def test_create_shape():
    s = DfStructure.create(keyspace_size=16, root_capacity=4)
    assert len(s.node_ids()) == 2
    root, disk = s.handle(s.root_id), s.handle(s.disk_id)
    assert root.succ_edgesets == {s.disk_id: frozenset(range(16))}
    assert disk.capacity is None
    assert disk.succ_edgesets == {}


def test_sequential_ops_match_dict_oracle():
    s = DfStructure.create(keyspace_size=32, root_capacity=4)
    log = s.check_lock_order()
    oracle = run_random_ops(s, random.Random(13), 3000)
    for k in range(32):
        got = s.search(k)
        if k in oracle:
            assert got == oracle[k]
        else:
            assert is_tombstone(got)
    assert len(s.node_ids()) == 2  # never grows
    assert log.violations == []
    report = check_invariants(s.snapshot_graph(), s.history, s.clock)
    assert report.ok, report.format_text()


def test_flush_always_empties_the_buffer():
    s = DfStructure.create(keyspace_size=8, root_capacity=8)
    s.flush()  # flushing an empty buffer is legal
    for k in range(8):
        s.upsert(k, k * 10)
    s.delete(3)
    s.flush()
    root, disk = s.handle(s.root_id), s.handle(s.disk_id)
    assert root.live_count() == 0
    assert disk.live_count() == 8
    assert is_tombstone(disk.in_contents(3).value)
    assert s.search(5) == 50
    assert is_tombstone(s.search(3))
    # The root's recorded view covers everything it pushed down.
    assert set(s.snapshot_graph().succ_reach[s.root_id]) == set(range(8))


def test_buffered_copies_are_strictly_newer_than_disk():
    s = DfStructure.create(keyspace_size=16, root_capacity=4)
    rng = random.Random(99)
    for i in range(600):
        s.upsert(rng.randrange(16), rng.randrange(100))
        if i % 37 == 0:
            s.flush()
        g = s.snapshot_graph()
        root_c = g.contents[s.root_id]
        disk_c = g.contents[s.disk_id]
        for k, tv in root_c.items():
            if k in disk_c:
                assert tv.ts > disk_c[k].ts, f"key {k} at op {i}"


def test_df_does_not_compact():
    s = DfStructure.create(keyspace_size=4, root_capacity=2)
    with pytest.raises(MulticopyError):
        s.compact()


def test_concurrent_writers_with_auto_flush():
    s = DfStructure.create(keyspace_size=12, root_capacity=3)
    log = s.check_lock_order()
    probes = []
    lock = threading.Lock()

    def worker(tid):
        rng = random.Random(tid)
        mine = []
        for _ in range(300):
            k = rng.randrange(12)
            if rng.random() < 0.6:
                s.upsert(k, rng.randrange(1000))
            else:
                mine.append((k, s.search_timed(k)))
        with lock:
            probes.extend(mine)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert log.violations == []
    for k, p in probes:
        res = s.history.check_search_recency(k, p.value, p.ts, p.snap)
        assert res.ok, res.to_dict()
    report = check_invariants(s.snapshot_graph(), s.history, s.clock)
    assert report.ok, report.format_text()
    assert s.history.verify_predicates(s.clock).ok
