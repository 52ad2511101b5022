import gc
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multicopy.core import (
    INITIAL,
    TOMBSTONE,
    HistoryCorruptionError,
    MulticopyError,
    TimedValue,
)
from multicopy.history import (
    SearchEvent,
    Trace,
    UpsertEvent,
    UpsertHistory,
    event_from_json,
)


def scan_max_ts(log, key, upto):
    """Oracle: linear scan of the prefix, newest entry for key wins."""
    best = INITIAL
    for k, v, t in log[:upto]:
        if k == key and t > best.ts:
            best = TimedValue(v, t)
    return best


def small_history():
    h = UpsertHistory(4)
    for ts, (k, v) in enumerate(
        [(0, 7), (1, 4), (0, 9), (2, TOMBSTONE), (1, 5)], start=1
    ):
        h.record_upsert(k, v, ts)
    return h


def test_max_ts_on_known_history():
    h = small_history()
    assert h.max_ts(0) == TimedValue(9, 3)
    assert h.max_ts(1) == TimedValue(5, 5)
    assert h.max_ts(2) == TimedValue(TOMBSTONE, 4)
    assert h.max_ts(3) == INITIAL
    # Prefix queries see the history as it was.
    assert h.max_ts(0, upto=2) == TimedValue(7, 1)
    assert h.max_ts(1, upto=1) == INITIAL
    assert h.max_ts(0, upto=0) == INITIAL


def test_contains_counts_implicit_initial_entries():
    h = small_history()
    assert h.contains(0, 7, 1)
    assert h.contains(2, TOMBSTONE, 4)
    assert not h.contains(0, 9, 1)  # right key and ts, wrong value
    assert not h.contains(0, 7, 3)  # right key and value, wrong ts
    assert not h.contains(1, 7, 1)  # wrong key
    assert not h.contains(0, 7, 6)  # beyond the log
    assert not h.contains(0, 7, -2)  # before the log
    for k in range(4):
        assert h.contains(k, TOMBSTONE, 0)
    assert not h.contains(0, 7, 0)


def test_a_gapped_history_cannot_be_recorded():
    # Timestamps 2, 3, 7 skip 1 from the start: each is refused, and the
    # history stays empty and holds none of them.
    h = UpsertHistory(4)
    for k, v, t in ((0, 5, 2), (1, 6, 3), (2, 7, 7)):
        with pytest.raises(HistoryCorruptionError, match=f"upsert timestamp {t} follows 0"):
            h.record_upsert(k, v, t)
        assert not h.contains(k, v, t)
    assert len(h) == 0 and h.max_published_ts() == 0


def test_record_upsert_stops_at_the_first_gap():
    for stamps, dense in (([1, 2, 4, 5], 2), ([2, 3], 0), ([1, 2, 3, 9], 3), ([1, 5], 1)):
        h = UpsertHistory(4)
        for t in stamps[:dense]:
            h.record_upsert(0, 1, t)
        with pytest.raises(HistoryCorruptionError, match="without gaps"):
            h.record_upsert(0, 1, stamps[dense])
        assert list(h.entries()) == [(0, 1, t) for t in stamps[:dense]], stamps


@given(
    ops=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 9) | st.none()),
        max_size=40,
    ),
    data=st.data(),
)
def test_max_ts_matches_linear_scan(ops, data):
    h = UpsertHistory(6)
    log = []
    for i, (k, raw) in enumerate(ops):
        v = TOMBSTONE if raw is None else raw
        h.record_upsert(k, v, i + 1)
        log.append((k, v, i + 1))
    key = data.draw(st.integers(0, 5))
    upto = data.draw(st.integers(0, len(ops) + 2))
    assert h.max_ts(key, upto=upto) == scan_max_ts(log, key, min(upto, len(log)))
    assert h.max_ts(key) == scan_max_ts(log, key, len(log))


def test_newest_copies_match_a_walk_of_the_log_on_random_histories():
    rng = random.Random(11)
    for _ in range(300):
        keyspace = rng.randint(1, 12)
        h = UpsertHistory(keyspace)
        for ts in range(1, rng.randint(0, 60) + 1):
            v = TOMBSTONE if rng.random() < 0.2 else rng.randrange(50)
            h.record_upsert(rng.randrange(keyspace), v, ts)
        walked = {k: (v, t) for k, v, t in h.entries()}
        # Same map, keys in the order of their first entry.
        assert list(h.newest_copies().items()) == list(walked.items())


@given(
    ops=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9)), max_size=30),
    key=st.integers(0, 3),
)
def test_max_ts_is_monotone_as_the_log_grows(ops, key):
    h = UpsertHistory(4)
    prev = h.max_ts(key).ts
    for i, (k, v) in enumerate(ops):
        h.record_upsert(k, v, i + 1)
        cur = h.max_ts(key).ts
        assert cur >= prev
        prev = cur


def test_record_upsert_rejects_broken_timestamps():
    h = UpsertHistory(2)
    with pytest.raises(HistoryCorruptionError):
        h.record_upsert(0, 1, 0)
    h.record_upsert(0, 1, 1)
    with pytest.raises(HistoryCorruptionError):
        h.record_upsert(0, 2, 1)  # duplicate
    with pytest.raises(HistoryCorruptionError):
        h.record_upsert(1, 2, 0)  # goes backwards
    with pytest.raises(HistoryCorruptionError, match="upsert timestamp 5 follows 1"):
        h.record_upsert(1, 2, 5)  # skips 2 to 4
    assert h.max_published_ts() == 1
    with pytest.raises(MulticopyError):
        h.record_upsert(2, 1, 2)  # key outside the keyspace


def test_recording_fresh_keys_adds_no_gc_tracked_objects():
    h = UpsertHistory(10_000)
    gc.disable()
    try:
        before = len(gc.get_objects())
        for k in range(5000):
            h.record_upsert(k, k + 1000, k + 1)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert added == 0
    assert h.max_ts(4999) == TimedValue(5999, 5000)


def test_history_rejects_a_bad_keyspace():
    for bad in (0, -1, "4", 2.0, True):
        with pytest.raises(MulticopyError, match="keyspace_size"):
            UpsertHistory(bad)


def test_snapshot_grows_with_appends():
    h = UpsertHistory(2)
    assert h.snapshot() == 0
    h.record_upsert(0, 1, 1)
    assert h.snapshot() == 1
    h.record_upsert(1, 2, 2)
    assert h.snapshot() == 2
    assert list(h.entries()) == [(0, 1, 1), (1, 2, 2)]


def test_search_recency_accepts_current_and_rejects_stale():
    h = small_history()
    # Key 0 was (7,1) after prefix 2 and (9,3) after prefix 5.
    assert h.check_search_recency(0, 9, 3, snap=5).ok
    assert h.check_search_recency(0, 7, 1, snap=2).ok
    stale = h.check_search_recency(0, 7, 1, snap=5)
    assert not stale.ok
    assert stale.t0 == 3
    assert "older" in stale.reason
    # Never-written key answered by the implicit initial copy.
    assert h.check_search_recency(3, TOMBSTONE, 0, snap=5).ok
    missing = h.check_search_recency(0, 8, 3, snap=5)
    assert not missing.ok
    assert "not present" in missing.reason


def test_history_predicates_against_clock():
    h = small_history()
    assert h.verify_predicates(clock=6).ok
    rep = h.verify_predicates(clock=5)
    assert not rep.ok and not rep.clock_ok and rep.unique_ok
    assert rep.witness == {"index": 4, "ts": 5, "clock": 5}


def sample_trace():
    return Trace(
        keyspace_size=3,
        events=[
            UpsertEvent(thread=0, key=1, value=4, ts=1, inv=0, resp=1),
            SearchEvent(
                thread=1, key=1, value=4, t0=1, tp=1, snap=1, inv=2, resp=3
            ),
            UpsertEvent(thread=0, key=1, value=TOMBSTONE, ts=2, inv=4, resp=5),
            SearchEvent(
                thread=1, key=2, value=TOMBSTONE, t0=0, tp=0, snap=2, inv=6, resp=7
            ),
        ],
    )


def test_trace_round_trips_through_jsonl(tmp_path):
    t = sample_trace()
    path = tmp_path / "trace.jsonl"
    t.dump(str(path))
    back = Trace.load(str(path))
    assert back.keyspace_size == 3
    assert back.events == t.events


def test_trace_wire_format_is_stable(tmp_path):
    t = sample_trace()
    path = tmp_path / "trace.jsonl"
    t.dump(str(path))
    lines = [json.loads(s) for s in path.read_text().splitlines()]
    assert lines[0] == {"keyspace_size": 3}
    search = lines[2]
    assert set(search) == {
        "op", "thread", "key", "value", "t0", "tp", "snap", "inv", "resp",
    }
    assert search["op"] == "search"
    upsert = lines[3]
    assert set(upsert) == {"op", "thread", "key", "value", "ts", "inv", "resp"}
    assert upsert["value"] is None  # tombstones travel as null
    assert event_from_json(search) == t.events[1]
    with pytest.raises(MulticopyError, match="unknown op 'compact'"):
        event_from_json({"op": "compact"})


def test_rebuild_history_replays_upserts_in_ts_order():
    t = sample_trace()
    random.Random(7).shuffle(t.events)
    h, clock = t.rebuild_history()
    assert clock == 3
    assert list(h.entries()) == [(1, 4, 1), (1, TOMBSTONE, 2)]
    assert h.max_ts(1) == TimedValue(TOMBSTONE, 2)


def test_rebuild_history_rejects_duplicate_timestamps():
    t = sample_trace()
    t.events.append(UpsertEvent(thread=2, key=0, value=9, ts=2, inv=8, resp=9))
    with pytest.raises(HistoryCorruptionError):
        t.rebuild_history()


def test_empty_trace_rebuilds_to_empty_history():
    h, clock = Trace(keyspace_size=2).rebuild_history()
    assert len(h) == 0 and clock == 1
