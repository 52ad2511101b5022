"""Upsert history: the append-only log that defines what a search may return.

Every successful upsert appends (key, value) while holding the root lock and
takes the next timestamp of a gapless clock, so a timestamp is a log position:
the entry at index i has timestamp i+1, and no timestamp is stored. Readers
never lock: they take a snapshot by reading the published length and treat
the prefix below it as a frozen history H0. On top of the log live the two
derived notions the checkers need: max_ts (the current copy of a key,
(tombstone, 0) if never written) and the per-search recency condition "the
returned copy is no older than the key's copy at invocation time".

Traces are separate from the history: they record operation invocations and
responses (with global sequence numbers) for offline linearizability
checking, serialized one JSON object per line. A trace is stored the way the
log is, as columns: a search table and an upsert table, an array('q') for
each int field and one list for the values. Event objects are built only
when a row is read.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count, islice
from operator import eq
from typing import Iterable, Iterator, Optional, Union

from .core import (
    INITIAL,
    TOMBSTONE,
    HistoryCorruptionError,
    Key,
    MulticopyError,
    TimedValue,
    Timestamp,
    Value,
    check_key,
    check_keyspace,
    decode_value,
    encode_value,
    int_field,
)


class UpsertHistory:
    """Append-only upsert log with lock-free prefix snapshots.

    Writers must serialize externally (the templates append under the root
    lock). Readers may call snapshot/max_ts/check_search_recency from any
    thread: appends publish by growing the log first and bumping the
    published length last, so any published prefix is fully written.
    """

    def __init__(self, keyspace_size: int):
        check_keyspace(keyspace_size)
        self.keyspace_size = keyspace_size
        # One column for keys and one for values, so an entry adds only an
        # int and the value to lists that already exist: nothing the garbage
        # collector tracks. The timestamp is the position plus one.
        self._keys: list[Key] = []
        self._values: list[Value] = []
        # Per-key chain: _last[key] is the index of key's newest entry and
        # _prev[i] that of the entry before i with the same key (-1: none).
        self._last: dict[Key, int] = {}
        self._prev: list[int] = []
        self._published = 0

    def __len__(self) -> int:
        return self._published

    def snapshot(self) -> int:
        """Current published length; index of a frozen consistent prefix."""
        return self._published

    def entries(self) -> Iterator[tuple[Key, Value, Timestamp]]:
        """Iterate the published prefix."""
        return islice(zip(self._keys, self._values, count(1)), self._published)

    def record_upsert(self, key: Key, value: Value, ts: Timestamp) -> None:
        """Append one upsert. Caller must hold the root lock.

        The clock hands out 1, 2, 3, ... without gaps, so ts must be one
        past the last logged timestamp; anything else means the clock
        discipline was broken and the history is corrupt.
        """
        i = self._published
        if ts != i + 1:
            raise HistoryCorruptionError(
                f"upsert timestamp {ts} follows {i}; "
                "timestamps must run 1, 2, 3, ... without gaps"
            )
        if not (type(key) is int and 0 <= key < self.keyspace_size):
            check_key(key, self.keyspace_size)
        # The entry is whole, and the chain reaches it, before the published
        # length covers it.
        self._keys.append(key)
        self._values.append(value)
        self._prev.append(self._last.get(key, -1))
        self._last[key] = i
        self._published = i + 1

    def max_ts(self, key: Key, upto: Optional[int] = None) -> TimedValue:
        """Newest copy of key in the prefix of length `upto` (default: now).

        Falls back to the implicit (tombstone, 0) entry every key starts
        with, so the result is always defined.
        """
        i = self._newest(key, upto)
        return INITIAL if i < 0 else TimedValue(self._values[i], i + 1)

    def _newest(self, key: Key, upto: Optional[int]) -> int:
        """Index of key's newest entry in the prefix of length `upto`
        (default: now), -1 if there is none."""
        if not (type(key) is int and 0 <= key < self.keyspace_size):
            check_key(key, self.keyspace_size)
        n = self._published if upto is None else min(upto, self._published)
        i = self._last.get(key, -1)
        prev = self._prev
        while i >= n:
            i = prev[i]
        return i

    def newest_copies(self) -> dict[Key, tuple[Value, Timestamp]]:
        """Each recorded key's newest (value, ts), keys in the order of their
        first entry.

        Read off the per-key chains, so it costs the keys recorded, not a walk
        of the whole log. It walks the chains itself rather than call _newest
        per key: that call and its key check cost more than the whole-log
        walk on a history of a few thousand entries."""
        n, values, prev = self._published, self._values, self._prev
        out: dict[Key, tuple[Value, Timestamp]] = {}
        # One published length bounds every key, and the chain heads are
        # copied first, so a concurrent append changes nothing here.
        for k, i in tuple(self._last.items()):
            while i >= n:
                i = prev[i]
            if i >= 0:
                out[k] = (values[i], i + 1)
        return out

    def contains(self, key: Key, value: Value, ts: Timestamp) -> bool:
        """Is (key, (value, ts)) in the history, counting implicit entries?"""
        if ts == 0:
            return value is TOMBSTONE and 0 <= key < self.keyspace_size
        # The entry with timestamp t is the one at index t-1.
        i = ts - 1
        return 0 <= i < self._published and self._keys[i] == key and self._values[i] == value

    def check_search_recency(
        self, key: Key, value: Value, tp: Timestamp, snap: int
    ) -> "RecencyResult":
        """Check one search return against the history.

        `snap` is the published length at the search's invocation; `tp` the
        timestamp of the returned copy. The search is good if that copy is
        really in the history now and is at least as new as the key's copy in
        the snapshot prefix.
        """
        # No entry (i == -1) gives INITIAL's timestamp, 0.
        t0 = self._newest(key, snap) + 1
        reason = None
        if not self.contains(key, value, tp):
            reason = "returned copy not present in history"
        elif tp < t0:
            reason = f"returned ts {tp} older than invocation-time ts {t0}"
        return RecencyResult(key, value, tp, snap, t0, reason)

    def verify_predicates(self, clock: Timestamp) -> "HistoryPredicateReport":
        """Well-formedness of the whole log against the given clock value.

        init: every key has a defined newest copy. An unrecorded key's is
        the implicit tombstone by construction, so only recorded keys are
        checked. unique: one value per timestamp, which holds by
        representation, as a timestamp is a position. clock: every logged
        timestamp is below the clock, so the newest position must be below
        it; the witness is the first position whose timestamp reaches it.
        """
        init_ok = all(self.max_ts(k) is not None for k in self._last)
        i = max(clock, 1) - 1
        clock_ok = self._published <= i
        witness = None if clock_ok else {"index": i, "ts": i + 1, "clock": clock}
        return HistoryPredicateReport(
            init_ok=init_ok, unique_ok=True, clock_ok=clock_ok, witness=witness
        )


@dataclass(slots=True)
class RecencyResult:
    """Outcome of one online recency check; reason is None when it passed."""

    key: Key
    value: Value
    tp: Timestamp
    snap: int
    t0: Timestamp
    reason: Optional[str]

    @property
    def ok(self) -> bool:
        return self.reason is None

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "value": encode_value(self.value),
            "tp": self.tp,
            "snap": self.snap,
            "t0": self.t0,
            "reason": self.reason,
        }


@dataclass
class HistoryPredicateReport:
    init_ok: bool
    unique_ok: bool
    clock_ok: bool
    witness: Optional[dict]

    @property
    def ok(self) -> bool:
        return self.init_ok and self.unique_ok and self.clock_ok

    def to_json(self) -> dict:
        return {"init": self.init_ok, "unique": self.unique_ok, "clock": self.clock_ok}


# Trace events are not frozen, because a frozen dataclass pays for one
# object.__setattr__ call per field on every construction, and reading a
# trace builds one event per row; nothing changes an event once made.


@dataclass(slots=True)
class SearchEvent:
    """One completed search: key, returned copy, and where it sat in time.

    t0 is the timestamp of the key's newest copy in the invocation-time
    prefix (length snap); tp the timestamp of the returned copy. inv/resp are
    global sequence numbers bracketing the operation in real time.
    """

    thread: int
    key: Key
    value: Value
    t0: Timestamp
    tp: Timestamp
    snap: int
    inv: int
    resp: int

    def to_json(self) -> dict:
        return {
            "op": "search",
            "thread": self.thread,
            "key": self.key,
            "value": encode_value(self.value),
            "t0": self.t0,
            "tp": self.tp,
            "snap": self.snap,
            "inv": self.inv,
            "resp": self.resp,
        }


@dataclass(slots=True)
class UpsertEvent:
    """One completed upsert (deletes are upserts of the tombstone)."""

    thread: int
    key: Key
    value: Value
    ts: Timestamp
    inv: int
    resp: int

    def to_json(self) -> dict:
        return {
            "op": "upsert",
            "thread": self.thread,
            "key": self.key,
            "value": encode_value(self.value),
            "ts": self.ts,
            "inv": self.inv,
            "resp": self.resp,
        }


TraceEvent = Union[SearchEvent, UpsertEvent]

# The int fields of each event type in its field order; the value follows key.
_INT_FIELDS = {
    SearchEvent: ("thread", "key", "t0", "tp", "snap", "inv", "resp"),
    UpsertEvent: ("thread", "key", "ts", "inv", "resp"),
}
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


class EventTable:
    """The events of one type as columns, the way UpsertHistory keeps its
    log: an array('q') for each int field and one list for the values. A row
    adds unboxed ints to arrays and a reference to a list that exists
    already, so recording an op creates no object the garbage collector
    tracks and keeps no boxed int. Rows keep the order they were added in;
    an event object is built only when a row is read."""

    __slots__ = ("kind", "columns", "values", "_fields")

    def __init__(self, kind: type) -> None:
        self.kind = kind
        self.columns: dict[str, array] = {f: array("q") for f in _INT_FIELDS[kind]}
        self.values: list[Value] = []
        # The columns and the values in the event type's field order. They
        # only ever grow in place, so this tuple stays theirs.
        thread, key, *rest = self.columns.values()
        self._fields = (thread, key, self.values, *rest)

    def __len__(self) -> int:
        return len(self.values)

    def row(self, i: int) -> TraceEvent:
        return self.kind(*[c[i] for c in self._fields])

    def append(self, event: TraceEvent) -> None:
        """Add one event as a row. An int field that does not fit in 64 bits
        raises MulticopyError, and the table is left as it was."""
        ints = [getattr(event, f) for f in self.columns]
        for f, v in zip(self.columns, ints):
            if not _INT64_MIN <= v <= _INT64_MAX:
                raise MulticopyError(f"{f} {v} does not fit in 64 bits")
        for c, v in zip(self.columns.values(), ints):
            c.append(v)
        self.values.append(event.value)

    def appenders(self) -> tuple:
        """Bound appends for every field, in the event type's field order. A
        worker that calls each once per op records a row at the cost of
        those appends alone."""
        return tuple(c.append for c in self._fields)

    def extend(self, other: "EventTable") -> None:
        for mine, theirs in zip(self._fields, other._fields):
            mine.extend(theirs)


class Trace:
    """Real-time record of a run: all completed operations, any order.

    Stored as a search table and an upsert table (EventTable). A position
    names one event: positions below the number of searches are search
    rows, the ones after them upsert rows, in table order. Sequence numbers
    are globally unique; events lists every event in inv order, each built
    as it is read. Serialized as JSON lines so traces stream and diff
    cleanly.
    """

    def __init__(self, keyspace_size: int, events: Iterable[TraceEvent] = ()):
        self.keyspace_size = keyspace_size
        self.search_table = EventTable(SearchEvent)
        self.upsert_table = EventTable(UpsertEvent)
        for e in events:
            self.add(e)

    @classmethod
    def from_workers(cls, keyspace_size: int,
                     tables: list[tuple[EventTable, EventTable]]) -> "Trace":
        """The trace of a run whose workers each recorded a search table
        and an upsert table. The first worker's tables become the trace's,
        and the others' rows are appended to them."""
        trace = cls(keyspace_size)
        if tables:
            trace.search_table, trace.upsert_table = tables[0]
            for searches, upserts in tables[1:]:
                trace.search_table.extend(searches)
                trace.upsert_table.extend(upserts)
        return trace

    def add(self, event: TraceEvent) -> None:
        """Append one event as a row of its type's table."""
        (self.search_table if isinstance(event, SearchEvent) else self.upsert_table).append(event)

    def __len__(self) -> int:
        return len(self.search_table) + len(self.upsert_table)

    def event(self, p: int) -> TraceEvent:
        """The event at position p, built now."""
        ns = len(self.search_table)
        return self.search_table.row(p) if p < ns else self.upsert_table.row(p - ns)

    def column(self, name: str) -> array:
        """One int field of every event, by position."""
        return self.search_table.columns[name] + self.upsert_table.columns[name]

    def inv_order(self) -> array:
        """Every position, in inv order."""
        inv = self.column("inv")
        return array("q", sorted(range(len(inv)), key=inv.__getitem__))

    @property
    def events(self) -> "EventView":
        return EventView(self)

    def searches(self) -> list[SearchEvent]:
        return list(map(self.search_table.row, range(len(self.search_table))))

    def upserts(self) -> list[UpsertEvent]:
        return list(map(self.upsert_table.row, range(len(self.upsert_table))))

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"keyspace_size": self.keyspace_size}) + "\n")
            for e in self.events:
                f.write(json.dumps(e.to_json()) + "\n")

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read a trace written by dump: a {"keyspace_size": N} header as the
        first non-blank line, then one event a line, each key inside the
        header's keyspace, each int inside 64 bits, each resp after its inv,
        and no sequence number used twice. A malformed or missing line raises
        MulticopyError naming the line."""
        trace = None
        seen: set[int] = set()
        with open(path) as f:
            for n, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    raise MulticopyError(f"malformed trace: not JSON ({e}) at line {n}") from None
                try:
                    header = isinstance(obj, dict) and "keyspace_size" in obj and "op" not in obj
                    if trace is None:
                        if not header:
                            raise MulticopyError("the first line is not a keyspace header")
                        check_keyspace(obj["keyspace_size"])
                        trace = cls(obj["keyspace_size"])
                    elif header:
                        raise MulticopyError("keyspace header is not the first line")
                    else:
                        event = event_from_json(obj)
                        check_key(event.key, trace.keyspace_size)
                        if event.resp <= event.inv:
                            raise MulticopyError(
                                f"resp {event.resp} is not after inv {event.inv}"
                            )
                        for s in (event.inv, event.resp):
                            if s in seen:
                                raise MulticopyError(f"sequence number {s} is used twice")
                            seen.add(s)
                        trace.add(event)
                except MulticopyError as e:
                    raise MulticopyError(f"malformed trace: {e} at line {n}") from None
        if trace is None:
            raise MulticopyError("malformed trace: no keyspace header")
        return trace

    def rebuild_history(self) -> tuple[UpsertHistory, Timestamp]:
        """Reconstruct the upsert log (and clock) this trace implies.

        Upserts are replayed in timestamp order. record_upsert holds them to
        the structure's clock, 1, 2, 3, ... without gaps, so a gap, a
        duplicate or a non-positive timestamp raises HistoryCorruptionError,
        which is exactly what a tampered trace deserves.
        """
        h = UpsertHistory(self.keyspace_size)
        ups = self.upsert_table
        keys, ts, values = ups.columns["key"], ups.columns["ts"], ups.values
        for i in sorted(range(len(ups)), key=ts.__getitem__):
            h.record_upsert(keys[i], values[i], ts[i])
        return h, len(h) + 1


class EventView(Sequence):
    """The events of a trace at the given positions, each built as it is
    read; without positions, every event in inv order, sorted when first
    read. It equals any sequence of the same events in the same order."""

    __slots__ = ("_trace", "_positions")

    def __init__(self, trace: Trace, positions: Optional[array] = None):
        self._trace = trace
        self._positions = positions

    def _order(self) -> array:
        if self._positions is None:
            self._positions = self._trace.inv_order()
        return self._positions

    def __len__(self) -> int:
        return len(self._trace) if self._positions is None else len(self._positions)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._trace.event, self._order()[i]))
        return self._trace.event(self._order()[i])

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(self._trace.event, self._order())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"EventView({list(self)!r})"


def event_from_json(obj: object) -> TraceEvent:
    """Rebuild one trace event; a malformed one raises MulticopyError."""
    if not isinstance(obj, dict):
        raise MulticopyError("expected a JSON object")
    try:
        if obj["op"] == "search":
            cls = SearchEvent
        elif obj["op"] == "upsert":
            cls = UpsertEvent
        else:
            raise MulticopyError(f"unknown op {obj['op']!r}")
        ints = {f: int_field(obj[f], f) for f in _INT_FIELDS[cls]}
        return cls(value=decode_value(obj["value"]), **ints)
    except KeyError as e:
        raise MulticopyError(f"missing field {e.args[0]!r}") from None
