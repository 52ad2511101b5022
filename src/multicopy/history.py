"""Upsert history: the append-only log that defines what a search may return.

Every successful upsert appends (key, value, ts) while holding the root lock,
so the log order equals timestamp order and timestamps are dense (the entry
with timestamp t sits at index t-1). Readers never lock: they take a snapshot
by reading the published length and treat the prefix below it as a frozen
history H0. On top of the log live the two derived notions the checkers need:
max_ts (the current copy of a key, (tombstone, 0) if never written) and the
per-search recency condition "the returned copy is no older than the key's
copy at invocation time".

Traces are separate from the history: they record operation invocations and
responses (with global sequence numbers) for offline linearizability
checking, serialized one JSON object per line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, Optional, Union

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
        # One column per field, so an entry adds only ints (and the value) to
        # lists that already exist: nothing the garbage collector tracks.
        self._keys: list[Key] = []
        self._values: list[Value] = []
        self._ts: list[Timestamp] = []
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
        return islice(zip(self._keys, self._values, self._ts), self._published)

    def record_upsert(self, key: Key, value: Value, ts: Timestamp) -> None:
        """Append one upsert. Caller must hold the root lock.

        The clock hands out 1, 2, 3, ... without gaps, so ts must be one
        past the last logged timestamp; anything else means the clock
        discipline was broken and the history is corrupt.
        """
        log_ts = self._ts
        i = len(log_ts)
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
        log_ts.append(ts)
        self._prev.append(self._last.get(key, -1))
        self._last[key] = i
        self._published = i + 1

    def max_published_ts(self) -> Timestamp:
        """Largest logged timestamp, 0 if the log is empty."""
        return self._ts[self._published - 1] if self._published else 0

    def max_ts(self, key: Key, upto: Optional[int] = None) -> TimedValue:
        """Newest copy of key in the prefix of length `upto` (default: now).

        Falls back to the implicit (tombstone, 0) entry every key starts
        with, so the result is always defined.
        """
        i = self._newest(key, upto)
        return INITIAL if i < 0 else TimedValue(self._values[i], self._ts[i])

    def _newest(self, key: Key, upto: Optional[int]) -> int:
        """Index of key's newest entry in the prefix of length `upto`
        (default: now), -1 if there is none."""
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
        n, values, ts, prev = self._published, self._values, self._ts, self._prev
        out: dict[Key, tuple[Value, Timestamp]] = {}
        # One published length bounds every key, and the chain heads are
        # copied first, so a concurrent append changes nothing here.
        for k, i in tuple(self._last.items()):
            while i >= n:
                i = prev[i]
            if i >= 0:
                out[k] = (values[i], ts[i])
        return out

    def contains(self, key: Key, value: Value, ts: Timestamp) -> bool:
        """Is (key, (value, ts)) in the history, counting implicit entries?"""
        if ts == 0:
            return value is TOMBSTONE and 0 <= key < self.keyspace_size
        # Dense timestamps put the entry with timestamp t at index t-1.
        i = ts - 1
        return (
            0 <= i < self._published
            and self._ts[i] == ts
            and self._keys[i] == key
            and self._values[i] == value
        )

    def check_search_recency(
        self, key: Key, value: Value, tp: Timestamp, snap: int
    ) -> "RecencyResult":
        """Check one search return against the history.

        `snap` is the published length at the search's invocation; `tp` the
        timestamp of the returned copy. The search is good if that copy is
        really in the history now and is at least as new as the key's copy in
        the snapshot prefix.
        """
        i = self._newest(key, snap)
        t0 = INITIAL.ts if i < 0 else self._ts[i]
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
        checked. unique: one value per timestamp, enforced as strictly
        increasing log timestamps. clock: every logged timestamp is below
        the clock.
        """
        init_ok = all(self.max_ts(k) is not None for k in self._last)
        unique_ok = True
        clock_ok = True
        witness = None
        prev = 0
        for i, t in enumerate(islice(self._ts, self._published)):
            if t <= prev:
                unique_ok = False
                witness = witness or {"index": i, "ts": t, "prev_ts": prev}
            prev = t
            if t >= clock:
                clock_ok = False
                witness = witness or {"index": i, "ts": t, "clock": clock}
        return HistoryPredicateReport(
            init_ok=init_ok, unique_ok=unique_ok, clock_ok=clock_ok, witness=witness
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
# object.__setattr__ call per field on every construction, and the stress
# harness makes one event per operation; nothing changes an event once made.


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


@dataclass
class Trace:
    """Real-time record of a run: all completed operations, any order.

    Sequence numbers are globally unique; sorting by inv gives invocation
    order. Serialized as JSON lines so traces stream and diff cleanly.
    """

    keyspace_size: int
    events: list[TraceEvent] = field(default_factory=list)

    def searches(self) -> list[SearchEvent]:
        return [e for e in self.events if isinstance(e, SearchEvent)]

    def upserts(self) -> list[UpsertEvent]:
        return [e for e in self.events if isinstance(e, UpsertEvent)]

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"keyspace_size": self.keyspace_size}) + "\n")
            for e in sorted(self.events, key=lambda e: e.inv):
                f.write(json.dumps(e.to_json()) + "\n")

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read a trace written by dump: a {"keyspace_size": N} header as the
        first non-blank line, then one event a line, each key inside the
        header's keyspace, each resp after its inv, and no sequence number
        used twice. A malformed or missing line raises MulticopyError naming
        the line."""
        events: list[TraceEvent] = []
        seen: set[int] = set()
        keyspace_size = None
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
                    if keyspace_size is None:
                        if not header:
                            raise MulticopyError("the first line is not a keyspace header")
                        keyspace_size = obj["keyspace_size"]
                        check_keyspace(keyspace_size)
                    elif header:
                        raise MulticopyError("keyspace header is not the first line")
                    else:
                        event = event_from_json(obj)
                        check_key(event.key, keyspace_size)
                        if event.resp <= event.inv:
                            raise MulticopyError(
                                f"resp {event.resp} is not after inv {event.inv}"
                            )
                        for s in (event.inv, event.resp):
                            if s in seen:
                                raise MulticopyError(f"sequence number {s} is used twice")
                            seen.add(s)
                        events.append(event)
                except MulticopyError as e:
                    raise MulticopyError(f"malformed trace: {e} at line {n}") from None
        if keyspace_size is None:
            raise MulticopyError("malformed trace: no keyspace header")
        return cls(keyspace_size=keyspace_size, events=events)

    def rebuild_history(self) -> tuple[UpsertHistory, Timestamp]:
        """Reconstruct the upsert log (and clock) this trace implies.

        Upserts are replayed in timestamp order. record_upsert holds them to
        the structure's clock, 1, 2, 3, ... without gaps, so a gap, a
        duplicate or a non-positive timestamp raises HistoryCorruptionError,
        which is exactly what a tampered trace deserves.
        """
        h = UpsertHistory(self.keyspace_size)
        for e in sorted(self.upserts(), key=lambda e: e.ts):
            h.record_upsert(e.key, e.value, e.ts)
        return h, h.max_published_ts() + 1


def event_from_json(obj: object) -> TraceEvent:
    """Rebuild one trace event; a malformed one raises MulticopyError."""
    if not isinstance(obj, dict):
        raise MulticopyError("expected a JSON object")
    try:
        if obj["op"] == "search":
            cls, fields = SearchEvent, ("thread", "key", "t0", "tp", "snap", "inv", "resp")
        elif obj["op"] == "upsert":
            cls, fields = UpsertEvent, ("thread", "key", "ts", "inv", "resp")
        else:
            raise MulticopyError(f"unknown op {obj['op']!r}")
        ints = {f: int_field(obj[f], f) for f in fields}
        return cls(value=decode_value(obj["value"]), **ints)
    except KeyError as e:
        raise MulticopyError(f"missing field {e.args[0]!r}") from None
