"""Shared domain types for multicopy search structures.

A multicopy structure may hold several timestamped copies of the same key at
once; only the copy with the highest timestamp is logically current. Deletes
are upserts of a distinguished tombstone, so "absent" and "deleted" look the
same to a search. These types are deliberately tiny: keys are ints drawn from
a bounded keyspace fixed at construction time, values are ints or the
tombstone, timestamps are positive ints handed out by a per-structure clock
(timestamp 0 is reserved for the implicit initial tombstone of every key),
and a copy is a (value, ts) tuple, the one object an upsert allocates.

Routing lives here too, because the live structures and the snapshot walk in
graph.py share it: a node's outgoing edgesets are disjoint, so a key leaves a
node along at most one edge (route). A live structure may tell route its
keyspace size, so that a hop along an edge owning the whole keyspace costs
no membership probe.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Union


class MulticopyError(Exception):
    """Base class for errors raised by this package."""


class StructuralError(MulticopyError):
    """The node graph is malformed (e.g. a cycle where a DAG is required)."""


class EdgesetDisjointnessError(StructuralError):
    """Two outgoing edges of the same node claim the same key."""


class HistoryCorruptionError(MulticopyError):
    """The upsert history violates its append-only, clock-ordered contract."""


class _Tombstone:
    """Singleton marker for deleted / never-written keys."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<tombstone>"

    def __hash__(self) -> int:
        # A constant, not the default id-based hash, so that a copy holding
        # the tombstone hashes alike in every process.
        return 0x70B5


TOMBSTONE = _Tombstone()

Key = int
NodeId = int
Timestamp = int
Value = Union[int, _Tombstone]


class TimedValue(NamedTuple):
    """A value copy tagged with the logical time of the upsert that wrote it.

    A copy is an immutable (value, ts) tuple: value and ts are read by C-level
    field getters, and the root append mints a copy with one C call,
    tuple.__new__(TimedValue, (value, ts)). Equality and hashing are the
    tuple's own, field by field, so a copy equals and hashes as the plain
    tuple (value, ts). No hash depends on a memory address (the tombstone
    hashes to a constant), so a set of copies iterates in the same order in
    every process.

    Copies are ordered by timestamp alone; the value carries no order. Code
    that needs "the newer copy" must compare .ts explicitly, which is why the
    tuple's ordering is switched off: <, <=, > and >= between copies raise
    TypeError.
    """

    value: Value
    ts: Timestamp

    def __repr__(self) -> str:
        return f"({self.value!r}@{self.ts})"

    def __lt__(self, other: object) -> bool:
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__


# The initial state of every key: deleted at time zero.
INITIAL = TimedValue(TOMBSTONE, 0)

# Contents of a single node: at most one copy per key.
NodeContents = dict[Key, TimedValue]


def is_tombstone(v: Value) -> bool:
    return v is TOMBSTONE


def val_projection(contents: NodeContents) -> dict[Key, Value]:
    """Drop timestamps, keeping the per-key values.

    Lossy by design: two contents maps that differ only in timestamps project
    to the same map.
    """
    return {k: tv.value for k, tv in contents.items()}


def encode_value(v: Value) -> Optional[int]:
    """The JSON form of a value, used by snapshots, traces and reports: the
    tombstone is null."""
    return None if v is TOMBSTONE else v


def decode_value(raw: object) -> Value:
    """Inverse of encode_value; anything but null or an int raises."""
    return TOMBSTONE if raw is None else int_field(raw, "value")


def int_field(raw: object, name: str) -> int:
    """raw itself if it is an int (a bool is not), else MulticopyError naming
    the field. For fields read from snapshot and trace files."""
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise MulticopyError(f"{name} must be an int, got {raw!r}")
    return raw


def check_keyspace(keyspace_size: object) -> None:
    """Reject a keyspace size that is not a positive int."""
    if int_field(keyspace_size, "keyspace_size") <= 0:
        raise MulticopyError(f"keyspace_size must be positive, got {keyspace_size}")


def check_key(key: Key, keyspace_size: int) -> None:
    """Reject keys outside the keyspace the structure was built for.

    The op path (search_timed, upsert_timed, record_upsert) first tests
    `type(key) is int and 0 <= key < size` inline and calls this only when
    that fails, so this stays the one definition of the rule and of its
    messages."""
    if not isinstance(key, int) or isinstance(key, bool):
        raise MulticopyError(f"key must be an int, got {key!r}")
    if not 0 <= key < keyspace_size:
        raise MulticopyError(
            f"key {key} outside keyspace [0, {keyspace_size})"
        )


def route(
    edgesets: Mapping[NodeId, frozenset[Key]],
    key: Key,
    src: NodeId,
    keyspace_size: Optional[int] = None,
) -> Optional[NodeId]:
    """The successor of node src whose edgeset covers key, None if no edge
    does. Outgoing edgesets must be disjoint; two claimants is corruption.

    With keyspace_size, an edgeset of exactly that many keys is taken to own
    every key without a membership probe. That holds only when every edgeset
    key and key itself lie in [0, keyspace_size), as in a live structure;
    the snapshot walk in graph.py passes no size and probes every key.
    """
    found = None
    for m, ks in edgesets.items():
        if len(ks) == keyspace_size or key in ks:
            if found is not None:
                raise EdgesetDisjointnessError(
                    f"key {key} claimed by edges {src}->{found} and {src}->{m}"
                )
            found = m
    return found


def routed_keys(edgesets: Mapping[NodeId, frozenset[Key]]) -> frozenset[Key]:
    """Keys covered by some outgoing edge."""
    return frozenset().union(*edgesets.values())
