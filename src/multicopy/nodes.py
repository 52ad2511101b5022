"""Nodes: one record store per node, a plain insertion-ordered dict.

Every node keeps its live records in a dict from key to TimedValue, so a
lookup is one dict probe and a key holds at most one copy per node. Nodes
have no roles: a structure is built over a well-formed node graph, names its
root, writes only there (add_contents) and changes every other node through
merges. Nothing keeps a node sorted in place. Capacity bounds live records,
so an overwrite never fails even at a full root.

The root append is one dict store of a copy minted in C: a TimedValue is a
tuple, made by tuple.__new__ with no Python code of its own, and it is the
one object an append leaves for the garbage collector to track.

The move between nodes is merge_contents: pick the source's live keys that
the connecting edge owns, in key order, as long as the target keeps fitting
(a key the target already holds is an overwrite and costs no room), then
move those records. The source side forgets exactly the moved keys and the
target adopts the source's copies, so the newest copy of every key among the
two nodes is preserved. The common case is a whole-source move: the edge
owns every source key and the target has room for all of them, so the rule
picks every record. That case costs a C-level dict update, with no sort and
no per-record Python step. Any other merge sorts the source keys the edge
owns and moves them one at a time, so it is linear in the source (plus the
sort), never in the edgeset or the target.

Finding the keys the edge owns costs one edgeset probe per source key, except
on an edge that owns the whole keyspace: told the keyspace size, a merge
recognises such an edge by its length and probes nothing. Every edge of a
list store and the df table's edge are of that kind.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .core import (
    EdgesetDisjointnessError,
    Key,
    MulticopyError,
    NodeContents,
    NodeId,
    TimedValue,
    Timestamp,
    Value,
    routed_keys,
)

_fresh_ids = itertools.count()


def fresh_node_id() -> NodeId:
    return next(_fresh_ids)


class NodeHandle:
    """One node: its records, capacity, and outgoing edgesets.

    Thread safety is the caller's problem; the templates guard every handle
    with a per-node lock.
    """

    def __init__(
        self,
        node_id: NodeId,
        capacity: Optional[int],
        entries: Optional[NodeContents] = None,
    ):
        if capacity is not None and capacity < 1:
            raise MulticopyError("capacity must be positive or None (unbounded)")
        self.id = node_id
        self.capacity = capacity
        self.succ_edgesets: dict[NodeId, frozenset[Key]] = {}
        self._records: NodeContents = dict(entries or {})

    # --- record access ---------------------------------------------------

    def in_contents(self, key: Key) -> Optional[TimedValue]:
        """The node's own copy of key, None if it holds none."""
        return self._records.get(key)

    def live_count(self) -> int:
        return len(self._records)

    def contents(self) -> NodeContents:
        """Copy of the live records."""
        return dict(self._records)

    def at_capacity(self) -> bool:
        return self.capacity is not None and self.live_count() >= self.capacity

    # --- writes ------------------------------------------------------------

    def add_contents(self, key: Key, value: Value, ts: Timestamp) -> bool:
        """Write a fresh copy; False when a full node would need a new record.

        tuple.__new__ is the C constructor under TimedValue(value, ts);
        calling it directly skips the Python-level __new__ in between."""
        recs = self._records
        if key not in recs and self.capacity is not None and len(recs) >= self.capacity:
            return False
        recs[key] = tuple.__new__(TimedValue, (value, ts))
        return True

    # --- compaction policy ---------------------------------------------------

    def choose_next(self) -> Optional[NodeId]:
        """Successor to merge into: the one whose edgeset covers the most
        live keys, ties broken by smaller id. None when no edgeset touches
        any live key, i.e. a new node is needed."""
        if len(self.succ_edgesets) == 1:
            # No ranking needed: one hit in the records decides.
            ((m, ks),) = self.succ_edgesets.items()
            return None if ks.isdisjoint(self._records) else m
        best: Optional[tuple[int, NodeId]] = None
        for m, ks in self.succ_edgesets.items():
            # Walks the records, not the edgeset; see merge_contents.
            cov = len(ks.intersection(self._records))
            if cov == 0:
                continue
            if best is None or (-cov, m) < best:
                best = (-cov, m)
        return best[1] if best else None

    def __repr__(self) -> str:
        return (
            f"NodeHandle(id={self.id}, live={self.live_count()}, "
            f"cap={self.capacity})"
        )


def alloc_node(capacity: Optional[int]) -> NodeHandle:
    """Fresh, empty, unlinked node with a process-unique id."""
    return NodeHandle(fresh_node_id(), capacity)


def insert_node(n: NodeHandle, m: NodeHandle, keys: frozenset[Key]) -> None:
    """Link m under n, giving the new edge the given edgeset.

    The edgeset must be nonempty and stay disjoint from n's existing edges,
    otherwise traversal routing would become ambiguous.
    """
    if not keys:
        raise MulticopyError("new edge needs a nonempty edgeset")
    if m.id in n.succ_edgesets:
        raise MulticopyError(f"node {m.id} is already a successor of {n.id}")
    clash = keys & routed_keys(n.succ_edgesets)
    if clash:
        raise EdgesetDisjointnessError(
            f"keys {sorted(clash)} already routed by node {n.id}"
        )
    n.succ_edgesets[m.id] = frozenset(keys)


def merge_contents(
    n: NodeHandle, m: NodeHandle, *, keyspace_size: Optional[int] = None
) -> NodeContents:
    """Move records down the edge n->m; returns the moved copies by key.

    Candidates are n's live keys owned by the edge, taken in key order while
    m has room (overwrites are free; a key that does not fit is skipped and
    the scan goes on). The caller holds both nodes' locks.

    With keyspace_size, an edgeset of exactly that many keys is taken to own
    every source key without probing it. That holds only when every key n
    holds and every edgeset key lie in [0, keyspace_size), which a live
    structure guarantees.
    """
    es = n.succ_edgesets.get(m.id)
    if es is None:
        raise MulticopyError(f"no edge {n.id}->{m.id} to merge along")
    src, dst = n._records, m._records
    room = None if m.capacity is None else m.capacity - len(dst)
    whole_edge = len(es) == keyspace_size
    if (room is None or room >= len(src)) and (whole_edge or es.issuperset(src)):
        # The edge owns every source key and each one fits, so the rule
        # picks them all: hand the source dict over and move it in C.
        n._records = {}
        dst.update(src)
        return src
    moved: NodeContents = {}
    # es.intersection(src) walks src. The reverse, src.keys() & es, walks
    # the whole frozenset (CPython only swaps the operands for a plain
    # set), which is the full keyspace on a fresh sink's edge.
    owned = src if whole_edge else es.intersection(src)
    for k in sorted(owned):
        if room is not None and k not in dst:
            if room == 0:
                continue
            room -= 1
        moved[k] = dst[k] = src.pop(k)
    return moved
