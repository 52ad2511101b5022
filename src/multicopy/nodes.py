"""Nodes: one record store per node, a plain insertion-ordered dict.

Every node keeps its live records in a dict from key to TimedValue, so a
lookup is one dict probe and a key holds at most one copy per node. The
node's kind is only its role: the ROOT_BUFFER is the one node that accepts
writes (add_contents), and a SORTED_TABLE only changes through merges. A
table's sorted order is a view computed on request (live_keys); nothing
keeps it sorted in place. Capacity bounds live records, so an overwrite
never fails even at a full root.

The move between nodes is merge_contents: pick the source's live keys that
the connecting edge owns, in key order, as long as the target keeps fitting
(a key the target already holds is an overwrite and costs no room), then
move those records. The source side forgets exactly the moved keys and the
target adopts the source's copies, so the newest copy of every key among the
two nodes is preserved. The common case is a whole-source move: the edge
owns every source key and the target has room for all of them, so the rule
picks every record. That case costs one edgeset probe per source key plus a
C-level dict update, with no sort and no per-record Python step. Any other
merge sorts the source keys the edge owns and moves them one at a time, so
it is linear in the source (plus the sort), never in the edgeset or the
target.
"""

from __future__ import annotations

import itertools
from typing import Literal, Optional

from .core import (
    EdgesetDisjointnessError,
    Key,
    MulticopyError,
    NodeContents,
    TimedValue,
    Timestamp,
    Value,
)

NodeId = int
ROOT_BUFFER: Literal["root_buffer"] = "root_buffer"
SORTED_TABLE: Literal["sorted_table"] = "sorted_table"

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
        kind: str,
        capacity: Optional[int],
        entries: Optional[NodeContents] = None,
    ):
        if kind not in (ROOT_BUFFER, SORTED_TABLE):
            raise MulticopyError(f"unknown node kind {kind!r}")
        if capacity is not None and capacity < 1:
            raise MulticopyError("capacity must be positive or None (unbounded)")
        self.id = node_id
        self.kind = kind
        self.capacity = capacity
        self.succ_edgesets: dict[NodeId, frozenset[Key]] = {}
        self._records: NodeContents = dict(entries or {})

    # --- record access ---------------------------------------------------

    def in_contents(self, key: Key) -> Optional[TimedValue]:
        """The node's own copy of key, None if it holds none."""
        return self._records.get(key)

    def find_next(self, key: Key) -> Optional[NodeId]:
        """Successor to continue a traversal at, None at the end of the line.

        Outgoing edgesets must be disjoint; two claimants is corruption.
        """
        found = None
        for m, ks in self.succ_edgesets.items():
            if key in ks:
                if found is not None:
                    raise EdgesetDisjointnessError(
                        f"key {key} claimed by edges {self.id}->{found} "
                        f"and {self.id}->{m}"
                    )
                found = m
        return found

    def live_count(self) -> int:
        return len(self._records)

    def live_keys(self) -> list[Key]:
        return sorted(self._records)

    def contents(self) -> NodeContents:
        """Copy of the live records."""
        return dict(self._records)

    def at_capacity(self) -> bool:
        return self.capacity is not None and self.live_count() >= self.capacity

    # --- writes ------------------------------------------------------------

    def add_contents(self, key: Key, value: Value, ts: Timestamp) -> bool:
        """Write a fresh copy; False when a full node would need a new record.

        Only the root buffer accepts writes; tables change through merges.
        """
        if self.kind != ROOT_BUFFER:
            raise MulticopyError("add_contents requires a root buffer node")
        recs = self._records
        if key not in recs and self.capacity is not None and len(recs) >= self.capacity:
            return False
        recs[key] = TimedValue(value, ts)
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

    def routed_keys(self) -> frozenset[Key]:
        out: frozenset[Key] = frozenset()
        for ks in self.succ_edgesets.values():
            out |= ks
        return out

    def __repr__(self) -> str:
        return (
            f"NodeHandle(id={self.id}, kind={self.kind}, "
            f"live={self.live_count()}, cap={self.capacity})"
        )


def alloc_node(capacity: Optional[int]) -> NodeHandle:
    """Fresh, empty, unlinked table with a process-unique id."""
    return NodeHandle(fresh_node_id(), SORTED_TABLE, capacity)


def insert_node(n: NodeHandle, m: NodeHandle, keys: frozenset[Key]) -> None:
    """Link m under n, giving the new edge the given edgeset.

    The edgeset must be nonempty and stay disjoint from n's existing edges,
    otherwise traversal routing would become ambiguous.
    """
    if not keys:
        raise MulticopyError("new edge needs a nonempty edgeset")
    if m.id in n.succ_edgesets:
        raise MulticopyError(f"node {m.id} is already a successor of {n.id}")
    clash = keys & n.routed_keys()
    if clash:
        raise EdgesetDisjointnessError(
            f"keys {sorted(clash)} already routed by node {n.id}"
        )
    n.succ_edgesets[m.id] = frozenset(keys)


def merge_contents(n: NodeHandle, m: NodeHandle) -> NodeContents:
    """Move records down the edge n->m; returns the moved copies by key.

    Candidates are n's live keys owned by the edge, taken in key order while
    m has room (overwrites are free; a key that does not fit is skipped and
    the scan goes on). The caller holds both nodes' locks.
    """
    if m.kind != SORTED_TABLE:
        raise MulticopyError("merge target must be a sorted table")
    es = n.succ_edgesets.get(m.id)
    if es is None:
        raise MulticopyError(f"no edge {n.id}->{m.id} to merge along")
    src, dst = n._records, m._records
    room = None if m.capacity is None else m.capacity - len(dst)
    if (room is None or room >= len(src)) and es.issuperset(src):
        # The edge owns every source key and each one fits, so the rule
        # picks them all: hand the source dict over and move it in C.
        n._records = {}
        dst.update(src)
        return src
    moved: NodeContents = {}
    # es.intersection(src) walks src. The reverse, src.keys() & es, walks
    # the whole frozenset (CPython only swaps the operands for a plain
    # set), which is the full keyspace on a fresh sink's edge.
    for k in sorted(es.intersection(src)):
        if room is not None and k not in dst:
            if room == 0:
                continue
            room -= 1
        moved[k] = dst[k] = src.pop(k)
    return moved
