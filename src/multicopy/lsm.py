"""Concurrent multicopy template over a DAG of nodes.

The traversal and upsert logic here is shape-agnostic: any DAG of nodes
with disjoint outgoing edgesets works. Locking is per node and
deliberately skimpy:

  search takes one lock at a time, looks for a local copy, otherwise asks
      the edgesets where to go, unlocks, and moves on. It never holds two
      locks, so it chases the structure rather than freezing it; recency of
      the returned copy is what the checkers verify, not atomicity.

  upsert works only at the root: take the root lock, append a copy stamped
      with the current clock, publish the (key, value, ts) triple to the
      history and advance the clock, all in the same critical section, so
      releasing the root lock is the moment the upsert takes effect. A full
      root means retry after the root-full hook runs: maintenance_pass
      unless set_on_root_full installed another (the stress harness may
      hand the wait to the thread that runs its maintenance passes). Two
      hook rounds in a row that move no record make it raise MulticopyError.

  compact walks down from the root: lock a full node, pick the successor
      covering most of its live keys (or grow a fresh sink when no edge
      wants them), lock it, move records along the edge, record the moved
      copies as the parent's view of that child (succ_reach), release
      parent then child, continue at the child. At most two locks, always
      parent before child, which is what keeps concurrent compactions
      deadlock-free on a DAG. Each step is one _merge_down call;
      DfStructure.flush is the same step with its table as the fixed target
      and no capacity gate.

Node locks are plain threading.Lock objects, taken with explicit
acquire/release, so a hop costs one lock round trip and no Python-level lock
code. use_locks swaps every node lock, present and future, for another
object with acquire() and release(); the stress harness checks the order rule
above (at most two locks, the second a successor of the first) that way.
Other callers never pay for it.

A structure is built over a well-formed node graph, whose shape the
constructor checks once, and the upsert history that filled it; they fix the
rest: the clock continues after the newest timestamp, and each node's
succ_reach starts as the copies its successors hold. The constructor also
rejects a node that holds or routes a key outside the keyspace, or holds a
copy the history lacks.

Inside the keyspace, an edgeset of keyspace_size keys owns every key. Search
hops (route) and merge steps (merge_contents) are told the keyspace size, so
on such an edge they probe no key: a hop costs no membership test and a
merge no walk of the edgeset. Every edge of a list store, and the df table's
edge, owns the whole keyspace.

LsmStructure specializes the template to the log-structured shape: a small
root and a chain of exponentially growing tables that appears as compaction
pushes records down.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import count
from typing import Callable, Collection, Iterable, Mapping, Optional

from .core import (
    Key,
    MulticopyError,
    StructuralError,
    TimedValue,
    Timestamp,
    TOMBSTONE,
    Value,
    check_key,
    check_keyspace,
    route,
    routed_keys,
)
from .graph import MulticopyGraph, derive_succ_reach, structural_issues
from .history import UpsertHistory
from .nodes import (
    NodeHandle,
    NodeId,
    alloc_node,
    fresh_node_id,
    insert_node,
    merge_contents,
)


@dataclass(slots=True)
class SearchProbe:
    """Instrumented search result: value, its timestamp, and the history
    snapshot (published length) taken at invocation."""

    value: Value
    ts: Timestamp
    snap: int


class MulticopyStructure:
    """Shared engine: per-node locks, clock, history, ghost succ_reach.

    _locks[nid] holds a plain threading.Lock unless use_locks swapped in
    another lock; the template takes it through acquire() and release().
    """

    def __init__(
        self,
        keyspace_size: int,
        root: NodeId,
        handles: Iterable[NodeHandle],
        *,
        growth_factor: int = 2,
        history: Optional[UpsertHistory] = None,
    ):
        check_keyspace(keyspace_size)
        if growth_factor < 1:
            raise MulticopyError("growth_factor must be >= 1")
        self.keyspace_size = keyspace_size
        self.growth_factor = growth_factor
        self._handles: dict[NodeId, NodeHandle] = {h.id: h for h in handles}
        given = graph_of(keyspace_size, root, self._handles.values(), {})
        issues = structural_issues(given)
        if issues:
            fields = " ".join(f"{k}={v}" for k, v in issues[0].items())
            raise StructuralError(f"malformed node graph: {fields}")
        self.history = history if history is not None else UpsertHistory(keyspace_size)
        if self.history.keyspace_size != keyspace_size:
            raise MulticopyError(f"history keyspace {history.keyspace_size} is not {keyspace_size}")
        _check_given_keys(self._handles.values(), keyspace_size, self.history)
        self._root = root
        self._make_lock: Callable[[NodeId], threading.Lock] = lambda nid: threading.Lock()
        self._locks: dict[NodeId, threading.Lock] = {i: threading.Lock() for i in self._handles}
        self._succ_reach: dict[NodeId, dict[Key, TimedValue]] = derive_succ_reach(given)
        self._clock = len(self.history) + 1
        self._move_stamps = count(1)  # next() is atomic: one stamp per move
        self._last_move = 0  # stamp of the last merge step that moved a record
        self._all_keys: Optional[frozenset[Key]] = None
        # Runs (lock-free) after a failed root append.
        self._on_root_full: Callable[[], None] = self.maintenance_pass

    def use_locks(self, make: Callable[[NodeId], threading.Lock]) -> None:
        """Replace every node lock with make(nid), and give each node grown
        later make(its id). Call it at quiescence, with no node lock held."""
        self._make_lock = make
        for nid in list(self._locks):
            self._locks[nid] = make(nid)

    # --- public metadata ----------------------------------------------------

    @property
    def root_id(self) -> NodeId:
        return self._root

    @property
    def clock(self) -> Timestamp:
        return self._clock

    def node_ids(self) -> list[NodeId]:
        return sorted(self._handles)

    def handle(self, nid: NodeId) -> NodeHandle:
        return self._handles[nid]

    # --- operations -----------------------------------------------------------

    def search_timed(self, key: Key) -> SearchProbe:
        """Traverse from the root; returns the first copy found, or the
        implicit (tombstone, 0) if the walk falls off the structure."""
        size = self.keyspace_size
        # check_key costs a call; a search pays it only for a key it rejects.
        if not (type(key) is int and 0 <= key < size):
            check_key(key, size)
        snap = self.history.snapshot()
        locks, handles = self._locks, self._handles
        nid = self._root
        while True:
            lock = locks[nid]
            lock.acquire()
            try:
                h = handles[nid]
                tv = h.in_contents(key)
                nxt = None if tv is not None else route(h.succ_edgesets, key, nid, size)
            finally:
                lock.release()
            if tv is not None:
                return SearchProbe(tv.value, tv.ts, snap)
            if nxt is None:
                return SearchProbe(TOMBSTONE, 0, snap)
            nid = nxt

    def search(self, key: Key) -> Value:
        return self.search_timed(key).value

    def upsert_timed(self, key: Key, value: Value) -> Timestamp:
        """Write a fresh copy at the root; returns the timestamp it got.

        Retries for as long as the root is full of other keys; each failed
        round runs the root-full hook, which must make room or wait for it.
        Raises MulticopyError once two rounds in a row move no record: two,
        as a pass begun before the root filled may end having moved none.
        """
        if not (type(key) is int and 0 <= key < self.keyspace_size):
            check_key(key, self.keyspace_size)
        idle, seen = 0, None  # hook rounds in a row that moved no record
        while True:
            lock = self._locks[self._root]
            lock.acquire()
            try:
                t = self._clock
                if self._handles[self._root].add_contents(key, value, t):
                    # Same critical section as the append: the write becomes
                    # logically current the instant the lock is released.
                    self.history.record_upsert(key, value, t)
                    self._clock = t + 1
                    return t
                stamp = self._last_move
            finally:
                lock.release()
            idle = idle + 1 if stamp == seen else 0
            if idle == 2:
                raise MulticopyError(f"root {self._root} full: two hook rounds moved no record")
            seen = stamp
            self._on_root_full()

    def upsert(self, key: Key, value: Value) -> None:
        self.upsert_timed(key, value)

    def delete(self, key: Key) -> None:
        self.upsert_timed(key, TOMBSTONE)

    def set_on_root_full(self, hook: Callable[[], None]) -> None:
        """Replace the root-full hook (by default maintenance_pass); see upsert_timed."""
        self._on_root_full = hook

    def maintenance_pass(self) -> None:
        """Make room at the root: compact from it. A no-op while it has room."""
        self.compact()

    # --- compaction -------------------------------------------------------------

    def compact(self) -> None:
        """Push records down from a full root, cascading while targets fill.

        Each step is one _merge_down towards _compaction_target; the cascade
        stops at a node with room.
        """
        nid = self._root
        while nid is not None:
            nid = self._merge_down(nid, self._compaction_target)

    def _compaction_target(self, n: NodeHandle) -> Optional[NodeId]:
        """None while n has room; else the successor covering most of its
        live keys, or a fresh sink when no edge wants them."""
        if not n.at_capacity():
            return None
        m_id = n.choose_next()
        return m_id if m_id is not None else self._grow_sink(n)

    def _grow_sink(self, n: NodeHandle) -> NodeId:
        """Link a fresh table below n whose edge owns every key n does not
        already route somewhere; its capacity is n's times growth_factor."""
        cap = None if n.capacity is None else n.capacity * self.growth_factor
        m = alloc_node(cap)
        self._register(m)
        # Linking happens under n's lock; nobody can reach m before this
        # edge exists, so its lock cannot block.
        insert_node(n, m, self._unrouted_keys(n))
        return m.id

    def _merge_down(
        self, nid: NodeId, target: Callable[[NodeHandle], Optional[NodeId]]
    ) -> Optional[NodeId]:
        """One locked merge step: lock nid, ask target for the child (None
        ends the step with nothing moved), lock the child, move records down
        the edge and record them as nid's view of it. Returns the child."""
        lock, child = self._locks[nid], None
        lock.acquire()
        try:
            m_id = target(self._handles[nid])
            if m_id is not None:
                m_lock = self._locks[m_id]
                m_lock.acquire()
                child = m_lock
                n, m = self._handles[nid], self._handles[m_id]
                moved = merge_contents(n, m, keyspace_size=self.keyspace_size)
                if moved:
                    self._succ_reach[nid].update(moved)
                    self._last_move = next(self._move_stamps)
        finally:
            # Parent before child, on every exit path.
            lock.release()
            if child is not None:
                child.release()
        return m_id

    def _unrouted_keys(self, n: NodeHandle) -> frozenset[Key]:
        # Every sink of a list owns the whole keyspace, so they all share one
        # frozenset, built on the first allocation rather than at creation.
        if self._all_keys is None:
            self._all_keys = frozenset(range(self.keyspace_size))
        routed = routed_keys(n.succ_edgesets)
        return self._all_keys - routed if routed else self._all_keys

    def _register(self, m: NodeHandle) -> None:
        # Plain dict stores: assignment is atomic and ids are never reused,
        # so concurrent readers either see the node fully or not at all.
        self._locks[m.id] = self._make_lock(m.id)
        self._succ_reach[m.id] = {}
        self._handles[m.id] = m

    # --- snapshots ----------------------------------------------------------------

    def snapshot_graph(self) -> MulticopyGraph:
        """Deep-copy the node graph for offline analysis.

        Only meaningful at quiescence (no operation in flight); the stress
        harness pauses its workers before calling this.
        """
        return graph_of(self.keyspace_size, self._root, self._handles.values(), self._succ_reach)


def _check_given_keys(
    handles: Iterable[NodeHandle], keyspace_size: int, history: UpsertHistory
) -> None:
    """Reject a given node that holds or routes a key outside the keyspace,
    or holds a copy the history does not.

    Routing and merges take an edgeset of keyspace_size keys to own every
    key, which is sound only if every key a node holds and every edgeset
    key is an int in [0, keyspace_size). A copy missing from the history
    would get its timestamp handed out again by the clock.
    """
    for h in handles:
        bad = _stray_key(h._records, keyspace_size)
        if bad is not None:
            raise StructuralError(
                f"node {h.id} holds key {bad!r} outside keyspace [0, {keyspace_size})"
            )
        for m, ks in h.succ_edgesets.items():
            bad = _stray_key(ks, keyspace_size)
            if bad is not None:
                raise StructuralError(
                    f"edge {h.id}->{m} owns key {bad!r} outside keyspace [0, {keyspace_size})"
                )
        for k, tv in h._records.items():
            if not history.contains(k, tv.value, tv.ts):
                raise MulticopyError(
                    f"node {h.id} holds key {k} copy {tv!r}, which the history does not"
                )


def _stray_key(keys: Collection[Key], keyspace_size: int) -> Optional[object]:
    """A member of keys that check_key would reject: not an int, a bool, or
    outside [0, keyspace_size); None if there is none. The key types, min and
    max are found by C-level passes, so a whole-keyspace edgeset costs no
    Python loop."""
    if not keys:
        return None
    stray = {t for t in set(map(type, keys)) if t is bool or not issubclass(t, int)}
    if stray:
        return next(k for k in keys if type(k) in stray)
    lo, hi = min(keys), max(keys)
    if lo < 0:
        return lo
    return hi if hi >= keyspace_size else None


def graph_of(
    keyspace_size: int,
    root: NodeId,
    handles: Iterable[NodeHandle],
    succ_reach: Mapping[NodeId, dict[Key, TimedValue]],
) -> MulticopyGraph:
    """A snapshot of the given nodes, copied so that later changes to them
    do not show; a node missing from succ_reach has recorded nothing."""
    g = MulticopyGraph(keyspace_size=keyspace_size, root=root)
    for h in handles:
        g.nodes.add(h.id)
        g.contents[h.id] = h.contents()
        if h.succ_edgesets:
            g.edgesets[h.id] = dict(h.succ_edgesets)
        g.succ_reach[h.id] = dict(succ_reach.get(h.id, {}))
    return g


class LsmStructure(MulticopyStructure):
    """Log-structured instance: a small root over a tail of tables.

    Starts as a lone root; flushing a full root grows the first table, and
    each cascade step can grow the next, capacities scaling by
    growth_factor. The shape stays a list because fresh sinks take over all
    unrouted keys.
    """

    @classmethod
    def create(
        cls,
        keyspace_size: int,
        root_capacity: int,
        growth_factor: int = 2,
    ) -> "LsmStructure":
        root = NodeHandle(fresh_node_id(), root_capacity)
        return cls(keyspace_size, root.id, [root], growth_factor=growth_factor)
