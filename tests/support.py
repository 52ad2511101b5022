"""Shared test helpers: random structure snapshots, independent oracles and
an edgeset that refuses to be probed.

The oracles here deliberately avoid the library's own algorithms: flows are
solved by naive iteration until nothing changes (instead of one topological
pass), and insets are counted by enumerating root paths (instead of set
propagation). Tests compare the two routes; neither side is trusted alone.
"""

from __future__ import annotations

import random
from collections import Counter

from multicopy.core import TOMBSTONE, TimedValue
from multicopy.graph import MulticopyGraph, derive_succ_reach
from multicopy.lsm import LsmStructure
from multicopy.nodes import NodeHandle

# (owner, name, replacement) by id: two ways for nothing to relieve a full
# root, a pass that moves no record and a root that turns every append away.
UNRELIEVED_ROOT = {
    "no-op-pass": (LsmStructure, "maintenance_pass", lambda self: None),
    "refused-append": (NodeHandle, "add_contents", lambda self, key, value, ts: False),
}


class UnprobedEdgeset(frozenset):
    """An edgeset that fails the test if anything walks or probes it; only
    its length may be read."""

    def _probed(self, *args):
        raise AssertionError("edgeset was probed")

    issuperset = intersection = __contains__ = _probed


def random_dag(
    rng: random.Random,
    max_nodes: int = 12,
    max_keys: int = 16,
    derived_reach: bool = True,
    max_out_degree: int = 3,
) -> MulticopyGraph:
    """A random snapshot: DAG over ids 0..n-1 (edges only forward, so node 0
    is the root), outgoing edgesets made disjoint by dealing keys, random
    timestamped contents. With derived_reach the ghost records are seeded
    consistently from the graph itself."""
    n_nodes = rng.randint(1, max_nodes)
    keyspace = rng.randint(1, max_keys)
    g = MulticopyGraph(
        keyspace_size=keyspace, root=0, nodes=set(range(n_nodes))
    )
    ts_pool = list(range(1, 4 * n_nodes * keyspace + 2))
    rng.shuffle(ts_pool)
    for n in range(n_nodes):
        contents = {}
        for k in range(keyspace):
            if rng.random() < 0.4:
                value = TOMBSTONE if rng.random() < 0.15 else rng.randrange(100)
                contents[k] = TimedValue(value, ts_pool.pop())
        if contents:
            g.contents[n] = contents
        succs = [m for m in range(n + 1, n_nodes)]
        rng.shuffle(succs)
        succs = succs[: rng.randint(0, min(max_out_degree, len(succs)))]
        if succs:
            # Deal a random subset of keys among the chosen successors so
            # the outgoing edgesets are disjoint by construction.
            keys = [k for k in range(keyspace) if rng.random() < 0.75]
            rng.shuffle(keys)
            outs: dict[int, set[int]] = {m: set() for m in succs}
            for i, k in enumerate(keys):
                outs[succs[i % len(succs)]].add(k)
            for m, ks in outs.items():
                if ks:
                    g.edgesets.setdefault(n, {})[m] = frozenset(ks)
    if derived_reach:
        g.succ_reach = derive_succ_reach(g)
    return g


def naive_flow(g: MulticopyGraph, kind: str) -> dict[int, Counter]:
    """Iterate the flow equation from all-empty until it stops changing.

    Recomputes every node from the previous round's values each time, with
    no ordering smarts; on a DAG this settles within n_nodes rounds.
    """
    fl = {n: Counter() for n in g.nodes}
    for _ in range(len(g.nodes) + 2):
        nxt: dict[int, Counter] = {}
        for n in g.nodes:
            acc = Counter()
            if kind == "inset" and n == g.root:
                for k in range(g.keyspace_size):
                    acc[k] += 1
            for p in g.nodes:
                ks = g.edgesets.get(p, {}).get(n)
                if ks is None:
                    continue
                if kind == "cir":
                    sr = g.succ_reach.get(p, {})
                    for k in ks:
                        if k in sr:
                            acc[(k, sr[k])] += 1
                else:
                    for k, c in fl[p].items():
                        if k in ks:
                            acc[k] += c
            nxt[n] = acc
        if nxt == fl:
            return fl
        fl = nxt
    raise AssertionError("flow iteration did not stabilize on a DAG")


def inset_path_counts(g: MulticopyGraph) -> dict[int, Counter]:
    """For every node, how many root paths carry each key the whole way.

    Pure enumeration: walk every path from the root, intersecting the
    carried key set with each edgeset, crediting surviving keys at every
    node visited.
    """
    counts: dict[int, Counter] = {n: Counter() for n in g.nodes}

    def walk(n: int, carried: frozenset[int]) -> None:
        counts[n].update(carried)
        for m, ks in g.edgesets.get(n, {}).items():
            surviving = carried & ks
            if surviving:
                walk(m, surviving)

    walk(g.root, frozenset(range(g.keyspace_size)))
    return counts
