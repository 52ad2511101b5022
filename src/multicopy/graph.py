"""Static analysis of a multicopy node graph.

A structure snapshot is a DAG: nodes hold timestamped copies, each edge owns
an edgeset (the keys a traversal may follow along it), and outgoing edgesets
of a node are pairwise disjoint so a search never has two ways down. Two
derived views matter:

  contents_in_reach(n): the copy a traversal starting at n would find for
      each key, i.e. the node's own copy, else the unique successor whose
      edgeset covers the key, recursively.

  succ_reach (per node): the copy each key had at the covering successor the
      last time this node handed it down. Maintained by the templates at
      merge points only, which is what makes it checkable: if every node
      routes its recorded keys somewhere (flow_local_edges) and the recorded
      copies agree with what actually flows in (flow_reach_agree), then a
      node's local view (own copy, else recorded successor copy) equals the
      genuinely recursive contents_in_reach. The checker leans on that
      equivalence instead of trusting either side.

Both conditions are phrased as flows: assignments fl mapping each node to a
multiset (Counter) satisfying fl(n) = inflow(n) + sum over edges e(n', n) of
the edge function applied to fl(n'). The copy flow carries (key, copy) pairs
generated constantly from succ_reach along edgesets; the inset flow carries
bare keys injected at the root and filtered by edgesets, so a key's
multiplicity at n counts the edgeset-respecting paths from the root, and its
support is exactly the set of keys a search can arrive with (the inset).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import Literal, Optional

from .core import (
    Key,
    MulticopyError,
    NodeContents,
    NodeId,
    StructuralError,
    TimedValue,
    check_key,
    check_keyspace,
    decode_value,
    encode_value,
    int_field,
    route,
)

FlowKind = Literal["cir", "inset"]

# Per-node flow value: multiset as element -> count. Copy flow elements are
# (key, TimedValue) pairs, inset flow elements are bare keys.
FlowAssignment = dict[NodeId, Counter]


@dataclass
class MulticopyGraph:
    """Immutable-by-convention snapshot of a structure's node graph."""

    keyspace_size: int
    root: NodeId
    nodes: set[NodeId] = field(default_factory=set)
    contents: dict[NodeId, NodeContents] = field(default_factory=dict)
    # edgesets[n][m] = keys owned by edge n->m; absent means no edge.
    edgesets: dict[NodeId, dict[NodeId, frozenset[Key]]] = field(default_factory=dict)
    # succ_reach[n][k] = copy recorded for k when n last handed it down.
    succ_reach: dict[NodeId, dict[Key, TimedValue]] = field(default_factory=dict)

    def successors(self, n: NodeId) -> dict[NodeId, frozenset[Key]]:
        return self.edgesets.get(n, {})

    def node_contents(self, n: NodeId) -> NodeContents:
        return self.contents.get(n, {})

    def node_succ_reach(self, n: NodeId) -> dict[Key, TimedValue]:
        return self.succ_reach.get(n, {})

    def edges(self) -> list[tuple[NodeId, NodeId, frozenset[Key]]]:
        return [
            (n, m, ks)
            for n, outs in self.edgesets.items()
            for m, ks in outs.items()
        ]


def structural_issues(g: MulticopyGraph) -> list[dict]:
    """Collect structure-level defects: cycles, overlapping edgesets,
    dangling edge endpoints, root not a node. Empty list means sound."""
    issues: list[dict] = []
    if g.root not in g.nodes:
        issues.append({"kind": "root_missing", "root": g.root})
    for n, m, ks in g.edges():
        if n not in g.nodes or m not in g.nodes:
            issues.append({"kind": "dangling_edge", "src": n, "dst": m})
    for n in g.nodes:
        outs = list(g.successors(n).items())
        for i in range(len(outs)):
            for j in range(i + 1, len(outs)):
                overlap = outs[i][1] & outs[j][1]
                if overlap:
                    issues.append(
                        {
                            "kind": "edgeset_overlap",
                            "node": n,
                            "succ_a": outs[i][0],
                            "succ_b": outs[j][0],
                            "keys": sorted(overlap),
                        }
                    )
    try:
        topological_order(g)
    except StructuralError:
        issues.append({"kind": "cycle"})
    return issues


def predecessors(g: MulticopyGraph) -> dict[NodeId, list[NodeId]]:
    """The sources of each node's incoming edges, in edge order."""
    preds: dict[NodeId, list[NodeId]] = {n: [] for n in g.nodes}
    for n, m, _ in g.edges():
        preds[m].append(n)
    return preds


def topological_order(g: MulticopyGraph) -> list[NodeId]:
    """Nodes ordered so every edge goes left to right. Raises on cycles."""
    ts: TopologicalSorter = TopologicalSorter()
    for n in g.nodes:
        ts.add(n)
    for n, m, _ in g.edges():
        ts.add(m, n)
    try:
        return list(ts.static_order())
    except CycleError as e:
        raise StructuralError(f"node graph contains a cycle: {e}") from e


def contents_in_reach(
    g: MulticopyGraph, n: NodeId, key: Key, _visiting: Optional[set] = None
) -> Optional[TimedValue]:
    """The copy a traversal from n finds for key, None if it falls off.

    Follows the defining recursion directly: local copy wins, otherwise
    descend the unique covering edge. Cycles are a structural error rather
    than an infinite walk.
    """
    if _visiting is None:
        _visiting = set()
    if n in _visiting:
        raise StructuralError(f"cycle through node {n} while resolving key {key}")
    own = g.node_contents(n).get(key)
    if own is not None:
        return own
    m = route(g.successors(n), key, n)
    if m is None:
        return None
    _visiting.add(n)
    try:
        return contents_in_reach(g, n=m, key=key, _visiting=_visiting)
    finally:
        _visiting.remove(n)


def reach_maps(g: MulticopyGraph) -> dict[NodeId, dict[Key, TimedValue]]:
    """contents_in_reach for every node and key at once.

    Same recursion as contents_in_reach evaluated bottom-up over a
    topological order, so large snapshots check in linear-ish time.
    """
    order = topological_order(g)
    reach: dict[NodeId, dict[Key, TimedValue]] = {}
    for n in reversed(order):
        view: dict[Key, TimedValue] = {}
        # Later successors first and own copies last, so that the node's
        # copy wins, then the first successor whose edgeset covers the key.
        for m, ks in reversed(g.successors(n).items()):
            below = reach.get(m, {})
            if not ks.issuperset(below):
                below = {k: tv for k, tv in below.items() if k in ks}
            view.update(below)
        view.update(g.node_contents(n))
        reach[n] = view
    return reach


def local_reach(g: MulticopyGraph, n: NodeId) -> dict[Key, TimedValue]:
    """A node's own view of what is reachable: its copy, else the recorded
    successor copy. Agrees with reach_maps exactly when the flow conditions
    hold; comparing the two is the point, so this must stay independent."""
    view = dict(g.node_succ_reach(n))
    view.update(g.node_contents(n))
    return view


def _edge_output(g: MulticopyGraph, n: NodeId, m: NodeId, fl_n: Counter, kind: FlowKind) -> Counter:
    """The edge function's output; it may be fl_n itself, so callers must
    not change it."""
    ks = g.successors(n)[m]
    if kind == "cir":
        # Constant edge: emits the recorded copies for the keys it owns,
        # regardless of what flows into n. An edge that owns every recorded
        # key (every edge of a list) emits them all, built in C.
        sr = g.node_succ_reach(n)
        if ks.issuperset(sr):
            return Counter(dict.fromkeys(sr.items(), 1))
        return Counter({(k, sr[k]): 1 for k in ks.intersection(sr)})
    # Inset edge: pass through only the keys the edge owns, keep counts.
    if ks.issuperset(fl_n):
        return fl_n
    return Counter({k: c for k, c in fl_n.items() if k in ks})


def _inflow(g: MulticopyGraph, n: NodeId, kind: FlowKind) -> Counter:
    if kind == "inset" and n == g.root:
        return Counter(dict.fromkeys(range(g.keyspace_size), 1))
    return Counter()


def compute_flow(g: MulticopyGraph, kind: FlowKind) -> FlowAssignment:
    """Solve the flow equation by a single pass in topological order.

    Edge functions only depend on the source node's flow, so on a DAG one
    sweep reaches the (unique) fixpoint.
    """
    if kind not in ("cir", "inset"):
        raise ValueError(f"unknown flow kind {kind!r}")
    order = topological_order(g)
    preds = predecessors(g)
    fl: FlowAssignment = {}
    for n in order:
        # A copy-flow edge output is built fresh and the copy flow has no
        # inflow, so a lone predecessor's output is the node's flow as it
        # stands. An inset output can be the source's own flow: it is copied.
        if kind == "cir" and len(preds[n]) == 1:
            p = preds[n][0]
            fl[n] = _edge_output(g, p, n, fl[p], kind)
            continue
        acc = _inflow(g, n, kind)
        for p in preds[n]:
            acc.update(_edge_output(g, p, n, fl[p], kind))
        fl[n] = acc
    return fl


def _passes_whole_input(g: MulticopyGraph, kind: FlowKind, fl: FlowAssignment,
                        p: NodeId, n: NodeId) -> bool:
    """The flow equation holds at n, a node other than the root whose only
    in-edge comes from p, where that edge passes its whole input: every
    copy p records for the copy flow, every key flowing into p for the inset
    flow. n's flow must then be that input, which one C-level comparison
    tells without building the edge's output."""
    ks, got = g.successors(p)[n], fl.get(n, {})
    if kind == "cir":
        sr = g.node_succ_reach(p)
        return ks.issuperset(sr) and got.keys() == sr.items() and set(got.values()) <= {1}
    fl_p = fl.get(p, {})
    return ks.issuperset(fl_p) and dict.__eq__(fl_p, got)


def flow_residuals(g: MulticopyGraph, kind: FlowKind, fl: FlowAssignment) -> dict[NodeId, Counter]:
    """Recompute each node's inflow sum from fl and diff against fl itself.

    A correct fixpoint has an empty residual everywhere; anything else names
    the node and the offending elements with signed counts. A node that
    passes _passes_whole_input (every node of a list but the root) has none,
    so its sum is rebuilt only where that test fails.
    """
    preds = predecessors(g)
    residuals: dict[NodeId, Counter] = {}
    for n in g.nodes:
        ps = preds[n]
        if len(ps) == 1 and n != g.root and _passes_whole_input(g, kind, fl, ps[0], n):
            continue
        expect = _inflow(g, n, kind)
        for p in ps:
            expect.update(_edge_output(g, p, n, fl.get(p, Counter()), kind))
        got = fl.get(n, Counter())
        # Equal dicts leave no residual. dict's equality runs in C, Counter's
        # in Python; the diff below still forgives zero counts.
        if dict.__eq__(expect, got):
            continue
        diff = Counter()
        for el in set(expect) | set(got):
            d = got.get(el, 0) - expect.get(el, 0)
            if d:
                diff[el] = d
        if diff:
            residuals[n] = diff
    return residuals


def inset_map(g: MulticopyGraph) -> dict[NodeId, frozenset[Key]]:
    """Inset of every node: the keys whose search may arrive there, i.e.
    keys carried by some root-to-n path through every edgeset on the way.
    Computed by set propagation; the inset flow's support must match this,
    which the checker verifies.

    A node other than the root whose only in-edge comes from p, where that
    edge's keys cover p's whole inset (every node of a list but the root),
    gets p's frozenset itself, so a list holds one keyspace-sized inset in
    all. This is the set-side twin of _passes_whole_input; the inset flow
    builds its own multisets, so the two formulations stay independent."""
    preds = predecessors(g)
    ins: dict[NodeId, frozenset[Key]] = {}
    for v in topological_order(g):
        ps = preds[v]
        if v != g.root and len(ps) == 1:
            p = ps[0]
            ks, above = g.edgesets[p][v], ins[p]
            ins[v] = above if ks.issuperset(above) else above & ks
            continue
        acc = set(range(g.keyspace_size)) if v == g.root else set()
        for p in ps:
            acc |= ins[p] & g.edgesets[p][v]
        ins[v] = frozenset(acc)
    return {v: ins[v] for v in g.nodes}


def derive_succ_reach(g: MulticopyGraph) -> dict[NodeId, dict[Key, TimedValue]]:
    """Consistent ghost state for a hand-built graph: record, for every key a
    node routes somewhere, the copy actually reachable at the chosen
    successor. A structure built over given nodes starts from these records
    and then maintains them incrementally at merges."""
    # A key no node stores is reachable nowhere, so it is never recorded.
    stored = set().union(*g.contents.values())
    out: dict[NodeId, dict[Key, TimedValue]] = {}
    for n in g.nodes:
        view: dict[Key, TimedValue] = {}
        for m, ks in g.successors(n).items():
            for k in ks.intersection(stored):
                tv = contents_in_reach(g, m, k)
                if tv is not None:
                    view[k] = tv
        out[n] = view
    return out


# --- snapshot serialization ---------------------------------------------


def _encode_tv(tv: TimedValue) -> list:
    return [encode_value(tv.value), tv.ts]


def _decode_tv(raw: list) -> TimedValue:
    v, t = raw
    return TimedValue(decode_value(v), int_field(t, "ts"))


def _node_id(raw: object) -> NodeId:
    return int_field(raw, "node id")


def _decimal_int(raw: str, what: str) -> int:
    """An object key as graph_to_json writes an int: its decimal str, with
    no sign, space, underscore or leading zero that int() would also take."""
    n = int(raw)
    if str(n) != raw:
        raise MulticopyError(f"{what} {raw!r} is not written as a decimal int")
    return n


def _decode_records(raw: dict, keyspace_size: int) -> dict[Key, TimedValue]:
    """Copies by key, as written for contents and succ_reach."""
    out: dict[Key, TimedValue] = {}
    for k_s, tv in raw.items():
        k = _decimal_int(k_s, "key")
        check_key(k, keyspace_size)
        out[k] = _decode_tv(tv)
    return out


def graph_to_json(g: MulticopyGraph) -> dict:
    return {
        "keyspace_size": g.keyspace_size,
        "root": g.root,
        "nodes": sorted(g.nodes),
        "contents": {
            str(n): {str(k): _encode_tv(tv) for k, tv in sorted(c.items())}
            for n, c in sorted(g.contents.items())
            if c
        },
        "edgesets": sorted([n, m, sorted(ks)] for n, m, ks in g.edges()),
        "succ_reach": {
            str(n): {str(k): _encode_tv(tv) for k, tv in sorted(sr.items())}
            for n, sr in sorted(g.succ_reach.items())
            if sr
        },
    }


def graph_from_json(obj: dict) -> MulticopyGraph:
    """Rebuild a snapshot; a malformed one raises MulticopyError. Every key
    it names, in contents, edgesets and succ_reach, must lie in its keyspace,
    contents and succ_reach may name only listed nodes, in the decimal form
    graph_to_json writes, and no edge may be listed twice."""
    if not isinstance(obj, dict):
        raise MulticopyError("malformed snapshot: expected a JSON object")
    try:
        size = obj["keyspace_size"]
        check_keyspace(size)
        g = MulticopyGraph(
            keyspace_size=size,
            root=_node_id(obj["root"]),
            nodes={_node_id(n) for n in obj["nodes"]},
        )
        for n, m, keys in obj.get("edgesets", []):
            for k in keys:
                check_key(k, size)
            m = _node_id(m)
            outs = g.edgesets.setdefault(_node_id(n), {})
            if m in outs:
                raise MulticopyError(f"edge {n}->{m} is listed twice")
            outs[m] = frozenset(keys)
        for name, records in (("contents", g.contents), ("succ_reach", g.succ_reach)):
            for n_s, raw in obj.get(name, {}).items():
                n = _decimal_int(n_s, "node id")
                if n not in g.nodes:
                    raise MulticopyError(f"{name} of node {n}, which nodes does not list")
                records[n] = _decode_records(raw, size)
    except KeyError as e:
        raise MulticopyError(f"malformed snapshot: missing field {e.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError, MulticopyError) as e:
        raise MulticopyError(f"malformed snapshot: {e}") from None
    return g


def save_graph(g: MulticopyGraph, path: str) -> None:
    with open(path, "w") as f:
        json.dump(graph_to_json(g), f, indent=2, sort_keys=True)
        f.write("\n")


def load_graph(path: str) -> MulticopyGraph:
    with open(path) as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as e:
            raise MulticopyError(f"malformed snapshot: not JSON ({e})") from None
    return graph_from_json(obj)
