"""The benchmark's tracer (perfbench/tracing.py) run against this package.

The tracer patches public names of multicopy from outside, at the places
their callers look them up, so a renamed function or a changed import would
quietly drop a layer from the traced report. These tests instrument the
package, drive a small lsm compaction, a df flush and a short checked
stress run, and check that every hook lands and fires, that the merge spans
count exactly the records moved, and that restore() leaves no trace.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from multicopy import checker, df, harness, history, lsm, nodes
from multicopy.df import DfStructure
from multicopy.harness import WorkloadConfig, run_stress
from multicopy.lsm import LsmStructure

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (owner, name) of every attribute the tracer replaces.
HOOKS = {
    (lsm.MulticopyStructure, "search_timed"),
    (lsm.MulticopyStructure, "upsert_timed"),
    (lsm.MulticopyStructure, "compact"),
    (lsm.MulticopyStructure, "snapshot_graph"),
    (df.DfStructure, "flush"),
    (lsm, "merge_contents"),
    (df, "merge_contents"),
    (lsm, "alloc_node"),
    (nodes.NodeHandle, "in_contents"),
    (nodes.NodeHandle, "add_contents"),
    (history.UpsertHistory, "record_upsert"),
    (history.UpsertHistory, "check_search_recency"),
    (checker, "reach_maps"),
    (checker, "compute_flow"),
    (checker, "inset_map"),
    (harness, "check_invariants"),
    (harness, "check_inv2_monotone"),
    (harness, "linearize"),
    (harness, "generate_ops"),
    (harness.PauseGate, "pause"),
    (harness.PauseGate, "resume"),
}
OWNERS = {owner for owner, _ in HOOKS}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def _namespaces() -> dict[object, dict]:
    return {owner: dict(vars(owner)) for owner in OWNERS}


def _changed(before: dict[object, dict]) -> set[tuple[object, str]]:
    out = set()
    for owner, names in before.items():
        now = vars(owner)
        out |= {(owner, a) for a in names.keys() | now.keys() if now.get(a) is not names.get(a)}
    return out


def test_instrument_hooks_every_layer_and_restore_undoes_it(tracing):
    # The module-level names the tracer patches are the package's own.
    assert lsm.merge_contents is df.merge_contents is nodes.merge_contents
    assert lsm.alloc_node is nodes.alloc_node
    before = _namespaces()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        assert _changed(before) == HOOKS

        # An lsm compaction: root of 4 over fresh sinks of 8 and 16.
        s = LsmStructure.create(64, 4, 2)
        for k in range(4):
            s.upsert(k, k)
        s.compact()  # 4 records into a new sink
        for k in range(4, 8):
            s.upsert(k, k)
        s.compact()  # 4 more, filling the sink; it cascades all 8
        assert s.search(0) == 0
        lsm_moved = [x.items for x in tracer.spans if x.name == "nodes.merge"]
        assert lsm_moved == [4, 4, 8]
        assert [s.handle(n).live_count() for n in s.node_ids()] == [0, 0, 8]

        # A df flush of a half-full buffer: one merge of its 5 records.
        d = DfStructure.create(64, 8)
        for k in range(5):
            d.upsert(k, k)
        d.flush()
        merges = [x for x in tracer.spans if x.name == "nodes.merge"]
        assert merges[-1].items == 5 and len(merges) == 4
        parents = {x.sid: x.name for x in tracer.spans}
        assert [parents[x.parent] for x in merges] == ["lsm.compact"] * 3 + ["df.flush"]
        assert d.handle(d.disk_id).live_count() == 5

        # A short checked stress run reaches the harness and checker hooks.
        report = run_stress(WorkloadConfig(
            keyspace_size=32, threads=1, ops_per_thread=300, root_capacity=4,
            maintenance="on-fail", checkpoint_every=100,
        ))
        assert report.ok
        fired = {x.name for x in tracer.spans}
        counts = tracer.counts()
        assert fired == {
            "lsm.search", "lsm.upsert", "lsm.compact", "lsm.snapshot_graph",
            "df.flush", "nodes.merge", "history.record_upsert",
            "history.check_search_recency", "graph.reach_maps",
            "graph.compute_flow", "graph.inset_map", "checker.check_invariants",
            "checker.check_inv2_monotone", "checker.linearize",
            "harness.generate_ops", "harness.pause", "harness.resume",
        }
        assert {"root.add", "root.full", "lsm.search.hops", "lsm.alloc_node"} <= set(counts)
    finally:
        tracer.patches.restore()
    assert _changed(before) == set()
    assert lsm.merge_contents is nodes.merge_contents
