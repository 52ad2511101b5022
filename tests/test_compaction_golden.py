"""Record-for-record regression test of compaction and flush outcomes.

Every case replays a seeded stream of upserts and deletes on an
LsmStructure (on-fail compaction, growth 2 and 3, keyspaces 64 to 4096) or a
DfStructure (flush on full, plus explicit flushes), and hashes the state at
four points of the stream: every node's capacity and contents, its outgoing
edgesets and its succ_reach records. Node ids come from a process-wide
counter, so they are renamed by position along the walk from the root. Any
change to which records a merge moves, where they land or what the parent
records about them fails the test. A deliberate change of outcome
regenerates the digests with

    PYTHONPATH=src python3 tests/test_compaction_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from multicopy import df, lsm
from multicopy.df import DfStructure
from multicopy.graph import MulticopyGraph, graph_to_json
from multicopy.lsm import LsmStructure, MulticopyStructure

DATA = Path(__file__).with_name("data") / "compaction_golden.json"
CHECKPOINTS = 4


def _cases() -> list[tuple[str, dict]]:
    cases = []
    for growth in (2, 3):
        for ks in (64, 256, 1024, 4096):
            cases.append((f"lsm-g{growth}-k{ks}", {
                "kind": "lsm", "growth": growth, "keyspace": ks,
                "root": max(4, ks // 32), "ops": 3 * ks,
            }))
    for ks, root in ((64, 4), (1024, 32), (4096, 128)):
        cases.append((f"df-k{ks}", {
            "kind": "df", "keyspace": ks, "root": root, "ops": 3 * ks,
        }))
    return cases


CASES = _cases()


def _chain_order(s: MulticopyStructure) -> dict[int, int]:
    """Node id -> position on a breadth-first walk from the root, visiting
    successors in id (that is, allocation) order."""
    pos = {s.root_id: 0}
    frontier = [s.root_id]
    while frontier:
        nxt = []
        for nid in frontier:
            for m in sorted(s.handle(nid).succ_edgesets):
                if m not in pos:
                    pos[m] = len(pos)
                    nxt.append(m)
        frontier = nxt
    return pos


def state_json(s: MulticopyStructure) -> dict:
    g = s.snapshot_graph()
    pos = _chain_order(s)
    renamed = MulticopyGraph(
        keyspace_size=g.keyspace_size,
        root=pos[g.root],
        nodes={pos[n] for n in g.nodes},
    )
    renamed.contents = {pos[n]: c for n, c in g.contents.items()}
    renamed.edgesets = {
        pos[n]: {pos[m]: ks for m, ks in out.items()} for n, out in g.edgesets.items()
    }
    renamed.succ_reach = {pos[n]: sr for n, sr in g.succ_reach.items()}
    return {
        "graph": graph_to_json(renamed),
        "capacity": {str(pos[n]): s.handle(n).capacity for n in s.node_ids()},
        "clock": s.clock,
    }


def replay(name: str, spec: dict) -> str:
    ks = spec["keyspace"]
    if spec["kind"] == "lsm":
        s = LsmStructure.create(ks, spec["root"], spec["growth"])
    else:
        s = DfStructure.create(ks, spec["root"])
    rng = random.Random(name)
    h = hashlib.sha256()
    every = spec["ops"] // CHECKPOINTS
    for i in range(1, spec["ops"] + 1):
        k = rng.randrange(ks)
        r = rng.random()
        if r < 0.85:
            s.upsert(k, rng.randrange(1000))
        else:
            s.delete(k)
        if spec["kind"] == "df" and rng.random() < 0.01:
            s.flush()  # also flushes half-empty buffers
        if i % every == 0:
            h.update(json.dumps(state_json(s), sort_keys=True).encode())
    return h.hexdigest()


def test_compaction_outcomes_match_the_pinned_digests(monkeypatch):
    expected = json.loads(DATA.read_text())["sha256"]
    assert sorted(expected) == sorted(name for name, _ in CASES)
    # Sort every merge into whole-source or partial, so the digests are
    # known to cover both kinds of move.
    kinds = {"whole": 0, "partial": 0}
    for mod in (lsm, df):
        real = mod.merge_contents

        def counted(n, m, real=real, **kwargs):
            before = n.live_count()
            moved = real(n, m, **kwargs)
            kinds["whole" if moved and len(moved) == before else "partial"] += 1
            return moved

        monkeypatch.setattr(mod, "merge_contents", counted)
    mismatched = [name for name, spec in CASES if replay(name, spec) != expected[name]]
    assert not mismatched, f"cases whose compaction outcome changed: {mismatched}"
    assert kinds["whole"] >= 100 and kinds["partial"] >= 100, kinds


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(
        json.dumps({"sha256": {name: replay(name, spec) for name, spec in CASES}}, indent=0)
        + "\n"
    )
