"""Witness-for-witness regression test of the snapshot checkers.

Every case is a seeded random snapshot, mostly doctored: inconsistent
succ_reach records, copies newer than the clock, a history missing entries,
a copy moved below an older one, overlapping edgesets, cycles and dangling
edges, and snapshot pairs for inv2 with negative timestamps and keys outside
the keyspace. The data file holds a sha256 of each case's
InvariantReport.to_json() and inv2 CheckResult.to_json() outputs, and of
flow_residuals on doctored flows, so any change to a check id, label,
passed/skipped flag, witness, witness order or residual fails the test.

The digests pin the outputs of the checker as it walked the whole keyspace
and sorted every input. A deliberate change of output regenerates them with

    PYTHONPATH=src python3 tests/test_checker_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from support import random_dag

from multicopy.checker import check_inv2_monotone, check_invariants
from multicopy.core import TOMBSTONE, TimedValue
from multicopy.graph import (
    MulticopyGraph,
    compute_flow,
    derive_succ_reach,
    flow_residuals,
    inset_map,
    structural_issues,
    topological_order,
)
from multicopy.history import UpsertHistory

DATA = Path(__file__).with_name("data") / "checker_golden.json"
CASES = 216
DOCTORINGS = (
    "clean",
    "succ_reach",
    "future",
    "missing",
    "moved_below",
    "overlap",
    "cycle",
    "inv2_pair",
)


def _copies(g: MulticopyGraph) -> list[tuple[int, int, TimedValue]]:
    return [(n, k, tv) for n, c in g.contents.items() for k, tv in c.items()]


def _retime(g: MulticopyGraph, rng: random.Random, sound: bool) -> list[tuple]:
    """Give the stored copies the dense timestamps 1..N, deepest nodes
    oldest when sound, and return the matching history entries in order."""
    copies = _copies(g)
    if sound:
        depth = {n: i for i, n in enumerate(topological_order(g))}
        copies.sort(key=lambda c: (-depth[c[0]], rng.random()))
    else:
        copies.sort(key=lambda c: c[2].ts)
    entries = []
    for ts, (n, k, tv) in enumerate(copies, start=1):
        g.contents[n][k] = TimedValue(tv.value, ts)
        entries.append((k, tv.value, ts))
    return entries


def _prune_to_insets(g: MulticopyGraph) -> None:
    """Drop the copies no search can arrive at."""
    insets = inset_map(g)
    for n, c in g.contents.items():
        for k in [k for k in c if k not in insets[n]]:
            del c[k]


def _doctored_residuals(g: MulticopyGraph, rng: random.Random) -> dict:
    """flow_residuals of both flows after a few elements are dropped,
    recounted, zeroed or invented, plus an untouched node or two."""
    out = {}
    for kind in ("cir", "inset"):
        fl = compute_flow(g, kind)
        for n in sorted(fl):
            r = rng.random()
            els = sorted(fl[n], key=repr)
            if r < 0.2 and els:
                del fl[n][rng.choice(els)]
            elif r < 0.4 and els:
                fl[n][rng.choice(els)] += rng.choice([-1, 1, 2])
            elif r < 0.6:
                fl[n][rng.randrange(g.keyspace_size + 2)] += 0
            elif r < 0.7:
                fl[n][(0, TimedValue(TOMBSTONE, 0))] += 1
        res = flow_residuals(g, kind, fl)
        out[kind] = [
            [n, sorted((repr(el), c) for el, c in diff.items())]
            for n, diff in sorted(res.items())
        ]
    return out


def _history(keyspace: int, entries) -> UpsertHistory:
    h = UpsertHistory(keyspace)
    for k, v, t in entries:
        h.record_upsert(k, v, t)
    return h


def _doctor_succ_reach(g: MulticopyGraph, rng: random.Random) -> None:
    pool = [tv for _, _, tv in _copies(g)] or [TimedValue(1, 1)]
    for n in sorted(g.nodes):
        sr = g.succ_reach.setdefault(n, {})
        for k in sorted(sr):
            r = rng.random()
            if r < 0.2:
                del sr[k]
            elif r < 0.4:
                sr[k] = rng.choice(pool)
            elif r < 0.5:
                sr[k] = TimedValue(sr[k].value, sr[k].ts + rng.randint(1, 5))
        for _ in range(rng.randint(0, 2)):
            sr[rng.randrange(g.keyspace_size)] = rng.choice(pool)


def _move_below(g: MulticopyGraph, rng: random.Random) -> None:
    """Swap upstream and downstream copies of a key along edges that own
    it, so the newer copy ends up below the older one."""
    spots = [
        (n, m, k)
        for n, m, ks in sorted(g.edges())
        for k in sorted(ks)
        if k in g.contents.get(n, {}) and k in g.contents.get(m, {})
    ]
    for n, m, k in rng.sample(spots, min(len(spots), rng.randint(1, 4))):
        g.contents[n][k], g.contents[m][k] = g.contents[m][k], g.contents[n][k]


def _overlap(g: MulticopyGraph, rng: random.Random) -> None:
    nodes = sorted(g.nodes)
    for n in nodes:
        outs = g.edgesets.get(n, {})
        if len(outs) >= 2:
            a, b = sorted(outs)[:2]
            extra = set(rng.sample(sorted(outs[a]), min(len(outs[a]), 3)))
            outs[b] = outs[b] | extra
            return
    later = [m for m in nodes if m > nodes[0]]
    if later:
        outs = g.edgesets.setdefault(nodes[0], {})
        keys = frozenset(range(g.keyspace_size))
        for m in later[:2]:
            outs[m] = keys


def _cycle(g: MulticopyGraph, rng: random.Random) -> None:
    nodes = sorted(g.nodes)
    if len(nodes) < 2 or rng.random() < 0.2:
        # A dangling edge or a missing root gates the same way a cycle does.
        if rng.random() < 0.5:
            g.edgesets.setdefault(nodes[-1], {})[99] = frozenset({0})
        else:
            g.root = 77
        return
    a, b = sorted(rng.sample(nodes, 2))
    g.edgesets.setdefault(a, {}).setdefault(b, frozenset({0}))
    g.edgesets.setdefault(b, {})[a] = frozenset(range(g.keyspace_size))


def _inv2_next(prev: MulticopyGraph, rng: random.Random) -> MulticopyGraph:
    """A later snapshot of prev with copies advanced, regressed, removed,
    and written with negative timestamps or keys outside the keyspace."""
    nxt = MulticopyGraph(
        keyspace_size=prev.keyspace_size,
        root=prev.root,
        nodes=set(prev.nodes),
        contents={n: dict(c) for n, c in prev.contents.items()},
        edgesets={n: dict(o) for n, o in prev.edgesets.items()},
    )
    for n in sorted(nxt.nodes):
        c = nxt.contents.setdefault(n, {})
        for k in sorted(c):
            r = rng.random()
            if r < 0.15:
                del c[k]
            elif r < 0.35:
                c[k] = TimedValue(c[k].value, c[k].ts - rng.randint(1, 3))
            elif r < 0.55:
                c[k] = TimedValue(c[k].value, c[k].ts + rng.randint(1, 3))
        if rng.random() < 0.5:
            c[rng.randrange(nxt.keyspace_size)] = TimedValue(5, -rng.randint(1, 4))
        if rng.random() < 0.4:
            outside = rng.choice([-1, nxt.keyspace_size, nxt.keyspace_size + 3])
            prev.contents.setdefault(n, {})[outside] = TimedValue(1, rng.randint(1, 9))
            if rng.random() < 0.5:
                c[outside] = TimedValue(2, -1)
    if rng.random() < 0.3 and len(nxt.nodes) > 1:
        nxt.nodes.discard(max(nxt.nodes))
    if rng.random() < 0.3:
        nxt.keyspace_size += 2
    nxt.succ_reach = derive_succ_reach(nxt)
    return nxt


def build_case(i: int) -> dict:
    """Snapshot, history and clock of case i, the checker outputs taken on
    them, and for inv2 pairs the monotonicity result both ways."""
    rng = random.Random(7_000 + i)
    doctoring = DOCTORINGS[i % len(DOCTORINGS)]
    derived = doctoring != "succ_reach" or rng.random() < 0.6
    g = random_dag(rng, max_nodes=10, max_keys=16, derived_reach=False)
    if rng.random() < 0.5:
        _prune_to_insets(g)
    entries = _retime(g, rng, sound=rng.random() < 0.7)
    if derived:
        g.succ_reach = derive_succ_reach(g)
    clock = len(entries) + 1
    if doctoring == "succ_reach":
        _doctor_succ_reach(g, rng)
    elif doctoring == "future":
        clock = rng.randint(1, clock)
        n = rng.choice(sorted(g.nodes))
        g.contents.setdefault(n, {})[rng.randrange(g.keyspace_size)] = TimedValue(
            TOMBSTONE, clock + rng.randint(0, 3)
        )
    elif doctoring == "missing":
        drop = set(rng.sample(range(len(entries)), min(len(entries), rng.randint(1, 3))))
        entries = [e for j, e in enumerate(entries) if j not in drop]
    elif doctoring == "moved_below":
        _move_below(g, rng)
        if rng.random() < 0.5:
            g.succ_reach = derive_succ_reach(g)
    elif doctoring == "overlap":
        _overlap(g, rng)
    elif doctoring == "cycle":
        _cycle(g, rng)
    out: dict = {"case": i, "doctoring": doctoring}
    if doctoring == "inv2_pair":
        nxt = _inv2_next(g, rng)
        out["inv2"] = [
            check_inv2_monotone(g, nxt).to_json(),
            check_inv2_monotone(nxt, g).to_json(),
        ]
        g = nxt
    out["report"] = check_invariants(g, _history(g.keyspace_size, entries), clock).to_json()
    if not structural_issues(g):
        out["residuals"] = _doctored_residuals(g, rng)
    return out


def digest(out: dict) -> str:
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def _multi_witness_failure(out: dict) -> bool:
    results = out["report"]["checks"] + out.get("inv2", [])
    return any(not r["passed"] and len(r["witnesses"]) > 1 for r in results)


def test_checker_outputs_match_the_pinned_digests():
    expected = json.loads(DATA.read_text())["sha256"]
    assert len(expected) == CASES
    outs = [build_case(i) for i in range(CASES)]
    mismatched = [o["case"] for o, d in zip(outs, expected) if digest(o) != d]
    assert not mismatched, f"cases whose checker output changed: {mismatched}"
    # The cases exercise witness order and the witness cap, not just verdicts.
    assert sum(map(_multi_witness_failure, outs)) >= CASES // 3
    assert any(
        len(r["witnesses"]) == 20 for o in outs for r in o["report"]["checks"]
    )
    for d in DOCTORINGS:
        doctored = [o for o in outs if o["doctoring"] == d]
        assert any(not o["report"]["ok"] for o in doctored) or d == "clean"


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(
        json.dumps({"sha256": [digest(build_case(i)) for i in range(CASES)]}, indent=0)
        + "\n"
    )
