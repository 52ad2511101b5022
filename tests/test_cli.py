import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import multicopy
from multicopy import cli
from multicopy.cli import main
from support import UNRELIEVED_ROOT

STRESS_SMALL = [
    "stress",
    "--keyspace-size", "16",
    "--threads", "2",
    "--ops-per-thread", "120",
    "--root-capacity", "8",
    "--maintenance", "periodic:1",
    "--checkpoint-every", "60",
    "--seed", "3",
]


def test_replay_subcommand_text(capsys):
    assert main(["replay", "list-search"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("fixture list-search: OK")


def test_python_dash_m_runs_the_command_line():
    src = str(Path(multicopy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, "-m", "multicopy", "replay", "list-search"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("fixture list-search: OK")


@pytest.mark.parametrize(
    "name", ["list-compaction", "unsound-merges", "cascade-split"]
)
def test_replay_subcommand_json(capsys, name):
    assert main(["replay", name, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["fixture"] == name and obj["ok"] is True


def test_replay_rejects_unknown_fixture():
    with pytest.raises(SystemExit):
        main(["replay", "no-such-scenario"])


def test_stress_then_check_round_trip(tmp_path, capsys):
    trace = str(tmp_path / "t.jsonl")
    snap = str(tmp_path / "s.json")
    rc = main(STRESS_SMALL + ["--trace-out", trace, "--snapshot-out", snap])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "result: OK" in out

    assert main(["check", snap, trace]) == 0
    assert "result: OK" in capsys.readouterr().out

    assert main(["check", snap, trace, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ok"] is True


def test_check_flags_violations(tmp_path, capsys):
    trace = str(tmp_path / "t.jsonl")
    snap = str(tmp_path / "s.json")
    assert main(STRESS_SMALL + ["--trace-out", trace, "--snapshot-out", snap]) == 0
    capsys.readouterr()
    obj = json.loads(Path(snap).read_text())
    node, contents = next(iter(obj["contents"].items()))
    contents[next(iter(contents))][1] = 999_999
    Path(snap).write_text(json.dumps(obj))
    assert main(["check", snap, trace]) == 1
    out = capsys.readouterr().out
    assert "result: VIOLATIONS FOUND" in out
    assert "[FAIL]" in out


def test_check_names_a_linearization_failure(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    snap = str(tmp_path / "s.json")
    assert main(STRESS_SMALL + ["--trace-out", str(trace), "--snapshot-out", snap]) == 0
    capsys.readouterr()
    lines = trace.read_text().splitlines()
    events = [json.loads(line) for line in lines[1:]]
    upserts = [e for e in events if e["op"] == "upsert"]
    # A search, after every other op, that returns an overwritten copy.
    old = next(
        a for a in upserts for b in upserts
        if a["key"] == b["key"] and a["ts"] < b["ts"] and a["value"] != b["value"]
    )
    last = max(e["resp"] for e in events)
    stale = {"op": "search", "thread": 0, "key": old["key"], "value": old["value"],
             "t0": old["ts"], "tp": old["ts"], "snap": len(upserts),
             "inv": last + 1, "resp": last + 2}
    trace.write_text("\n".join(lines + [json.dumps(stale)]) + "\n")
    assert main(["check", snap, str(trace)]) == 1
    out = capsys.readouterr().out.splitlines()
    failed = [line for line in out if line.startswith("[FAIL] linearization: ")]
    assert len(failed) == 1 and "value_mismatch" in failed[0]
    assert out[-1] == "result: VIOLATIONS FOUND"


def test_check_missing_file_fails_cleanly(tmp_path, capsys):
    assert main(["check", str(tmp_path / "no.json"), str(tmp_path / "no.jsonl")]) == 1
    assert "error" in capsys.readouterr().err
    trace = tmp_path / "t.jsonl"
    trace.write_text(json.dumps({"keyspace_size": 4}) + "\n")
    assert main(["check", str(tmp_path), str(trace)]) == 1  # a directory
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--trace-out", "--snapshot-out"])
def test_stress_unwritable_output_fails_before_any_op(tmp_path, capsys, monkeypatch, flag):
    runs = []
    monkeypatch.setattr(cli, "run_stress", lambda *a, **k: runs.append(a))
    assert main(STRESS_SMALL + [flag, str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert runs == []


@pytest.mark.parametrize(
    "snapshot, reason",
    [
        ('{"nodes": [0]}', "missing field 'keyspace_size'"),
        ('{"keyspace_size": 4, "nodes": [0]}', "missing field 'root'"),
        ("[0]", "expected a JSON object"),
        ("garbage", "not JSON"),
        ('{"keyspace_size": "abc", "root": 0, "nodes": [0]}', "keyspace_size must be an int"),
        ('{"keyspace_size": 0, "root": 0, "nodes": [0]}', "keyspace_size must be positive"),
        ('{"keyspace_size": -1, "root": 0, "nodes": [0]}', "keyspace_size must be positive"),
        ('{"keyspace_size": 4, "root": [0], "nodes": [0]}', "node id must be an int"),
        ('{"keyspace_size": 4, "root": 0, "nodes": ["0"]}', "node id must be an int"),
        (
            '{"keyspace_size": 4, "root": 0, "nodes": [0], "contents": {"0": {"1": [5, "1"]}}}',
            "ts must be an int",
        ),
        (
            '{"keyspace_size": 4, "root": 0, "nodes": [0, 1], "edgesets": [[0, 1, ["0", "1"]]]}',
            "key must be an int, got '0'",
        ),
        (
            '{"keyspace_size": 4, "root": 0, "nodes": [0, 1], "edgesets": [[0, 1, [0, 999]]]}',
            "key 999 outside keyspace [0, 4)",
        ),
        (
            '{"keyspace_size": 4, "root": 0, "nodes": [0, 1], "edgesets": [[0, 1, [-5, 0]]]}',
            "key -5 outside keyspace [0, 4)",
        ),
        (
            '{"keyspace_size": 4, "root": 0, "nodes": [0], "contents": {"0": {"999": [5, 1]}}}',
            "key 999 outside keyspace [0, 4)",
        ),
        (
            '{"keyspace_size": 4, "root": 0, "nodes": [0, 1], "edgesets": [[0, 1, [0]]],'
            ' "succ_reach": {"0": {"999": [5, 1]}}}',
            "key 999 outside keyspace [0, 4)",
        ),
        (
            '{"keyspace_size": 4, "root": 0, "nodes": [0],'
            ' "contents": {"999": {"3": [77, 100000]}}}',
            "contents of node 999, which nodes does not list",
        ),
        (
            '{"keyspace_size": 4, "root": 0, "nodes": [0], "succ_reach": {"7": {"1": [5, 1]}}}',
            "succ_reach of node 7, which nodes does not list",
        ),
        (
            '{"keyspace_size": 4, "root": 0, "nodes": [0, 1],'
            ' "edgesets": [[0, 1, [0, 1]], [0, 1, [2, 3]]]}',
            "edge 0->1 is listed twice",
        ),
        # int() would read these as node 0, key 10 and key 1.
        (
            '{"keyspace_size": 16, "root": 0, "nodes": [0], "contents": {" +0": {"1_0": [5, 1]}}}',
            "node id ' +0' is not written as a decimal int",
        ),
        (
            '{"keyspace_size": 16, "root": 0, "nodes": [0], "contents": {"0": {"1_0": [5, 1]}}}',
            "key '1_0' is not written as a decimal int",
        ),
        (
            '{"keyspace_size": 4, "root": 0, "nodes": [0, 1], "edgesets": [[0, 1, [0, 1]]],'
            ' "succ_reach": {"0": {"01": [5, 1]}}}',
            "key '01' is not written as a decimal int",
        ),
    ],
)
def test_check_malformed_snapshot_fails_cleanly(tmp_path, capsys, snapshot, reason):
    snap = tmp_path / "s.json"
    trace = tmp_path / "t.jsonl"
    snap.write_text(snapshot)
    trace.write_text(json.dumps({"keyspace_size": 4}) + "\n")
    assert main(["check", str(snap), str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed snapshot: " + reason)
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"op": "search"}', "missing field 'thread'"),
        ("[1]", "expected a JSON object"),
        ('{"op": "compact"}', "unknown op 'compact'"),
        ("garbage", "not JSON"),
        (
            '{"op": "upsert", "thread": 0, "key": 1, "value": 5, "ts": "1", "inv": 0, "resp": 1}',
            "ts must be an int, got '1'",
        ),
        (
            '{"op": "upsert", "thread": 0, "key": 99, "value": 5, "ts": 1, "inv": 0, "resp": 1}',
            "key 99 outside keyspace [0, 16)",
        ),
        ('{"keyspace_size": -1}', "keyspace_size must be positive"),
        ('{"keyspace_size": "abc"}', "keyspace_size must be an int"),
    ],
)
def test_check_malformed_trace_fails_cleanly(tmp_path, capsys, line, reason):
    trace = tmp_path / "t.jsonl"
    snap = str(tmp_path / "s.json")
    assert main(STRESS_SMALL + ["--trace-out", str(trace), "--snapshot-out", snap]) == 0
    capsys.readouterr()
    lines = trace.read_text().splitlines()
    # A header replaces the header line; anything else the first event.
    lineno = 1 if "keyspace_size" in line else 2
    lines[lineno - 1] = line
    trace.write_text("\n".join(lines) + "\n")
    assert main(["check", snap, str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed trace: " + reason)
    assert err.rstrip().endswith(f"at line {lineno}")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "text, reason",
    [
        (
            '{"op": "search", "thread": 0, "key": -1, "value": null,'
            ' "t0": 0, "tp": 0, "snap": 0, "inv": 0, "resp": 1}\n',
            "the first line is not a keyspace header at line 1",
        ),
        (
            '{"op": "upsert", "thread": 0, "key": -1, "value": 5, "ts": 1, "inv": 0, "resp": 1}\n',
            "the first line is not a keyspace header at line 1",
        ),
        ("\n", "no keyspace header"),
    ],
)
def test_check_rejects_a_trace_without_a_header(tmp_path, capsys, text, reason):
    # Without a header nothing bounds the keys, not even from below.
    snap = tmp_path / "s.json"
    trace = tmp_path / "t.jsonl"
    snap.write_text('{"keyspace_size": 4, "root": 0, "nodes": [0]}')
    trace.write_text(text)
    assert main(["check", str(snap), str(trace)]) == 1
    captured = capsys.readouterr()
    assert "result: OK" not in captured.out
    assert captured.err == f"error: malformed trace: {reason}\n"


# Key 1 holds the copy (5@1) that _upsert(1, 1, ...) writes.
SNAPSHOT_OF_ONE_COPY = (
    '{"keyspace_size": 4, "root": 0, "nodes": [0], "contents": {"0": {"1": [5, 1]}}}'
)


def _upsert(key, ts, inv, resp):
    return json.dumps(
        {"op": "upsert", "thread": 0, "key": key, "value": 5, "ts": ts, "inv": inv, "resp": resp}
    )


def _search(inv, resp):
    return json.dumps(
        {"op": "search", "thread": 1, "key": 1, "value": 5,
         "t0": 1, "tp": 1, "snap": 1, "inv": inv, "resp": resp}
    )


@pytest.mark.parametrize(
    "events, reason",
    [
        ([_upsert(1, 1, 5, 1), _search(5, 6)], "resp 1 is not after inv 5 at line 2"),
        ([_upsert(1, 1, 3, 3), _search(4, 5)], "resp 3 is not after inv 3 at line 2"),
        ([_upsert(1, 1, 0, 1), _search(1, 2)], "sequence number 1 is used twice at line 3"),
        ([_upsert(1, 1, 0, 2), _search(1, 2)], "sequence number 2 is used twice at line 3"),
    ],
)
def test_check_rejects_a_trace_with_misordered_or_reused_sequence_numbers(
    tmp_path, capsys, events, reason
):
    snap = tmp_path / "s.json"
    trace = tmp_path / "t.jsonl"
    snap.write_text(SNAPSHOT_OF_ONE_COPY)
    trace.write_text("\n".join([json.dumps({"keyspace_size": 4})] + events) + "\n")
    assert main(["check", str(snap), str(trace)]) == 1
    captured = capsys.readouterr()
    assert "result: OK" not in captured.out
    assert captured.err == f"error: malformed trace: {reason}\n"


def test_check_rejects_a_trace_wider_than_its_snapshot(tmp_path, capsys):
    # The write to key 10 lies outside the snapshot's keyspace, where inv1
    # does not look, so only the keyspace comparison can catch its loss.
    snap = tmp_path / "s.json"
    trace = tmp_path / "t.jsonl"
    snap.write_text(SNAPSHOT_OF_ONE_COPY)
    trace.write_text(
        "\n".join([json.dumps({"keyspace_size": 16}), _upsert(1, 1, 0, 1), _upsert(10, 2, 2, 3)])
        + "\n"
    )
    assert main(["check", str(snap), str(trace)]) == 1
    out = capsys.readouterr().out
    assert "error: trace keyspace 16 is wider than the snapshot keyspace 4" in out
    assert out.rstrip().endswith("result: VIOLATIONS FOUND")
    assert main(["check", str(snap), str(trace), "--json"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["ok"] is False
    assert obj["error"] == "trace keyspace 16 is wider than the snapshot keyspace 4"


def test_check_rejects_a_trace_narrower_than_its_snapshot(tmp_path, capsys):
    snap = tmp_path / "s.json"
    trace = tmp_path / "t.jsonl"
    snap.write_text('{"keyspace_size": 8, "root": 0, "nodes": [0]}')
    trace.write_text(json.dumps({"keyspace_size": 4}) + "\n")
    assert main(["check", str(snap), str(trace), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    obj = json.loads(captured.out)
    assert obj["ok"] is False
    assert obj["error"] == "trace keyspace 4 is narrower than the snapshot keyspace 8"


def test_stress_json_output(capsys):
    rc = main(STRESS_SMALL + ["--json"])
    obj = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert obj["ok"] is True
    assert obj["total_ops"] == 240
    assert obj["config"]["seed"] == 3
    assert obj["root_full_waits"] >= 0 and obj["root_full_wait_s"] >= 0


@pytest.mark.parametrize("maintenance", ["on-fail", "periodic:1"])
@pytest.mark.parametrize("broken", UNRELIEVED_ROOT)
def test_stress_with_a_root_nothing_relieves_fails_fast(capfd, monkeypatch, maintenance, broken):
    monkeypatch.setattr(*UNRELIEVED_ROOT[broken])
    started = time.monotonic()
    rc = main(["stress", "--maintenance", maintenance])  # root 8 under 64 keys
    assert time.monotonic() - started < 1
    assert rc == 1
    err = capfd.readouterr().err
    # One line for the run, not a traceback per failed worker thread.
    assert "Exception in thread" not in err and "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert re.fullmatch(r"error: root \d+ full: two hook rounds moved no record", errors[0])


def test_bench_subcommand(capsys):
    rc = main(
        ["bench", "--threads", "2", "--ops-per-thread", "200", "--json"]
    )
    obj = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert obj["total_ops"] == 400
    assert obj["throughput_ops_s"] > 0
    assert main(["bench", "--threads", "2", "--ops-per-thread", "200"]) == 0
    assert re.fullmatch(
        r"400 ops in \d+\.\d\ds: \d+ ops/s \(\d+ nodes\)\n", capsys.readouterr().out
    )


def test_bad_mix_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["stress", "--mix", "70/25"])


def test_bad_maintenance_returns_failure(capsys):
    for spec in ("sometimes", "periodic:abc", "periodic:inf", "periodic:nan", "periodic:-1"):
        rc = main(["stress", "--maintenance", spec, "--ops-per-thread", "1"])
        assert rc == 1, spec
        err = capsys.readouterr().err
        assert "maintenance" in err and "Traceback" not in err, (spec, err)
    for spec in ("off", "periodic"):
        assert main(["stress", "--maintenance", spec, "--ops-per-thread", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: maintenance must be on-fail or periodic:<ms>, got {spec!r}\n"
        )
