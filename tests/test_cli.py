import json
import time
from pathlib import Path

import pytest

from multicopy.cli import SEED_ENV, main

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


def test_check_missing_file_fails_cleanly(tmp_path, capsys):
    assert main(["check", str(tmp_path / "no.json"), str(tmp_path / "no.jsonl")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "snapshot, reason",
    [
        ('{"nodes": [0]}', "missing field 'keyspace_size'"),
        ('{"keyspace_size": 4, "nodes": [0]}', "missing field 'root'"),
        ("[0]", "expected a JSON object"),
        ("garbage", "not JSON"),
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


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"op": "search"}', "missing field 'thread'"),
        ("[1]", "expected a JSON object"),
        ('{"op": "compact"}', "unknown op 'compact'"),
        ("garbage", "not JSON"),
    ],
)
def test_check_malformed_trace_fails_cleanly(tmp_path, capsys, line, reason):
    trace = tmp_path / "t.jsonl"
    snap = str(tmp_path / "s.json")
    assert main(STRESS_SMALL + ["--trace-out", str(trace), "--snapshot-out", snap]) == 0
    capsys.readouterr()
    lines = trace.read_text().splitlines()
    lines[1] = line
    trace.write_text("\n".join(lines) + "\n")
    assert main(["check", snap, str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed trace: " + reason)
    assert err.rstrip().endswith("at line 2")


def test_stress_json_output(capsys):
    rc = main(STRESS_SMALL + ["--json"])
    obj = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert obj["ok"] is True
    assert obj["total_ops"] == 240
    assert obj["config"]["seed"] == 3
    assert obj["root_full_waits"] >= 0 and obj["root_full_wait_s"] >= 0


def test_stress_with_maintenance_off_and_a_full_root_fails_fast(capfd):
    started = time.monotonic()
    rc = main(["stress", "--maintenance", "off"])  # root 8 under 64 keys
    assert time.monotonic() - started < 1
    assert rc == 1
    err = capfd.readouterr().err
    # One line for the run, not a traceback per failed worker thread.
    assert "Exception in thread" not in err and "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: root full with maintenance off: 8 root slots")
    assert "64 keys" in errors[0]


def test_bench_subcommand(capsys):
    rc = main(
        ["bench", "--threads", "2", "--ops-per-thread", "200", "--json"]
    )
    obj = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert obj["total_ops"] == 400
    assert obj["throughput_ops_s"] > 0


def test_bad_mix_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["stress", "--mix", "70/25"])


def test_bad_maintenance_returns_failure(capsys):
    rc = main(["stress", "--maintenance", "sometimes", "--ops-per-thread", "1"])
    assert rc == 1
    assert "maintenance" in capsys.readouterr().err


def test_seed_env_var_is_the_default(monkeypatch, capsys):
    monkeypatch.setenv(SEED_ENV, "99")
    rc = main(
        ["bench", "--threads", "1", "--ops-per-thread", "10", "--json"]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 99
    monkeypatch.setenv(SEED_ENV, "not-a-number")
    with pytest.raises(SystemExit):
        main(["bench", "--threads", "1", "--ops-per-thread", "1"])
