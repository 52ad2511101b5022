import pytest

from multicopy.fixtures import REPLAYS, replay_fixture
from multicopy.nodes import fresh_node_id


@pytest.mark.parametrize("name", sorted(REPLAYS))
def test_replay_passes(name):
    report = replay_fixture(name)
    assert report.ok, report.format_text()
    assert report.checks, "a replay must actually check something"


def test_replays_pass_whatever_ids_were_drawn_before():
    # Scenario nodes and the sinks a scenario grows draw from one allocator,
    # so no id drawn before can make a grown sink collide with a scenario
    # node. Replaying after every draw walks the next 400 ids.
    start = fresh_node_id()
    while fresh_node_id() < start + 400:
        for name in sorted(REPLAYS):
            report = replay_fixture(name)
            assert report.ok, report.format_text()


def test_report_serialization():
    report = replay_fixture("list-search")
    obj = report.to_json()
    assert obj["fixture"] == "list-search" and obj["ok"] is True
    assert all(set(c) >= {"label", "ok"} for c in obj["checks"])
    text = report.format_text()
    assert text.endswith("fixture list-search: OK")
    assert "[PASS]" in text and "[FAIL]" not in text


def test_unsound_merges_documents_each_violation():
    labels = [c["label"] for c in replay_fixture("unsound-merges").checks]
    assert any("reach escapes the inset" in l for l in labels)
    assert any("carries a newer copy below" in l for l in labels)
    assert any("went back in time" in l for l in labels)
    assert any("lost update" in l for l in labels)


def test_cascade_split_keeps_root_reach_stable_throughout():
    checks = replay_fixture("cascade-split").checks
    stable = [c for c in checks if "root reach unchanged" in c["label"]]
    assert len(stable) == 4  # every intermediate snapshot is checked
    assert all(c["ok"] for c in stable)


def test_unknown_fixture_name():
    with pytest.raises(KeyError):
        replay_fixture("no-such-scenario")
