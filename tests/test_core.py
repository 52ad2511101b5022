import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from support import UnprobedEdgeset

import multicopy
from multicopy.core import (
    INITIAL,
    TOMBSTONE,
    EdgesetDisjointnessError,
    MulticopyError,
    TimedValue,
    check_key,
    is_tombstone,
    route,
    routed_keys,
    val_projection,
)
from multicopy.nodes import NodeHandle


def test_tombstone_is_a_singleton_and_distinct_from_none():
    assert is_tombstone(TOMBSTONE)
    assert not is_tombstone(None)
    assert not is_tombstone(0)
    assert repr(TOMBSTONE) == "<tombstone>"


def test_initial_copy_is_tombstone_at_time_zero():
    assert INITIAL.ts == 0
    assert is_tombstone(INITIAL.value)


def test_timed_value_equality_and_repr():
    assert TimedValue(3, 7) == TimedValue(3, 7)
    assert TimedValue(3, 7) != TimedValue(3, 8)
    assert TimedValue(3, 7) != TimedValue(4, 7)
    assert repr(TimedValue(3, 7)) == "(3@7)"
    assert repr(TimedValue(TOMBSTONE, 0)) == "(<tombstone>@0)"
    assert (TimedValue(3, 7).value, TimedValue(3, 7).ts) == (3, 7)


def test_a_root_appended_copy_is_a_timed_value():
    n = NodeHandle(1, 4)
    assert n.add_contents(2, 9, 5)
    tv = n.in_contents(2)
    assert type(tv) is TimedValue
    assert tv == TimedValue(9, 5) and hash(tv) == hash(TimedValue(9, 5))
    assert repr(tv) == "(9@5)"


def test_timed_value_fields_cannot_be_assigned():
    tv = TimedValue(3, 7)
    for field in ("ts", "value", "other"):
        with pytest.raises(AttributeError):
            setattr(tv, field, 9)
    assert tv == TimedValue(3, 7)


@pytest.mark.parametrize("a, b", [((3, 7), (3, 8)), ((3, 7), (4, 7)), ((3, 7), (3, 7))])
def test_timed_values_have_no_order(a, b):
    x, y = TimedValue(*a), TimedValue(*b)
    for compare in (
        lambda: x < y,
        lambda: x <= y,
        lambda: x > y,
        lambda: x >= y,
        lambda: sorted([y, x]),
    ):
        with pytest.raises(TypeError):
            compare()


def test_equal_timed_values_hash_equal_and_hash_as_their_fields():
    for v, t in ((3, 7), (TOMBSTONE, 5), (TOMBSTONE, 0), (-2, 10**12)):
        tv = TimedValue(v, t)
        assert hash(tv) == hash(TimedValue(v, t))
        assert hash(tv) == hash((tv.value, tv.ts))
    assert len({TimedValue(3, 7), TimedValue(3, 7), TimedValue(3, 8)}) == 2


def test_timed_value_hashes_are_the_same_in_every_process():
    # A tombstone copy hashes through the tombstone, whose default hash
    # would follow its address; ints hash alike in every process.
    code = (
        "from multicopy.core import TOMBSTONE, TimedValue; "
        "print(hash(TimedValue(TOMBSTONE, 5)), hash(TOMBSTONE), hash(TimedValue(3, 7)))"
    )
    src = str(Path(multicopy.__file__).parents[1])
    outs = {
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("1", "2")
    }
    assert outs == {f"{hash(TimedValue(TOMBSTONE, 5))} {hash(TOMBSTONE)} {hash(TimedValue(3, 7))}\n"}


def test_timed_value_survives_a_pickle_round_trip():
    for tv in (TimedValue(3, 7), TimedValue(TOMBSTONE, 5), INITIAL):
        back = pickle.loads(pickle.dumps(tv))
        assert type(back) is TimedValue
        assert back == tv and repr(back) == repr(tv)


def test_val_projection_drops_timestamps():
    contents = {0: TimedValue(5, 3), 2: TimedValue(TOMBSTONE, 8)}
    assert val_projection(contents) == {0: 5, 2: TOMBSTONE}


@given(
    st.dictionaries(
        st.integers(0, 30),
        st.tuples(st.integers(0, 99), st.integers(1, 1000)),
        max_size=12,
    )
)
def test_val_projection_preserves_keys(raw):
    contents = {k: TimedValue(v, t) for k, (v, t) in raw.items()}
    proj = val_projection(contents)
    assert set(proj) == set(contents)
    for k in proj:
        assert proj[k] == contents[k].value


def test_check_key_bounds():
    check_key(0, 4)
    check_key(3, 4)
    with pytest.raises(MulticopyError):
        check_key(4, 4)
    with pytest.raises(MulticopyError):
        check_key(-1, 4)
    with pytest.raises(MulticopyError):
        check_key("0", 4)
    with pytest.raises(MulticopyError):
        check_key(True, 4)


def test_route_and_disjointness():
    edgesets = {10: frozenset({0, 1}), 11: frozenset({2})}
    assert route(edgesets, 0, 1) == 10
    assert route(edgesets, 2, 1) == 11
    assert route(edgesets, 3, 1) is None
    assert routed_keys(edgesets) == frozenset({0, 1, 2})
    assert routed_keys({}) == frozenset()
    edgesets[12] = frozenset({1})
    with pytest.raises(EdgesetDisjointnessError, match=r"key 1 claimed by edges 1->10 and 1->12"):
        route(edgesets, 1, 1)


def test_route_with_the_keyspace_size_probes_no_whole_keyspace_edge():
    whole = UnprobedEdgeset(range(4))
    assert route({10: whole}, 3, 1, keyspace_size=4) == 10
    # Any other edge is probed as before.
    partial = {10: frozenset({0, 1})}
    assert route(partial, 0, 1, keyspace_size=4) == 10
    assert route(partial, 2, 1, keyspace_size=4) is None
    with pytest.raises(AssertionError, match="edgeset was probed"):
        route({10: UnprobedEdgeset({0, 1})}, 0, 1, keyspace_size=4)
    # A second claimant is still caught, whether or not it was probed.
    with pytest.raises(EdgesetDisjointnessError, match=r"key 1 claimed by edges 1->10 and 1->12"):
        route({10: frozenset(range(4)), 12: frozenset({1})}, 1, 1, keyspace_size=4)
    with pytest.raises(EdgesetDisjointnessError, match=r"key 1 claimed by edges 1->12 and 1->10"):
        route({12: frozenset({1}), 10: frozenset(range(4))}, 1, 1, keyspace_size=4)
