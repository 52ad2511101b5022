"""Order statistics and span arithmetic used by the benchmark.

Kept free of any multicopy import so the helpers can be tested alone.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, NamedTuple, Optional, Sequence


def percentile(ascending: Sequence[float], p: float) -> float:
    """Nearest-rank p-th percentile of an ascending sequence, 0 < p <= 100.

    The result is the smallest sample with at least p% of the samples at or
    below it. p is taken to a thousandth of a percent and the rank is
    computed in integers, so 99.9 of 1000 samples is rank 999 exactly.
    """
    n = len(ascending)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    milli = round(p * 1000)
    if not 0 < milli <= 100_000:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    rank = -(-milli * n // 100_000)  # ceil(p * n / 100)
    return ascending[rank - 1]


class Span(NamedTuple):
    """One timed call. parent is the id of the span that caused it, or None."""

    sid: int
    name: str
    start_ns: int
    end_ns: int
    thread: int
    parent: Optional[int]
    # Work count attached by the wrapper (records moved, events checked).
    items: int = 0


def covered_ns(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class LayerTotals(NamedTuple):
    calls: int
    busy_ns: int
    self_ns: int
    items: int


def totals_by_name(spans: Sequence[Span]) -> dict[str, LayerTotals]:
    """Calls, busy time, self time and item count summed per span name.

    Busy time is the sum of span durations. Self time is a span's duration
    minus the part of it that its child spans cover; children may run on
    other threads and overlap each other, so their union is subtracted.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    acc: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    for s in spans:
        dur = s.end_ns - s.start_ns
        kids = children.get(s.sid)
        own = dur - covered_ns(s.start_ns, s.end_ns, kids) if kids else dur
        a = acc[s.name]
        a[0] += 1
        a[1] += dur
        a[2] += own
        a[3] += s.items
    return {name: LayerTotals(*a) for name, a in acc.items()}
