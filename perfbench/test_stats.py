"""Tests for the benchmark's percentile, self-time and span helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import random
import threading
import unittest
from fractions import Fraction

from stats import Span, covered_ns, percentile, totals_by_name
from tracing import Patches, Tracer


class PercentileTest(unittest.TestCase):
    def test_matches_exact_sorted_list_percentiles(self):
        rng = random.Random(7)
        for n in (1, 2, 10, 999, 1000, 1001, 20_000):
            sample = sorted(rng.randrange(1_000_000) for _ in range(n))
            for p in (0.1, 1, 10, 25, 50, 75, 90, 99, 99.9, 100):
                v = percentile(sample, p)
                need = Fraction(str(p)) * n / 100
                # v is the smallest sample with at least p% at or below it.
                self.assertGreaterEqual(sum(x <= v for x in sample), need, (n, p))
                self.assertLess(sum(x < v for x in sample), need, (n, p))

    def test_ranks_on_round_sizes(self):
        values = list(range(1, 1001))
        self.assertEqual(percentile(values, 50), 500)
        self.assertEqual(percentile(values, 99), 990)
        self.assertEqual(percentile(values, 99.9), 999)
        self.assertEqual(percentile(values, 100), 1000)
        self.assertEqual(percentile([4, 8], 50), 4)

    def test_rejects_empty_sample_and_bad_p(self):
        with self.assertRaises(ValueError):
            percentile([], 50)
        for p in (0, -1, 100.5):
            with self.assertRaises(ValueError):
                percentile([1, 2, 3], p)


class SelfTimeTest(unittest.TestCase):
    def test_covered_is_union_clipped_to_the_span(self):
        self.assertEqual(covered_ns(0, 100, []), 0)
        self.assertEqual(covered_ns(0, 100, [(10, 30), (20, 50)]), 40)
        self.assertEqual(covered_ns(0, 100, [(10, 20), (30, 40)]), 20)
        self.assertEqual(covered_ns(0, 100, [(-5, 10), (90, 120)]), 20)
        self.assertEqual(covered_ns(0, 100, [(10, 90), (20, 30)]), 80)
        self.assertEqual(covered_ns(0, 100, [(100, 120), (-10, 0)]), 0)

    def test_nested_spans_on_two_threads(self):
        main, worker = 1, 2
        spans = [
            Span(1, "run", 0, 100, main, None),
            # Two children of run that overlap: one per thread.
            Span(2, "op", 10, 30, main, 1),
            Span(3, "op", 20, 50, worker, 1, items=7),
            Span(4, "leaf", 12, 15, main, 2),
            # A worker span that outlives its parent only covers the overlap.
            Span(5, "flush", 90, 120, worker, 1),
        ]
        t = totals_by_name(spans)
        self.assertEqual(t["run"].self_ns, 100 - 40 - 10)
        self.assertEqual(t["run"].busy_ns, 100)
        self.assertEqual(t["op"].calls, 2)
        self.assertEqual(t["op"].busy_ns, 20 + 30)
        self.assertEqual(t["op"].self_ns, (20 - 3) + 30)
        self.assertEqual(t["op"].items, 7)
        self.assertEqual(t["leaf"].self_ns, 3)
        self.assertEqual(t["flush"].self_ns, 30)


class TracerTest(unittest.TestCase):
    def test_parents_follow_threads_and_the_anchor(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", lambda: inner())

        def body():
            outer()
            t = threading.Thread(target=outer)
            t.start()
            t.join(timeout=10)
            self.assertFalse(t.is_alive())

        tracer.wrap("run", body, anchor=True)()
        outer()
        by_id = {s.sid: s for s in tracer.spans}
        run = next(s for s in tracer.spans if s.name == "run")
        outers = sorted((s for s in tracer.spans if s.name == "outer"), key=lambda s: s.start_ns)
        self.assertEqual([o.parent for o in outers], [run.sid, run.sid, None])
        self.assertNotEqual(outers[0].thread, outers[1].thread)
        for s in tracer.spans:
            if s.name == "inner":
                self.assertEqual(by_id[s.parent].name, "outer")
                self.assertEqual(by_id[s.parent].thread, s.thread)

    def test_patches_restore_originals(self):
        class Box:
            def get(self):
                return 1

        original = vars(Box)["get"]
        p = Patches()
        p.set(Box, "get", lambda self: 2)
        self.assertEqual(Box().get(), 2)
        p.restore()
        self.assertIs(vars(Box)["get"], original)


if __name__ == "__main__":
    unittest.main()
