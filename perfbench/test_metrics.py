"""Checks of the benchmark's own arithmetic (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import tempfile
import unittest

import metrics as m


def span(span_id, parent, name, start, end):
    return {"id": span_id, "parent": parent, "name": name, "start": start,
            "end": end}


class PercentileRuleTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(m.percentile(values, 0.5), 50)
        self.assertEqual(m.percentile(values, 0.9), 90)
        self.assertEqual(m.percentile(values, 0.99), 99)
        self.assertEqual(m.percentile([7], 0.99), 7)

    def test_order_does_not_matter(self):
        self.assertEqual(m.percentile([5, 1, 4, 2, 3], 0.5), 3)

    def test_samples_beyond(self):
        self.assertEqual(m.samples_beyond(100, 0.9), 10)
        self.assertEqual(m.samples_beyond(99, 0.9), 9)
        self.assertEqual(m.samples_beyond(1000, 0.99), 10)
        self.assertEqual(m.samples_beyond(20, 0.5), 10)
        self.assertEqual(m.samples_beyond(0, 0.5), 0)

    def test_ten_beyond_rule(self):
        self.assertTrue(m.supported(100, 0.9))
        self.assertFalse(m.supported(99, 0.9))
        self.assertTrue(m.supported(1000, 0.99))
        self.assertFalse(m.supported(999, 0.99))
        self.assertTrue(m.supported(20, 0.5))
        self.assertFalse(m.supported(19, 0.5))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            m.percentile([], 0.5)


class SelfTimeTest(unittest.TestCase):
    def test_sequential_children(self):
        spans = [span(1, 0, "bench.config", 0, 100),
                 span(2, 1, "workload.run_scenario", 0, 60),
                 span(3, 1, "diads.diagnose", 60, 90),
                 span(4, 3, "module:DA", 65, 85)]
        selfs = m.self_times(spans)
        self.assertEqual(selfs[1], 10)   # 90..100 has no child.
        self.assertEqual(selfs[2], 60)
        self.assertEqual(selfs[3], 10)   # 30 minus DA's 20.
        self.assertEqual(selfs[4], 20)
        # A tree's self times add up to its root's duration.
        self.assertEqual(sum(selfs.values()), 100)

    def test_overlapping_children_count_once(self):
        # Parallel fetches under one gather: [10,50) and [30,70) cover 60,
        # not 80; [80,120) is clipped to the parent's end at 100.
        spans = [span(1, 0, "gather", 0, 100),
                 span(2, 1, "fetch:C1", 10, 50),
                 span(3, 1, "fetch:C2", 30, 70),
                 span(4, 1, "fetch:C3", 80, 120)]
        self.assertEqual(m.self_times(spans)[1], 100 - 60 - 20)

    def test_nested_overlap(self):
        spans = [span(1, 0, "diagnosis", 0, 10),
                 span(2, 1, "a", 2, 5), span(3, 1, "b", 3, 4),
                 span(4, 1, "c", 4, 6)]
        self.assertEqual(m.self_times(spans)[1], 10 - 4)

    def test_union_length(self):
        self.assertEqual(m.union_length([], 0, 10), 0)
        self.assertEqual(m.union_length([(0, 5), (5, 10)], 0, 10), 10)
        self.assertEqual(m.union_length([(-5, 3), (8, 20)], 0, 10), 5)
        self.assertEqual(m.union_length([(4, 2)], 0, 10), 0)

    def test_coverage(self):
        spans = [span(1, 0, "bench.pass", 0, 100),
                 span(2, 1, "monitor.append", 0, 95),
                 span(3, 0, "bench.pass", 200, 300),
                 span(4, 3, "fleet.recover", 200, 300),
                 span(5, 0, "diagnosis", 0, 1000)]  # Not a unit root.
        self.assertAlmostEqual(m.coverage(spans, {"bench.pass"}), 195 / 200)

    def test_coverage_counts_parallel_children_once(self):
        spans = [span(1, 0, "diagnosis", 0, 10),
                 span(2, 1, "gather", 0, 8),
                 span(3, 2, "fetch:C1", 0, 8), span(4, 2, "fetch:C2", 0, 8)]
        self.assertAlmostEqual(m.coverage(spans, {"diagnosis"}), 0.8)
        # Sequential trees: the descendants' self times over the wall.
        selfs = m.self_times(spans[:3])
        self.assertAlmostEqual(m.coverage(spans[:3], {"diagnosis"}),
                               (selfs[2] + selfs[3]) / 10)

    def test_table_groups_by_operation(self):
        spans = [span(1, 0, "diagnosis", 0, 10),
                 span(2, 1, "module:DA", 0, 4),
                 span(3, 1, "fetch:C7", 4, 6),
                 span(4, 1, "fetch:C9", 6, 8)]
        table = m.self_time_table(spans)
        self.assertAlmostEqual(table["diads.da"]["self_ms"], 0.004)
        self.assertEqual(table["monitor.fetch"]["spans"], 2)
        self.assertAlmostEqual(table["engine.request"]["self_ms"], 0.002)
        self.assertEqual(m.layer_of("queue_wait"), "engine")

    def test_loads_exported_trace(self):
        trace = {"displayTimeUnit": "ms", "traceEvents": [
            {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
             "args": {"name": "worker-1"}},
            {"ph": "X", "pid": 1, "tid": 1, "name": "gather", "cat": "collect",
             "ts": 10.5, "dur": 4.25,
             "args": {"span_id": "7", "parent_id": "3"}}]}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            with open(path, "w") as f:
                json.dump(trace, f)
            spans = m.load_chrome_trace(path)
        self.assertEqual(spans, [span(7, 3, "gather", 10.5, 14.75)])


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(m.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_constant_values_have_no_spread(self):
        self.assertEqual(m.quartile_spread([3.0] * 10), 0.0)

    def test_known_value(self):
        # quantiles([1..8], n=4) uses the exclusive method: 2.25 and 6.75.
        self.assertAlmostEqual(m.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8]),
                               (6.75 - 2.25) / 4.5)



class SegmentPairTest(unittest.TestCase):
    def test_pairs_each_traced_segment_with_the_one_before(self):
        values = [10, 12, 11, 15, 13, 20, 9]
        segments = [0, 0, 0, 1, 1, 3, 4]
        # Segment 1 (15, 13) pairs with segment 0 (10, 12, 11); segment 3
        # has no segment 2; segment 4 is untraced.
        self.assertEqual(m.segment_pairs(values, segments), [(14 / 11, 11)])

    def test_medians_interpolate(self):
        pairs = m.segment_pairs([1, 2, 3, 6], [0, 0, 1, 1])
        self.assertEqual(pairs, [(4.5 / 1.5, 1.5)])


class ReferenceSpeedTest(unittest.TestCase):
    def test_times_and_rates_move_opposite_ways(self):
        ref = 2 * m.REFERENCE_MS  # A host at half the reference speed.
        scaled = m.at_reference_speed({
            "config_ms": [10.0, 30.0], "config_ms@ref": [ref, ref / 2],
            "ingest_per_s": [100.0], "ingest_per_s@ref": [ref],
            "fleet.records_replayed": [7.0]})
        self.assertEqual(scaled, {"config_ms": [5.0, 30.0],
                                  "ingest_per_s": [200.0],
                                  "fleet.records_replayed": [7.0]})

    def test_reference_must_match_its_series(self):
        with self.assertRaises(ValueError):
            m.at_reference_speed({"x_ms": [1.0, 2.0], "x_ms@ref": [1.0]})
        with self.assertRaises(ValueError):
            m.at_reference_speed({"x_ms": [1.0], "x_ms@ref": [0.0]})


if __name__ == "__main__":
    unittest.main()
