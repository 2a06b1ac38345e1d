#!/usr/bin/env python3
"""Unit tests for tools/bench_gate.py (run as a ctest: bench_gate_selftest).

Covers the gauge-ratio gate (tolerance, min-baseline, metric-prefix)
and the core-aware scaling rules, by writing
registry-shaped JSON documents to a temp dir and driving
``bench_gate.main(argv)`` directly.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_gate  # noqa: E402


def artifact(meta=None, gauges=None, section="scaling"):
    doc = {section: {"counters": {},
                     "gauges": gauges or {},
                     "histograms": {}}}
    if meta is not None:
        doc["meta"] = meta
    return doc


class BenchGateTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, doc):
        path = os.path.join(self._dir.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def run_gate(self, extra, base_doc, cand_doc):
        base = self.write("base.json", base_doc)
        cand = self.write("cand.json", cand_doc)
        return bench_gate.main(["--baseline", base, "--candidate", cand]
                               + extra)

    # ---- gauge-ratio gate -------------------------------------------------

    def test_within_tolerance_passes(self):
        base = artifact(gauges={"micro.ns": 100.0})
        cand = artifact(gauges={"micro.ns": 700.0})
        self.assertEqual(self.run_gate(["--max-ratio", "8"], base, cand), 0)

    def test_regression_beyond_tolerance_fails(self):
        base = artifact(gauges={"micro.ns": 100.0})
        cand = artifact(gauges={"micro.ns": 900.0})
        self.assertEqual(self.run_gate(["--max-ratio", "8"], base, cand), 1)

    def test_min_baseline_skips_noise_gauges(self):
        base = artifact(gauges={"micro.ns": 0.4})
        cand = artifact(gauges={"micro.ns": 400.0})
        self.assertEqual(
            self.run_gate(["--max-ratio", "8", "--min-baseline", "1"],
                          base, cand), 0)

    def test_metric_prefix_filters_gauges(self):
        base = artifact(gauges={"micro.ns": 100.0, "other.ns": 1.0})
        cand = artifact(gauges={"micro.ns": 100.0, "other.ns": 99.0})
        self.assertEqual(
            self.run_gate(["--max-ratio", "8",
                           "--metric-prefix", "micro."], base, cand), 0)

    def test_no_shared_gauges_is_an_error(self):
        base = artifact(gauges={"a.ns": 1.0})
        cand = artifact(gauges={"b.ns": 1.0})
        self.assertEqual(self.run_gate(["--max-ratio", "8"], base, cand), 2)

    def test_candidate_only_gauges_are_not_gated(self):
        base = artifact(gauges={"micro.ns": 100.0})
        cand = artifact(gauges={"micro.ns": 100.0, "micro.new": 1e9})
        self.assertEqual(self.run_gate(["--max-ratio", "8"], base, cand), 0)

    # ---- core-aware scaling rules -----------------------------------------

    def scaling_doc(self, hw, seq=10.0, pool1=10.2, extra=None):
        gauges = {"scaling.seconds.threads.1": seq,
                  "scaling.seconds.pool1": pool1}
        gauges.update(extra or {})
        return artifact(meta={"bench": "bench_scaling", "seed": 1,
                              "threads": 8, "hw_concurrency": hw},
                        gauges=gauges)

    def run_scaling(self, cand_doc, extra=()):
        # Baseline: any doc sharing one gauge so the ratio gate is happy.
        return self.run_gate(["--max-ratio", "1000", "--min-baseline", "0",
                              "--scaling-check"] + list(extra),
                             cand_doc, cand_doc)

    def test_scaling_ok_on_small_box(self):
        doc = self.scaling_doc(
            hw=1, extra={"scaling.seconds.threads.4": 10.5})
        self.assertEqual(self.run_scaling(doc), 0)

    def test_missing_hw_concurrency_fails(self):
        doc = self.scaling_doc(hw=1)
        del doc["meta"]["hw_concurrency"]
        self.assertEqual(self.run_scaling(doc), 1)

    def test_missing_sequential_entry_fails(self):
        doc = self.scaling_doc(hw=1)
        del doc["scaling"]["gauges"]["scaling.seconds.threads.1"]
        self.assertEqual(self.run_scaling(doc), 1)

    def test_pool1_overhead_beyond_ratio_fails(self):
        doc = self.scaling_doc(hw=1, seq=10.0, pool1=11.0)
        self.assertEqual(self.run_scaling(doc), 1)

    def test_missing_pool1_audit_fails(self):
        doc = self.scaling_doc(hw=1)
        del doc["scaling"]["gauges"]["scaling.seconds.pool1"]
        self.assertEqual(self.run_scaling(doc), 1)

    def test_oversubscribed_threads_beyond_ratio_fails(self):
        doc = self.scaling_doc(
            hw=2, extra={"scaling.seconds.threads.4": 11.5})
        self.assertEqual(self.run_scaling(doc), 1)

    def test_threads_within_hw_not_held_to_overhead_ratio(self):
        # 4 threads on a 4-core box may be much faster than sequential --
        # and is judged by the speedup floor, not the overhead ratio.
        doc = self.scaling_doc(
            hw=4, extra={"scaling.seconds.threads.4": 3.0,
                         "scaling.speedup.threads.4": 10.0 / 3.0})
        self.assertEqual(self.run_scaling(doc), 0)

    def test_speedup_floor_enforced_on_big_box(self):
        doc = self.scaling_doc(
            hw=4, extra={"scaling.seconds.threads.4": 8.0,
                         "scaling.speedup.threads.4": 1.25})
        self.assertEqual(self.run_scaling(doc), 1)

    def test_speedup_floor_requires_gauge_on_big_box(self):
        doc = self.scaling_doc(
            hw=8, extra={"scaling.seconds.threads.2": 5.0})
        self.assertEqual(self.run_scaling(doc), 1)

    def test_speedup_floor_skipped_on_small_box(self):
        doc = self.scaling_doc(hw=2)
        self.assertEqual(self.run_scaling(doc), 0)

    def test_speedup_floor_zero_disables(self):
        doc = self.scaling_doc(
            hw=8, extra={"scaling.speedup.threads.4": 1.1})
        self.assertEqual(
            self.run_scaling(doc, extra=["--scaling-floor", "0"]), 0)

    def test_custom_overhead_ratios(self):
        doc = self.scaling_doc(hw=1, seq=10.0, pool1=11.0,
                               extra={"scaling.seconds.threads.4": 12.0})
        self.assertEqual(
            self.run_scaling(doc, extra=["--overhead-pool1", "1.2",
                                         "--overhead-oversub", "1.3"]), 0)


if __name__ == "__main__":
    unittest.main()
