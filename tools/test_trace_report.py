#!/usr/bin/env python3
"""Unit tests for tools/trace_report.py (run as a ctest: trace_report_selftest).

Covers what pipebench's per-layer attribution imports from the tool,
``load_trace`` and ``build_forest``, plus the self-time partition built on
them: span nesting, self time, the compute/idle/commit buckets, and the
error report for malformed nesting.  Each test writes a small synthetic
Chrome trace to a temp dir.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import trace_report  # noqa: E402


def span(tid, ts_us, dur_us, cat, name, tdur_us=None):
    ev = {"ph": "X", "tid": tid, "pid": 1, "ts": ts_us, "dur": dur_us,
          "cat": cat, "name": name}
    if tdur_us is not None:
        ev["tdur"] = tdur_us
    return ev


def trace_doc(events, threads=None):
    meta = [{"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
             "args": {"name": "test"}}]
    for tid, name in (threads or {}).items():
        meta.append({"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                     "args": {"name": name}})
    return {"traceEvents": meta + events, "displayTimeUnit": "ms",
            "otherData": {"dropped.total": "0"}}


class TraceReportTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def load(self, doc):
        path = os.path.join(self._dir.name, "trace.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return trace_report.load_trace(path)

    # ---- load_trace -------------------------------------------------------

    def test_load_converts_to_ns_and_sorts_per_thread(self):
        _, threads = self.load(trace_doc([
            span(2, 5.0, 1.0, "b", "late"),
            span(1, 0.5, 2.25, "a", "x", tdur_us=1.5),
            span(2, 1.0, 0.001, "b", "early"),
        ]))
        self.assertEqual(sorted(threads), [1, 2])
        (x,) = threads[1]
        self.assertEqual((x.start, x.end, x.cpu), (500, 2750, 1500))
        self.assertEqual([s.name for s in threads[2]], ["early", "late"])
        self.assertEqual(threads[2][0].end - threads[2][0].start, 1)
        self.assertEqual(threads[2][1].cpu, 0)  # tdur absent

    def test_load_skips_non_complete_events(self):
        doc, threads = self.load(trace_doc(
            [span(1, 0, 1, "a", "x"),
             {"ph": "i", "pid": 1, "tid": 1, "ts": 0.5, "name": "mark"}],
            threads={1: "main"}))
        self.assertEqual(sum(len(s) for s in threads.values()), 1)
        self.assertEqual(trace_report.thread_names(doc), {1: "main"})

    def test_equal_starts_put_the_longer_span_first(self):
        _, threads = self.load(trace_doc([
            span(1, 0, 4, "c", "inner"),
            span(1, 0, 10, "c", "outer"),
        ]))
        self.assertEqual([s.name for s in threads[1]], ["outer", "inner"])

    # ---- build_forest -----------------------------------------------------

    def test_forest_nests_children_under_enclosing_span(self):
        _, threads = self.load(trace_doc([
            span(1, 0, 100, "bench", "trial"),
            span(1, 10, 20, "engine", "drain"),
            span(1, 12, 5, "engine", "snapshot"),
            span(1, 40, 30, "engine", "restore"),
            span(1, 200, 10, "bench", "commit"),
        ]))
        roots, errors = trace_report.build_forest(threads[1])
        self.assertEqual(errors, [])
        self.assertEqual([r.name for r in roots], ["trial", "commit"])
        trial = roots[0]
        self.assertEqual([c.name for c in trial.children],
                         ["drain", "restore"])
        self.assertEqual([c.name for c in trial.children[0].children],
                         ["snapshot"])
        self.assertEqual(roots[1].children, [])

    def test_touching_spans_are_siblings(self):
        _, threads = self.load(trace_doc([
            span(1, 0, 10, "a", "first"),
            span(1, 10, 10, "a", "second"),
        ]))
        roots, errors = trace_report.build_forest(threads[1])
        self.assertEqual(errors, [])
        self.assertEqual([r.name for r in roots], ["first", "second"])

    def test_malformed_nesting_is_reported(self):
        # "b" starts inside "a" but ends after it: no RAII scope does that.
        _, threads = self.load(trace_doc([
            span(1, 0, 10, "a", "a"),
            span(1, 5, 10, "b", "b"),
        ]))
        roots, errors = trace_report.build_forest(threads[1])
        self.assertEqual(len(errors), 1)
        self.assertIn("overlap", errors[0])
        self.assertIn("b/b", errors[0])
        self.assertEqual([r.name for r in roots], ["a"])
        self.assertEqual(roots[0].children, [])

    def test_malformed_nesting_fails_check(self):
        doc, threads = self.load(trace_doc(
            [span(1, 0, 10, "a", "a"), span(1, 5, 10, "b", "b")],
            threads={1: "main"}))
        analysis = trace_report.analyze(doc, threads)
        problems = trace_report.check(doc, threads, analysis, 0.0)
        self.assertTrue(any("overlap" in p for p in problems), problems)

    # ---- self time and the bucket partition -------------------------------

    def test_self_time_excludes_children(self):
        _, threads = self.load(trace_doc([
            span(1, 0, 100, "bench", "trial"),
            span(1, 20, 30, "pool", "idle"),
            span(1, 60, 10, "exec", "commit_wait"),
        ]))
        roots, _ = trace_report.build_forest(threads[1])
        time = dict.fromkeys(trace_report.BUCKETS, 0)
        intervals = []
        trace_report.self_partition(roots[0], time, intervals)
        # trial's self time is [0,20) + [50,60) + [70,100) = 60 us; the
        # children keep their own 30 us idle and 10 us commit.
        self.assertEqual(time, {"compute": 60000, "idle": 30000,
                                "commit": 10000})
        self.assertEqual(intervals,
                         [(0, 20000), (50000, 60000), (70000, 100000)])

    def test_buckets_partition_compute_idle_commit(self):
        doc, threads = self.load(trace_doc([
            # main: the lane join, then the in-order trial commit.
            span(1, 0, 40, "exec", "commit_wait"),
            span(1, 40, 10, "bench", "commit"),
            # worker: idle, a chunk with a nested compute span, idle.
            span(2, 0, 5, "pool", "idle"),
            span(2, 5, 30, "exec", "chunk"),
            span(2, 10, 20, "chaos", "replay"),
            span(2, 35, 15, "pool", "idle"),
        ], threads={1: "main", 2: "pool.worker-0"}))
        analysis = trace_report.analyze(doc, threads)
        self.assertEqual(analysis["errors"], [])
        by_name = {t["name"]: t for t in analysis["threads"]}
        main, worker = by_name["main"], by_name["pool.worker-0"]
        self.assertEqual(main["time"],
                         {"compute": 0, "idle": 0, "commit": 50000})
        self.assertEqual(worker["time"],
                         {"compute": 30000, "idle": 20000, "commit": 0})
        for t in (main, worker):
            self.assertEqual(sum(t["time"].values()), t["attributed"])
            self.assertAlmostEqual(t["coverage"], 1.0)
        self.assertEqual(set(trace_report.BUCKETS),
                         {"compute", "idle", "commit"})
        self.assertEqual(trace_report.check(doc, threads, analysis, 0.9), [])

    def test_coverage_counts_gaps_between_roots(self):
        doc, threads = self.load(trace_doc([
            span(1, 0, 10, "a", "x"),
            span(1, 30, 10, "a", "y"),
        ], threads={1: "main"}))
        analysis = trace_report.analyze(doc, threads)
        (t,) = analysis["threads"]
        self.assertEqual(t["window"], 40000)
        self.assertAlmostEqual(t["coverage"], 0.5)
        problems = trace_report.check(doc, threads, analysis, 0.9)
        self.assertTrue(any("coverage" in p for p in problems), problems)


if __name__ == "__main__":
    unittest.main()
