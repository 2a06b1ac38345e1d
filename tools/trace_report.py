#!/usr/bin/env python3
"""Speedup-decomposition report over the repo's Chrome span traces.

Reads a trace-event JSON produced by ``--span-trace`` (see
src/obs/trace_export.hpp) and attributes every thread's wall-clock to
one of three buckets, using innermost-span self-time so nested spans
never double-count::

    idle     pool/idle            worker blocked waiting for work
    commit   exec/commit_wait     ordered join / in-order trial commits
             bench/commit
    compute  everything else      chunk bodies, trials, engine drains

The report prints a per-thread table (with attribution coverage: the
fraction of the thread's active window covered by spans), a concurrency
profile of the compute bucket (how much wall-clock had k threads
computing at once), and the derived decomposition: serial fraction,
average parallelism, worker imbalance, commit overhead.

``--check`` turns the tool into a validator for CI smoke tests: it
verifies the document structure (metadata rows, complete events, proper
per-thread nesting) and, with ``--min-coverage``, that attribution
covers at least that fraction of every thread's active window.  Exit
status is non-zero on any violation.

Usage:
    trace_report.py build/trace.json [--top 10]
    trace_report.py build/trace.json --check --min-coverage 0.9
"""

import argparse
import json
import sys
from collections import defaultdict

BUCKETS = ("compute", "idle", "commit")

# (cat, name) -> bucket; anything unlisted is compute.
BUCKET_OF = {
    ("pool", "idle"): "idle",
    ("exec", "commit_wait"): "commit",
    ("bench", "commit"): "commit",
}


class Span(object):
    __slots__ = ("start", "end", "cpu", "cat", "name", "bucket", "children")

    def __init__(self, start, end, cpu, cat, name):
        self.start = start            # integer ns
        self.end = end                # integer ns
        self.cpu = cpu                # thread CPU ns inside the span
        self.cat = cat
        self.name = name
        self.bucket = BUCKET_OF.get((cat, name), "compute")
        self.children = []


def load_trace(path):
    """Returns (doc, threads) where threads maps tid -> sorted [Span]."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    threads = defaultdict(list)
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        # ts/dur are microseconds with ns precision; integer ns below
        # keeps the nesting arithmetic exact.  tdur (thread CPU time) is
        # optional so traces from before the field existed still load.
        start = int(round(float(ev["ts"]) * 1000.0))
        dur = int(round(float(ev["dur"]) * 1000.0))
        cpu = int(round(float(ev.get("tdur", 0.0)) * 1000.0))
        threads[ev["tid"]].append(
            Span(start, start + dur, cpu,
                 ev.get("cat", ""), ev.get("name", "")))
    for spans in threads.values():
        spans.sort(key=lambda s: (s.start, -(s.end - s.start)))
    return doc, dict(threads)


def thread_names(doc):
    names = {}
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            names[ev["tid"]] = ev.get("args", {}).get("name", "")
    return names


def build_forest(spans):
    """Nests sorted spans into trees; returns (roots, errors).

    Spans from one RAII-instrumented thread are either disjoint or
    properly nested; anything else is a malformed trace and is reported
    rather than silently mis-attributed.
    """
    roots, stack, errors = [], [], []
    for s in spans:
        while stack and stack[-1].end <= s.start:
            stack.pop()
        if stack and s.end > stack[-1].end:
            errors.append(
                "overlap: %s/%s [%d,%d) vs enclosing %s/%s [%d,%d)"
                % (s.cat, s.name, s.start, s.end, stack[-1].cat,
                   stack[-1].name, stack[-1].start, stack[-1].end))
            continue
        if stack:
            stack[-1].children.append(s)
        else:
            roots.append(s)
        stack.append(s)
    return roots, errors


def self_partition(node, out_time, out_intervals):
    """Splits `node` into self segments (gaps between children).

    Self time lands in out_time[bucket]; compute-bucket segments are
    also collected as intervals for the concurrency sweep.
    """
    cursor = node.start
    for child in node.children:
        if cursor < child.start:
            _account(node, cursor, child.start, out_time, out_intervals)
        cursor = max(cursor, child.end)
        self_partition(child, out_time, out_intervals)
    if cursor < node.end:
        _account(node, cursor, node.end, out_time, out_intervals)


def _account(node, t0, t1, out_time, out_intervals):
    out_time[node.bucket] += t1 - t0
    if node.bucket == "compute":
        out_intervals.append((t0, t1))


def concurrency_profile(intervals, t_min, t_max):
    """Returns {k: ns with exactly k compute intervals active} over
    [t_min, t_max)."""
    if t_min >= t_max:
        return {}
    events = []
    for t0, t1 in intervals:
        events.append((t0, 1))
        events.append((t1, -1))
    events.sort()
    profile = defaultdict(int)
    level, cursor = 0, t_min
    for t, delta in events:
        t = min(max(t, t_min), t_max)
        if t > cursor:
            profile[level] += t - cursor
            cursor = t
        level += delta
    if cursor < t_max:
        profile[0] += t_max - cursor
    return dict(profile)


def analyze(doc, threads):
    """Per-thread buckets + coverage, plus the global decomposition."""
    names = thread_names(doc)
    per_thread, all_compute, errors = [], [], []
    t_min = t_max = None
    for tid in sorted(threads):
        spans = threads[tid]
        roots, errs = build_forest(spans)
        errors.extend("tid %s: %s" % (tid, e) for e in errs)
        time = dict.fromkeys(BUCKETS, 0)
        intervals = []
        for root in roots:
            self_partition(root, time, intervals)
        first = min(s.start for s in spans)
        last = max(s.end for s in spans)
        t_min = first if t_min is None else min(t_min, first)
        t_max = last if t_max is None else max(t_max, last)
        attributed = sum(time.values())
        window = last - first
        # Root spans tile the thread's instrumented wall without
        # double-counting, so their cpu sum is the thread's CPU inside
        # spans; the remainder is time spent descheduled (or the field
        # is absent in an old trace, where cpu stays 0).
        root_wall = sum(r.end - r.start for r in roots)
        root_cpu = sum(r.cpu for r in roots)
        per_thread.append({
            "tid": tid,
            "name": names.get(tid, "tid-%s" % tid),
            "window": window,
            "attributed": attributed,
            "coverage": attributed / window if window > 0 else 1.0,
            "time": time,
            "cpu": root_cpu,
            "desched": max(0, root_wall - root_cpu),
            "spans": len(spans),
        })
        all_compute.extend(intervals)
    profile = concurrency_profile(all_compute, t_min or 0, t_max or 0)
    return {
        "threads": per_thread,
        "profile": profile,
        "wall": (t_max - t_min) if per_thread else 0,
        "errors": errors,
    }


def site_totals(threads, top):
    """Top (cat, name) sites by total *span* duration (not self time):
    the quick 'where does the time go' list."""
    totals = defaultdict(lambda: [0, 0])  # (cat, name) -> [ns, count]
    for spans in threads.values():
        for s in spans:
            entry = totals[(s.cat, s.name)]
            entry[0] += s.end - s.start
            entry[1] += 1
    ranked = sorted(totals.items(), key=lambda kv: -kv[1][0])
    return ranked[:top]


def fmt_s(ns):
    return "%10.4f" % (ns / 1e9)


def print_report(doc, threads, analysis, top):
    wall = analysis["wall"]
    print("trace_report: %d thread(s), wall clock %.4f s"
          % (len(analysis["threads"]), wall / 1e9))
    dropped = {k: v for k, v in doc.get("otherData", {}).items()
               if k.startswith("dropped.")}
    total_dropped = int(dropped.get("dropped.total", "0"))
    if total_dropped:
        print("trace_report: WARNING: %d span(s) dropped to ring wrap -- "
              "totals undercount (%s)"
              % (total_dropped,
                 ", ".join("%s=%s" % kv for kv in sorted(dropped.items()))))

    print("\nper-thread attribution (seconds):")
    print("  %-18s %7s %10s %10s %10s %10s %10s %10s  %s"
          % ("thread", "spans", "compute", "idle", "commit",
             "cpu", "desched", "window", "coverage"))
    totals = dict.fromkeys(BUCKETS, 0)
    cpu_total = desched_total = 0
    for t in analysis["threads"]:
        for b in BUCKETS:
            totals[b] += t["time"][b]
        cpu_total += t["cpu"]
        desched_total += t["desched"]
        print("  %-18s %7d %s %s %s %s %s %s  %6.1f%%"
              % (t["name"], t["spans"], fmt_s(t["time"]["compute"]),
                 fmt_s(t["time"]["idle"]), fmt_s(t["time"]["commit"]),
                 fmt_s(t["cpu"]), fmt_s(t["desched"]), fmt_s(t["window"]),
                 100.0 * t["coverage"]))

    profile = analysis["profile"]
    busy = sum(ns for k, ns in profile.items() if k >= 1)
    weighted = sum(k * ns for k, ns in profile.items())
    serial = sum(ns for k, ns in profile.items() if k <= 1)
    print("\nconcurrency profile (compute bucket):")
    for k in sorted(profile):
        ns = profile[k]
        print("  %2d thread(s) computing: %s s  (%5.1f%% of wall)"
              % (k, fmt_s(ns).strip(), 100.0 * ns / wall if wall else 0.0))

    workers = [t for t in analysis["threads"]
               if t["name"].startswith("pool.worker")]
    pool = workers if workers else analysis["threads"]
    comp = [t["time"]["compute"] for t in pool]
    imbalance = (max(comp) - min(comp)) if comp else 0

    print("\nspeedup decomposition:")
    print("  wall clock:        %s s" % fmt_s(wall).strip())
    print("  total compute:     %s s  (serial-equivalent work)"
          % fmt_s(totals["compute"]).strip())
    if wall:
        print("  realized speedup:  %10.2fx  (total compute / wall)"
              % (totals["compute"] / wall))
        print("  serial fraction:   %9.1f%%  (wall with <=1 thread "
              "computing)" % (100.0 * serial / wall))
    if busy:
        print("  avg parallelism:   %10.2f   (while any compute ran)"
              % (weighted / busy))
    print("  worker imbalance:  %s s  (max-min compute%s)"
          % (fmt_s(imbalance).strip(),
             "" if workers else "; no pool workers in trace"))
    print("  commit/wait:       %s s" % fmt_s(totals["commit"]).strip())
    print("  idle (all threads):%s s" % fmt_s(totals["idle"]).strip())
    print("  thread cpu:        %s s  (sum of root-span thread CPU)"
          % fmt_s(cpu_total).strip())
    print("  descheduled:       %s s  (instrumented wall - cpu; "
          "oversubscription shows up here)" % fmt_s(desched_total).strip())

    if top:
        print("\ntop sites by total span time:")
        for (cat, name), (ns, count) in site_totals(threads, top):
            print("  %-28s %s s  x%d"
                  % ("%s/%s" % (cat, name), fmt_s(ns).strip(), count))


def check(doc, threads, analysis, min_coverage):
    """Structural + coverage validation; returns a list of problems."""
    problems = []
    if not isinstance(doc.get("traceEvents"), list):
        problems.append("traceEvents missing or not a list")
        return problems
    if "otherData" not in doc:
        problems.append("otherData missing")
    if doc.get("displayTimeUnit") != "ms":
        problems.append("displayTimeUnit != 'ms'")

    names = thread_names(doc)
    has_process = any(ev.get("ph") == "M" and ev.get("name") == "process_name"
                      for ev in doc["traceEvents"])
    if not has_process:
        problems.append("no process_name metadata row")
    for ev in doc["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        for field in ("tid", "ts", "dur", "cat", "name"):
            if field not in ev:
                problems.append("complete event missing %r: %r" % (field, ev))
                break
        else:
            if float(ev["dur"]) < 0:
                problems.append("negative dur: %r" % ev)
            if "tdur" in ev and float(ev["tdur"]) < 0:
                problems.append("negative tdur: %r" % ev)

    if not threads:
        problems.append("no complete ('ph':'X') span events")
    for tid in threads:
        if tid not in names:
            problems.append("tid %s has spans but no thread_name row" % tid)

    problems.extend(analysis["errors"])
    for t in analysis["threads"]:
        if t["coverage"] < min_coverage:
            problems.append(
                "thread %s coverage %.1f%% below --min-coverage %.1f%%"
                % (t["name"], 100.0 * t["coverage"], 100.0 * min_coverage))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="Chrome trace JSON from --span-trace")
    ap.add_argument("--check", action="store_true",
                    help="validate structure/coverage instead of reporting; "
                         "non-zero exit on any violation")
    ap.add_argument("--min-coverage", type=float, default=0.0,
                    help="with --check: minimum per-thread attribution "
                         "coverage, 0..1 (default: %(default)s)")
    ap.add_argument("--top", type=int, default=12,
                    help="sites to list in the hot-site table "
                         "(default: %(default)s; 0 disables)")
    args = ap.parse_args()

    try:
        doc, threads = load_trace(args.trace)
    except (OSError, ValueError, KeyError) as err:
        print("trace_report: ERROR: cannot load %s: %s" % (args.trace, err))
        return 2
    analysis = analyze(doc, threads)

    if args.check:
        problems = check(doc, threads, analysis, args.min_coverage)
        if problems:
            for p in problems:
                print("trace_report: FAIL: %s" % p)
            return 1
        spans = sum(len(s) for s in threads.values())
        print("trace_report: check passed (%d thread(s), %d span(s), "
              "min coverage %.1f%%)"
              % (len(threads), spans,
                 100.0 * min((t["coverage"] for t in analysis["threads"]),
                             default=1.0)))
        return 0

    if not threads:
        print("trace_report: no span events in %s" % args.trace)
        return 1
    print_report(doc, threads, analysis, args.top)
    for e in analysis["errors"]:
        print("trace_report: WARNING: %s" % e)
    return 0


if __name__ == "__main__":
    sys.exit(main())
