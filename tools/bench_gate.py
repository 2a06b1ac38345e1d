#!/usr/bin/env python3
"""Perf-regression gate over the repo's registry-shaped bench JSON.

Compares a candidate metrics artifact (a fresh bench run) against a
committed baseline and exits non-zero when any shared timing gauge
regressed by more than ``--max-ratio``.  Both files are the shape
``bench_common.hpp::write_metrics_json`` emits::

    {"meta": {...}, "<section>": {"counters": {...}, "gauges": {...},
                                  "histograms": {...}}, ...}

Only gauges are compared (the benches store ns/iter and wall-clock
seconds as gauges); counters and histograms are informational.  Gauges
present on one side only are reported but never fail the gate — adding a
bench must not break CI until the baseline is refreshed (see
bench/README.md for the refresh procedure).

The default tolerance is deliberately loose: committed baselines are
numbers from one machine (RelWithDebInfo, and one measured under the
TSan preset), while the gate also runs under ASan where a 10-100x
slowdown over the release baseline is normal.  The per-preset baselines
and ``--max-ratio`` values in bench/CMakeLists.txt are sized so the gate
catches order-of-magnitude regressions (an accidental O(n^2), a debug
container swap) rather than noise.

``--scaling-check`` adds the core-aware scaling rules over the
*candidate* artifact alone (a BENCH_scaling.json).  The artifact stamps
the machine's ``hw_concurrency`` into its meta, and the rules adapt:

* ``scaling.seconds.pool1`` / sequential must stay within
  ``--overhead-pool1`` — the runtime's pure dispatch overhead, on any box.
* every ``scaling.seconds.threads.T`` with T > hw_concurrency must stay
  within ``--overhead-oversub`` of sequential — asking for more threads
  than cores must degrade gracefully, on any box.
* when hw_concurrency >= 4, ``scaling.speedup.threads.4`` must reach
  ``--scaling-floor`` — real parallel speedup, enforced only where the
  cores exist (0 disables the floor, e.g. under sanitizers).

Usage:
    bench_gate.py --baseline bench/BENCH_micro.json \
                  --candidate build/BENCH_micro.json \
                  [--max-ratio 8.0] [--metric-prefix micro.]
    bench_gate.py --baseline bench/BENCH_scaling.json \
                  --candidate build/BENCH_scaling.json \
                  --scaling-check [--scaling-floor 2.5] \
                  [--overhead-pool1 1.05] [--overhead-oversub 1.10]
"""

import argparse
import json
import sys


def load_gauges(path, metric_prefix):
    """Flattens every section's gauges into {"section.name": value}."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    flat = {}
    for section, body in doc.items():
        if section == "meta" or not isinstance(body, dict):
            continue
        for name, value in body.get("gauges", {}).items():
            if metric_prefix and not name.startswith(metric_prefix):
                continue
            flat["%s.%s" % (section, name)] = float(value)
    return doc.get("meta", {}), flat


def check_scaling(candidate, floor, pool1_ratio, oversub_ratio):
    """Core-aware scaling rules over the candidate artifact alone.

    Returns a list of failure strings.  All rules key off the
    hw_concurrency the artifact was produced on, so the same gate
    invocation is correct on a laptop and a many-core CI box.
    """
    meta, gauges = load_gauges(candidate, "")
    failures = []

    hw = meta.get("hw_concurrency")
    if not isinstance(hw, int) or hw < 1:
        return ["meta.hw_concurrency missing from %s -- refresh the "
                "artifact with a current bench build" % candidate]

    seconds = {}   # thread count -> wall seconds
    pool1 = None
    speedup4 = None
    for name, value in gauges.items():
        if ".scaling.seconds.threads." in "." + name:
            try:
                seconds[int(name.rsplit(".", 1)[1])] = value
            except ValueError:
                pass
        elif name.endswith("scaling.seconds.pool1"):
            pool1 = value
        elif name.endswith("scaling.speedup.threads.4"):
            speedup4 = value

    seq = seconds.get(1)
    if seq is None or seq <= 0:
        return ["no sequential entry (scaling.seconds.threads.1) in %s"
                % candidate]

    if pool1 is None:
        failures.append("scaling.seconds.pool1 missing (1-worker pool "
                        "overhead audit did not run)")
    else:
        ratio = pool1 / seq
        status = "FAIL" if ratio > pool1_ratio else "ok"
        print("bench_gate: %-4s scaling pool1/seq %26.3f/%.3f s  "
              "ratio=%6.3f (max %.3f)"
              % (status, pool1, seq, ratio, pool1_ratio))
        if ratio > pool1_ratio:
            failures.append("pool-with-1-thread overhead %.3fx > %.3fx"
                            % (ratio, pool1_ratio))

    for threads in sorted(seconds):
        if threads <= hw:
            continue
        ratio = seconds[threads] / seq
        status = "FAIL" if ratio > oversub_ratio else "ok"
        print("bench_gate: %-4s scaling %d threads on %d core(s) "
              "%11.3f/%.3f s  ratio=%6.3f (max %.3f)"
              % (status, threads, hw, seconds[threads], seq, ratio,
                 oversub_ratio))
        if ratio > oversub_ratio:
            failures.append("oversubscribed %d-thread wall %.3fx > %.3fx "
                            "of sequential" % (threads, ratio,
                                               oversub_ratio))

    if floor > 0 and hw >= 4:
        if speedup4 is None:
            failures.append("hw_concurrency=%d but no "
                            "scaling.speedup.threads.4 gauge" % hw)
        else:
            status = "FAIL" if speedup4 < floor else "ok"
            print("bench_gate: %-4s scaling speedup@4 %21.2fx "
                  "(floor %.2fx, hw=%d)" % (status, speedup4, floor, hw))
            if speedup4 < floor:
                failures.append("speedup at 4 threads %.2fx < floor %.2fx"
                                % (speedup4, floor))
    elif floor > 0:
        print("bench_gate: note: speedup floor skipped "
              "(hw_concurrency=%d < 4)" % hw)
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True,
                    help="committed baseline JSON (e.g. bench/BENCH_micro.json)")
    ap.add_argument("--candidate", required=True,
                    help="freshly generated JSON to check")
    ap.add_argument("--max-ratio", type=float, default=8.0,
                    help="fail when candidate/baseline exceeds this "
                         "(default: %(default)s)")
    ap.add_argument("--metric-prefix", default="",
                    help="only gate gauges whose name (within a section) "
                         "starts with this prefix")
    ap.add_argument("--min-baseline", type=float, default=1.0,
                    help="skip gauges whose baseline value is below this "
                         "(sub-ns noise; default: %(default)s)")
    ap.add_argument("--scaling-check", action="store_true",
                    help="additionally apply the core-aware scaling rules "
                         "to the candidate artifact (see module docstring)")
    ap.add_argument("--scaling-floor", type=float, default=2.5,
                    help="with --scaling-check: minimum speedup at 4 "
                         "threads when the candidate machine has >= 4 "
                         "cores; 0 disables (default: %(default)s)")
    ap.add_argument("--overhead-pool1", type=float, default=1.05,
                    help="with --scaling-check: max pool-with-1-thread / "
                         "sequential wall ratio (default: %(default)s)")
    ap.add_argument("--overhead-oversub", type=float, default=1.10,
                    help="with --scaling-check: max oversubscribed-threads "
                         "/ sequential wall ratio (default: %(default)s)")
    args = ap.parse_args(argv)

    base_meta, base = load_gauges(args.baseline, args.metric_prefix)
    cand_meta, cand = load_gauges(args.candidate, args.metric_prefix)

    if base_meta.get("bench") != cand_meta.get("bench"):
        print("bench_gate: warning: meta.bench differs (%r vs %r)"
              % (base_meta.get("bench"), cand_meta.get("bench")))

    shared = sorted(set(base) & set(cand))
    if not shared:
        print("bench_gate: ERROR: no shared gauges between %s and %s"
              % (args.baseline, args.candidate))
        return 2
    for name in sorted(set(base) ^ set(cand)):
        side = "baseline" if name in base else "candidate"
        print("bench_gate: note: %s only in %s (not gated)" % (name, side))

    failures = []
    for name in shared:
        if base[name] < args.min_baseline:
            continue
        ratio = cand[name] / base[name] if base[name] > 0 else float("inf")
        status = "FAIL" if ratio > args.max_ratio else "ok"
        print("bench_gate: %-4s %-60s base=%12.1f cand=%12.1f ratio=%6.2f"
              % (status, name, base[name], cand[name], ratio))
        if ratio > args.max_ratio:
            failures.append((name, ratio))

    scaling_failures = []
    if args.scaling_check:
        scaling_failures = check_scaling(args.candidate, args.scaling_floor,
                                         args.overhead_pool1,
                                         args.overhead_oversub)

    if failures or scaling_failures:
        if failures:
            print("bench_gate: FAILED: %d gauge(s) regressed beyond %.1fx:"
                  % (len(failures), args.max_ratio))
            for name, ratio in failures:
                print("bench_gate:   %s (%.2fx)" % (name, ratio))
        for detail in scaling_failures:
            print("bench_gate: FAILED scaling: %s" % detail)
        return 1
    print("bench_gate: passed (%d gauges, max-ratio %.1f%s)"
          % (len(shared), args.max_ratio,
             ", scaling ok" if args.scaling_check else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
