#!/usr/bin/env python3
"""Output check of the pipeline benchmark, for ctest.

Runs each given workload of a built pipebench binary once at seed 1 with
--seconds 0.001 (the binary's minimum, three passes) and fails when the
binary reports a failed check or pipebench/run.py's host checks do: the
digest pinned in pipebench/digests.json, and counts that must repeat
exactly from pass to pass.  Timings are never compared.

    python3 tools/pipebench_check.py build/bench/pipebench [WORKLOAD ...]
"""

import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pipebench"))
from run import DIGESTS, WORKLOADS, host_checks, run_binary  # noqa: E402

SEED = 1
SECONDS = 0.001


def main(argv):
    if len(argv) < 2 or any(w not in WORKLOADS for w in argv[2:]):
        print("usage: pipebench_check.py BINARY [%s ...]"
              % " | ".join(WORKLOADS), file=sys.stderr)
        return 2
    binary = argv[1]
    with open(DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    failed = 0
    for workload in argv[2:] or WORKLOADS:
        raw = run_binary(binary, workload, SEED, SECONDS, None)
        attempted, failures = host_checks(raw, pinned)
        for msg in raw["failures"] + failures:
            print("CHECK FAILED: " + msg)
        failed += raw["failed"] + len(failures)
        print("%s seed %d: %d passes, %d checks, %d failed, digest %s"
              % (workload, SEED, len(raw["passes"]),
                 raw["attempted"] + attempted, raw["failed"] + len(failures),
                 raw["passes"][0]["digest"]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
