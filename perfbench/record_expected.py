#!/usr/bin/env python3
"""Record expected.json: the Step-3 seed pools of ``seeded-extend`` and the
output summary of every other job, from one untimed run of each workload.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_expected.py

Every pooled Step-3 seed is also run through the full extension once, to
confirm its last entry and that its checks pass.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import jobs as J  # noqa: E402
from run import WORKLOADS  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from worker import run_pass  # noqa: E402


def main() -> int:
    expected = {"pools": J.record_pools(J.SEEDED_LEVELS), "jobs": {}}
    bad = [key for key, seeds in expected["pools"].items() if not seeds]
    if bad:
        print("no Step-3 seed found for %s" % bad, file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(dir=HERE.parent) as work:
        for workload in WORKLOADS:
            if workload == "seeded-extend":
                jobs = J.seeded_extend_jobs(work, J.SEEDED_LEVELS, expected["pools"],
                                            lambda pool: pool)
            else:
                jobs = J.make_jobs(workload, work, 0, expected)
            result = run_pass(jobs, SpeedProbe())
            print("%s: %d jobs, %.1f s" % (workload, len(jobs), result["wall"]))
            if workload == "seeded-extend":
                if result["failures"]:
                    print("\n".join(result["failures"]), file=sys.stderr)
                    return 1
            else:
                expected["jobs"].update(result["outputs"])
                if len(result["outputs"]) != len(jobs):
                    print("some jobs raised:\n" + "\n".join(result["failures"]),
                          file=sys.stderr)
                    return 1
    with open(J.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
