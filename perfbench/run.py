#!/usr/bin/env python3
"""chirex benchmark: four workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload extend-order --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each measurement runs the workload in a fresh interpreter (``worker.py``),
one process with one thread. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced pass, and the spans are written to
``.perfbench_out/``. ``--smoke`` runs tiny versions of every workload and
checks the benchmark itself. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import SETUP_EXPONENT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("extend-order", "mix-pipeline", "construct-verify", "seeded-extend")
SETUP_SAMPLES = 5  # fresh interpreters timed to the first job, median reported
CHILD_TIMEOUT = 170.0

END_TO_END = {"wall_s": "s", "job_max_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "permcore.order_s": "s", "permcore.order_calls": "count",
    "permcore.base_len_sum": "count",
    "permcore.contains_s": "s", "permcore.contains_calls": "count",
    "permcore.perm_mul_s": "s", "permcore.perm_mul_calls": "count",
    "gpr.criterion_self_s": "s", "gpr.meet_sifts": "count",
    "gpr.meet_useful_ratio": "ratio",
    "gpr.isomorphic_s": "s", "gpr.isomorphic_calls": "count", "gpr.components_s": "s",
    "maniplex.classify_s": "s", "maniplex.classify_calls": "count",
    "maniplex.validate_s": "s", "maniplex.rotation_system_s": "s",
    "maniplex.colouring_s": "s",
    "toroidal.build_s": "s", "toroidal.build_calls": "count", "toroidal.quotient_s": "s",
    "extend_db.matching_s": "s", "extend_db.extend_self_s": "s",
    "extend_db.vertices": "count", "extend_db.last_entry_sum": "count",
    "two_s_m.build_s": "s", "two_s_m.aut_scan_self_s": "s", "two_s_m.flags": "count",
    "mix.regular_test_s": "s", "mix.ipg_s": "s", "mix.ipg_self_s": "s",
    "mix.pipeline_self_s": "s",
    "serial.save_s": "s", "serial.load_s": "s", "serial.bytes_written": "bytes",
    "cli.command_s": "s", "cli.command_calls": "count",
    "trace.overhead_ratio": "ratio", "failed_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed job)."""


def _spawn(work: Path, workload: str, seed: int, seconds: float, trace: int,
           deadline: float, extra=()) -> tuple[float, dict]:
    """Run worker.py once; return (set-up seconds, its measurement)."""
    fd, result_path = tempfile.mkstemp(suffix=".json", dir=work)
    os.close(fd)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work / "files"), "--result", result_path, *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError("worker for %s did not finish in time" % workload)
    if proc.returncode != 0:
        raise BenchError("worker for %s exited with code %d" % (workload, proc.returncode))
    with open(result_path) as fh:
        out = json.load(fh)
    return (out["ready"] - spawned) * out["setup_scale"] ** SETUP_EXPONENT, out


def measure(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool = False, corrupt: bool = False) -> tuple[dict, dict]:
    """One benchmark run: the result line and the worker's raw measurement."""
    deadline = time.monotonic() + CHILD_TIMEOUT
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=workload + "-", dir=base))
    extra = ["--smoke"] * smoke + ["--corrupt"] * corrupt
    try:
        if trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            trace_file = out_dir / ("trace-%s-seed%d.json" % (workload, seed))
            _, raw = _spawn(work, workload, seed, seconds, 1, deadline,
                            [*extra, "--trace-out", str(trace_file)])
        else:
            setups = [_spawn(work, workload, seed, seconds, 0, deadline,
                             [*extra, "--setup-only"])[0]
                      for _ in range(SETUP_SAMPLES - 1)]
            setup, raw = _spawn(work, workload, seed, seconds, 0, deadline, extra)
            setups.append(setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()  # fails while another run still uses it

    if not trace:
        print("wall per pass in measured seconds: %s"
              % ", ".join("%.3f" % w for w in raw["raw_walls"]), file=sys.stderr)
    failed = len(raw["failures"])
    for message in raw["failures"][:5]:
        print("FAILED " + message, file=sys.stderr)
    if trace:
        values = dict(raw["layers"], failed_ratio=failed / raw["attempted"])
        units = PER_LAYER
    else:
        values = {"wall_s": statistics.median(raw["walls"]),
                  "job_max_s": statistics.median(raw["job_max"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": raw["rss_kb"] / 1024}
        units = END_TO_END
    line = {"correct": failed == 0, "attempted": raw["attempted"], "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}
    return line, raw


def smoke() -> int:
    """Tiny versions of every workload, one pass each. Checks the printed
    metric names and units against BENCHMARK.json, that a wrong expected
    value counts as a failure, and that traced and untraced passes give the
    same outputs."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = [{m["name"]: m["unit"] for m in bench[key]}
                for key in ("end_to_end", "per_layer")]
    problems = []
    for workload in WORKLOADS:
        before = len(problems)
        outputs = []
        for trace in (0, 1):
            line, raw = measure(workload, 1, 0, trace, smoke=True)
            printed = {k: v["unit"] for k, v in line["metrics"].items()}
            if printed != declared[trace]:
                problems.append("%s trace %d: metrics %s, declared %s"
                                % (workload, trace, printed, declared[trace]))
            if not line["correct"] or line["attempted"] < 1:
                problems.append("%s trace %d: %s" % (workload, trace, line))
            outputs += raw["outputs"]
        if any(o != outputs[0] for o in outputs):
            problems.append("%s: traced and untraced outputs differ" % workload)
        line, _ = measure(workload, 1, 0, 0, smoke=True, corrupt=True)
        if line["correct"] or line["failed"] < 1:
            problems.append("%s: a wrong expected value was not counted as a failure"
                            % workload)
        print("smoke %s: %s" % (workload, "ok" if len(problems) == before else "PROBLEMS"))
    for p in problems:
        print("PROBLEM " + p)
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="check the benchmark itself")
    args = ap.parse_args()
    if not (ROOT / "src" / "chirex" / "__init__.py").is_file():
        print("no chirex sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        line, _ = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
