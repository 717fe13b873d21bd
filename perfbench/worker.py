"""Run one workload in a fresh interpreter and write what it measured.

``run.py`` starts this file once per measurement; it is not meant to be run
by hand. Set-up (importing numpy and chirex, writing the input maps) ends
when the first job is about to start, and the monotonic time of that moment
is reported so that the parent can measure set-up from process start.

Times are in reference seconds (see speed.py); the probe starts before the
heavy imports, so set-up is scaled too. Without ``--trace``, the job list
repeats while another repetition fits in ``--seconds`` (at least once).
With ``--trace``, it runs once untraced and once under the tracer; the
untraced pass gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

# another pass starts only if one 15 % slower than the slowest so far would
# still end within --seconds
SLACK = 1.15
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def run_pass(jobs, probe: SpeedProbe, tracer=None) -> dict:
    """Run every job once; a job fails if it raises or its summary differs
    from the expected one. Output checks are outside the timed region.
    Job times are in reference seconds (see speed.py); ``raw_wall`` is the
    same sum in measured seconds."""
    raw, times, outputs, failures = [], [], {}, []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        start = perf_counter()
        error = None
        try:
            result = job.run()
        except Exception:
            error = traceback.format_exc()
        finally:
            end = perf_counter()
            if tracer is not None:
                tracer.job = None
        raw.append(end - start)
        times.append((end - start) * probe.scale(start, end))
        if error is not None:
            failures.append("%s raised:\n%s" % (job.name, error))
            continue
        try:
            summary = json.loads(json.dumps(job.summarise(result)))
        except Exception:
            failures.append("%s: summary raised:\n%s" % (job.name, traceback.format_exc()))
            continue
        outputs[job.name] = summary
        if summary != job.expected:
            failures.append("%s: got %s, expected %s" % (job.name, summary, job.expected))
    return {"wall": sum(times), "job_max": max(times), "raw_wall": sum(raw),
            "attempted": len(jobs), "failures": failures, "outputs": outputs}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="directory for inputs and outputs")
    ap.add_argument("--result", required=True, help="file the measurement is written to")
    ap.add_argument("--trace-out", help="file the spans are written to")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt", action="store_true",
                    help="alter one expected summary, to show the check fails")
    args = ap.parse_args()
    probe = SpeedProbe()
    probe.start()
    try:
        measure(args, probe)
    finally:
        probe.stop()


def measure(args, probe: SpeedProbe) -> None:
    import numpy  # noqa: F401  set-up pays numpy's import, not the first chain
    import jobs as J

    Path(args.work).mkdir(parents=True, exist_ok=True)
    job_list = J.make_jobs(args.workload, args.work, args.seed, J.load_expected(),
                           smoke=args.smoke)
    if args.corrupt:
        job_list[0].expected = dict(job_list[0].expected or {}, corrupted=True)
    ready = time.monotonic()
    out: dict = {"ready": ready, "setup_scale": probe.scale()}
    if not args.setup_only:
        passes = []
        if args.trace:
            from tracing import Tracer

            passes.append(run_pass(job_list, probe))
            tracer = Tracer()
            tracer.install()
            try:
                passes.append(run_pass(job_list, probe, tracer))
            finally:
                tracer.remove()
            # span times are measured seconds; convert them with the traced
            # pass's own factor, so they compare with wall_s
            to_reference = passes[1]["wall"] / passes[1]["raw_wall"]
            layers = {name: value * to_reference if name.endswith("_s") else value
                      for name, value in tracer.metrics().items()}
            layers["trace.overhead_ratio"] = passes[1]["wall"] / passes[0]["wall"]
            out["layers"] = layers
            if args.trace_out:
                tracer.dump(args.trace_out, to_reference=to_reference,
                            untraced_wall=passes[0]["wall"], traced_wall=passes[1]["wall"])
        else:
            elapsed = longest = 0.0
            while not passes or elapsed + SLACK * longest <= args.seconds:
                t0 = perf_counter()
                passes.append(run_pass(job_list, probe))
                took = perf_counter() - t0
                elapsed += took
                longest = max(longest, took)
        out.update(
            walls=[p["wall"] for p in passes],
            job_max=[p["job_max"] for p in passes],
            raw_walls=[p["raw_wall"] for p in passes],
            attempted=sum(p["attempted"] for p in passes),
            failures=[f for p in passes for f in p["failures"]],
            outputs=[p["outputs"] for p in passes],
            rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    with open(args.result, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
