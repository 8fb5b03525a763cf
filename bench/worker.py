"""One benchmark round: a fresh process that runs one workload's job list.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --result PATH [--tiny]

The process imports cloudalloc from the checkout's `src/`, generates the
job list and records the moment it is ready (`run.py` measures set-up
from the spawn to that moment).  It then runs the jobs back to back as a
single closed-loop client, timing each one, and only afterwards checks
every output.  The result, with the spans of a traced round, is written
as JSON to PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy  # noqa: E402

from cloudalloc import cli, failsim  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


def _run_job(job) -> tuple[str | None, str | None]:
    """Run one job; return (error message or None, repr of a direct call's value)."""
    try:
        if job.argv is not None:
            rc = cli.run(job.argv)
            return (None if rc == 0 else f"exit code {rc}"), None
        fn, args = job.call
        return None, repr(getattr(failsim, fn)(*args))
    except Exception:  # a job that raises is a failed job; the round goes on
        return traceback.format_exc(limit=3), None


def run_round(workload: str, seed: int, tiny: bool, trace: bool, workdir: Path) -> dict:
    """Generate, run and check one workload's job list inside `workdir`."""
    jobs = workloads.generate(workload, seed, tiny, str(workdir))
    ready = time.monotonic()

    tracer = Tracer() if trace else None
    seconds, errors, outputs, kernel_s = [], {}, {}, []
    with tracer.installed() if tracer else nullcontext():
        for k, job in enumerate(jobs):
            kernel_s.append(reference.kernel())
            if tracer:
                tracer.job = job.name
            start = time.perf_counter()
            error, value = _run_job(job)
            seconds.append(time.perf_counter() - start)
            if error:
                errors[job.name] = error
            elif job.out is None:
                outputs[job.name] = value
            else:
                # keep each output apart: repeated argv share one --out path
                os.replace(job.out, workdir / f"job{k}.out")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for k, job in enumerate(jobs):
        if job.name not in errors and job.out is not None:
            outputs[job.name] = (workdir / f"job{k}.out").read_text(encoding="utf-8")
    for job in jobs:
        if job.name in errors:
            continue
        try:
            job.check(outputs[job.name], outputs)
        except (workloads.CheckFailed, LookupError, TypeError, ValueError) as exc:
            errors[job.name] = f"check failed: {type(exc).__name__}: {exc}"

    result = {
        "ready": ready,
        "wall_s": sum(seconds),
        "job_seconds": dict(zip((j.name for j in jobs), seconds)),
        "attempted": len(jobs),
        "failed": len(errors),
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "kernel_s": kernel_s,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer.spans)
        result["spans"] = [asdict(s) for s in tracer.spans]
    return result


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    workdir = Path(args.result).with_suffix(".work")
    workdir.mkdir()
    try:
        result = run_round(args.workload, args.seed, args.tiny, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
