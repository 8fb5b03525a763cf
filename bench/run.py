"""cloudalloc benchmark: analysis workloads driven through the CLI.

    python3 bench/run.py --workload sweep|orbit|loss|montecarlo|all \\
        --seed N --seconds S --trace 0|1 [--tiny]

Run it from anywhere; it builds nothing and imports cloudalloc from the
`src/` directory next to `bench/`, exiting with code 2 if that is absent.

Each round is a fresh `worker.py` process that runs the workload's whole
seeded job list once, back to back, as one closed-loop client; rounds
repeat until S seconds are spent (at least three untraced rounds), so no
cache in the program carries over from one round to the next.  BLAS
threads are pinned to one; the only parallelism is `loss-mc --workers 2`.

With --trace 0 the last stdout line reports the end-to-end metrics:
  wall_s       time to run the job list (sum of the job times), mean
               over rounds
  setup_s      spawn until the job list is ready: interpreter, imports of
               numpy and cloudalloc, job generation; mean over rounds
  peak_rss_mb  peak resident memory of the round's process (MiB), median
               over rounds
and `attempted`/`failed` count jobs; error_rate = failed / attempted is
printed with the summary above it.  A job fails when it raises, exits
non-zero or fails its correctness check.

Times are reported at a nominal machine speed: the worker runs the fixed
kernel of reference.py before every job, and a time summed over rounds
is scaled by reference.NOMINAL_S / (the mean kernel time over the same
rounds).  This cancels the drift of a shared host's speed between runs;
the summary lines also print the measured means, and the results file
keeps every raw value.

With --trace 1 rounds alternate untraced and traced; the last line
reports every per-layer metric of spans.LAYER_UNITS (median over traced
rounds, times scaled by the round's own mean kernel time) and
bench.trace_overhead_frac, the traced over the untraced mean wall time,
minus one.

Results, with provenance, and the spans of traced rounds are written
under `.bench_run/` in the checkout.  --tiny shrinks every job for the
quick test (bench/test_bench.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".bench_run"
sys.path.insert(0, str(BENCH))

from reference import NOMINAL_S  # noqa: E402
from spans import LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_ROUNDS = 3            # untraced rounds per run (traced runs: one of each)
ROUND_TIMEOUT_S = 120
LAST_START_S = 100        # start no round after this, so a run ends within 180 s


class RoundFailed(Exception):
    pass


def _round(workload: str, seed: int, trace: bool, tiny: bool, index: int) -> dict:
    result_path = RUN_DIR / f"{workload}-{os.getpid()}-{index}.json"
    env = {k: v for k, v in os.environ.items() if k != "CLOUDALLOC_OUTDIR"}
    env.update(BLAS_ENV)
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(trace)), "--result", str(result_path)]
    if tiny:
        argv.append("--tiny")
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, env=env, stdout=sys.stderr, cwd=ROOT)
    try:
        code = proc.wait(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{workload} round {index} exceeded {ROUND_TIMEOUT_S} s")
    finally:  # also on SIGTERM, which main() turns into SystemExit
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not result_path.is_file():
        raise RoundFailed(f"{workload} round {index} exited with code {code}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    result["setup_s"] = result.pop("ready") - spawned
    result["round_s"] = time.monotonic() - spawned
    result["traced"] = trace
    return result


def _enough(rounds: list[dict], trace: bool, tiny: bool, elapsed: float, seconds: float) -> bool:
    plain = sum(not r["traced"] for r in rounds)
    if trace:
        have_min = plain >= 1 and len(rounds) - plain >= 1
    else:
        have_min = plain >= (1 if tiny else MIN_ROUNDS)
    if not have_min:
        return elapsed > LAST_START_S
    longest = max(r["round_s"] for r in rounds)
    return elapsed + longest > seconds or elapsed > LAST_START_S


def _scaled(value: float, unit: str, speed: float) -> float:
    """A time (or rate) at the nominal machine speed; other units as measured."""
    if unit in ("s", "ms", "us"):
        return value * speed
    return value / speed if unit == "1/s" else value


def _at_nominal(rounds: list[dict], key: str) -> float:
    """Mean of a time over `rounds` at the nominal machine speed.

    The total of the time over the rounds is scaled by NOMINAL_S / (mean
    kernel time over the same rounds): a ratio of sums, because the host's
    speed changes within a second, and a kernel time taken between jobs
    scales one round's time less well than many rounds' times together.
    """
    kernel = sum(statistics.mean(r["kernel_s"]) for r in rounds)
    return NOMINAL_S * sum(r[key] for r in rounds) / kernel


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run rounds for `seconds` and reduce them to this workload's metrics."""
    rounds: list[dict] = []
    start = time.monotonic()
    while not rounds or not _enough(rounds, trace, tiny, time.monotonic() - start, seconds):
        traced = trace and len(rounds) % 2 == 1
        rounds.append(_round(workload, seed, traced, tiny, len(rounds)))

    for r in rounds:
        r["speed"] = NOMINAL_S / statistics.mean(r["kernel_s"])
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    # (value, statistic, sample count) per metric
    values = {
        "wall_s": (_at_nominal(plain, "wall_s"), "mean", len(plain)),
        "setup_s": (_at_nominal(rounds, "setup_s"), "mean", len(rounds)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "median", len(plain)),
    }
    if trace:
        for name, unit in LAYER_UNITS.items():
            if name != "bench.trace_overhead_frac":
                layer = [_scaled(r["layers"][name], unit, r["speed"]) for r in traced]
                values[name] = (statistics.median(layer), "median", len(layer))
        overhead = _at_nominal(traced, "wall_s") / values["wall_s"][0] - 1
        values["bench.trace_overhead_frac"] = (overhead, "ratio of means", len(traced))
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "workload": workload,
        "measured": {
            "wall_s": statistics.mean(r["wall_s"] for r in plain),
            "setup_s": statistics.mean(r["setup_s"] for r in rounds),
        },
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "errors": [e for r in rounds for e in r["errors"].items()],
        "metrics": {
            name: {"value": values[name][0], "unit": unit, "statistic": values[name][1],
                   "samples": values[name][2]}
            for name, unit in units.items()
        },
        "rounds": [{k: v for k, v in r.items() if k != "spans"} for r in rounds],
        "spans": [dict(s, round=i) for i, r in enumerate(rounds) for s in r.get("spans", [])],
        "python": rounds[0]["python"],
        "numpy": rounds[0]["numpy"],
    }


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny jobs, for the quick test")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "cloudalloc" / "__init__.py").is_file():
        print(f"no cloudalloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(measure(name, args.seed, args.seconds, bool(args.trace), args.tiny))
    except RoundFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    provenance = {
        "nproc": os.cpu_count(),
        "python": results[0]["python"],
        "numpy": results[0]["numpy"],
        "blas_threads": BLAS_ENV,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for res in results:
        name = res["workload"]
        tag = f"{name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
        record = dict(provenance, **{k: v for k, v in res.items() if k != "spans"})
        (RUN_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        if res["spans"]:
            with open(RUN_DIR / f"{tag}.spans.jsonl", "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(s) + "\n" for s in res["spans"])
        for metric, m in res["metrics"].items():
            measured = res["measured"].get(metric) if not args.trace else None
            print(f"{name:<10} {metric:<52} {m['value']:<14.6g} {m['unit']:<6} "
                  f"{m['statistic']} of {m['samples']}"
                  + (f" (measured {measured:.6g} {m['unit']})" if measured else ""))
        print(f"{name:<10} {'error_rate':<52} {res['failed'] / res['attempted']:<14.6g} "
              f"{'ratio':<6} {res['failed']} failed of {res['attempted']} jobs")
        for job, error in res["errors"]:
            print(f"{name}: job {job} failed: {error}", file=sys.stderr)

    prefix = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": m["value"], "unit": m["unit"]}
            for r in results
            for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
