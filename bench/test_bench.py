"""Quick test of the benchmark itself, at tiny job sizes.

    python3 -m pytest -q bench/test_bench.py

Every workload must print every metric BENCHMARK.json names, with its
unit, report no failed job, and count a job as failed once one of its
reference values is corrupted.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 7
TEST_DIR = ROOT / ".bench_run" / "test"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", "all", "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture
def workdir(request):
    path = TEST_DIR / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def runs():
    done = {}

    def get(trace: int):
        if trace not in done:
            proc = _run(trace)
            assert proc.returncode == 0, proc.stderr
            done[trace] = proc.stdout.splitlines()
        return done[trace]

    return get


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(runs, trace, section):
    lines = runs(trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = {
        f"{w}.{m['name']}": m["unit"]
        for w in workloads.WORKLOADS
        for m in SPEC[section]
    }
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    for w in workloads.WORKLOADS:
        for m in SPEC[section]:
            assert any(ln.split()[:2] == [w, m["name"]] and f" {m['unit']} " in ln
                       for ln in lines), (w, m["name"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_error_rate_zero(runs, workload):
    line = next(ln for ln in runs(0) if ln.split()[:2] == [workload, "error_rate"])
    assert line.split()[2:4] == ["0", "ratio"], line


def _shift_grid(mp):
    grid = workloads.sweep_grid
    mp.setattr(workloads, "sweep_grid", lambda lo, hi, n: [v + 1e-3 for v in grid(lo, hi, n)])


def _shift_exponents(mp):
    mp.setattr(workloads, "ANALYTIC_EXPONENTS", tuple(e + 0.1 for e in workloads.ANALYTIC_EXPONENTS))


def _scale_closed_form(mp):
    closed = workloads.closed_form_loss
    mp.setattr(workloads, "closed_form_loss", lambda n, p: closed(n, p) * (1 + 1e-9))


def _change_counts(mp):
    mp.setattr(workloads, "SURVIVAL_COUNTS", (1, 7, 21, 34, 30, 12, 0, 1))


@pytest.mark.parametrize(
    "workload, corrupt",
    [("sweep", _shift_grid), ("orbit", _shift_exponents),
     ("loss", _scale_closed_form), ("montecarlo", _change_counts)],
)
def test_corrupted_reference_fails_jobs(monkeypatch, workdir, workload, corrupt):
    clean = worker.run_round(workload, SEED, True, False, workdir)
    corrupt(monkeypatch)
    bad = worker.run_round(workload, SEED, True, False, workdir)
    assert bad["attempted"] == clean["attempted"]
    assert bad["failed"] > clean["failed"], bad["errors"]


def test_refuses_to_run_without_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(BENCH, workdir / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, cwd=workdir, script=workdir / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
