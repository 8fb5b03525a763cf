"""Span tracing of cloudalloc's public functions, installed from outside.

`Tracer.installed()` replaces each traced function with a wrapper in
every cloudalloc namespace that binds it (so `cli.iterate` and
`model.iterate` both record `model.iterate` spans) and restores the
originals on exit.  Spans live in memory: name, start, end, parent span
and job id, plus counts read from the arguments and the return value at
the boundary.  Hot internals (`step_two_user_raw`, `_convolve`, the Monte
Carlo chunk kernel) are never wrapped.

`layer_metrics(spans)` turns one round's spans into the per-layer
metrics.  `busy_s` is the summed duration of a function's spans; for
`bifurcation_scan` and `build_discrepancy_report`, and in `cli.run.self_s`,
it is self time: the duration minus the time the child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

MODULES = ("model", "dynamics", "ledger", "replication", "failsim", "report", "cli")

REPORT_SECTIONS = (
    "fixed_point_section",
    "routh_region_section",
    "hopf_section",
    "loss_table_section",
    "allocation_section",
    "structural_section",
)

LOSS_METHODS = ("exact-bigint", "log-domain", "closed-form")


def _out_bytes(a, r):
    argv = list(a["argv"])
    if "--out" not in argv:
        return {}
    try:
        return {"out_bytes": os.path.getsize(argv[argv.index("--out") + 1])}
    except OSError:
        return {}


# (module, function) -> counts(bound arguments, return value) -> dict
TARGETS = {
    ("model", "iterate"): lambda a, r: {"steps": a["steps"]},
    ("dynamics", "lyapunov_spectrum"): lambda a, r: {"iters": r.iterations},
    ("dynamics", "bifurcation_scan"): lambda a, r: {
        "points": len(r.points),
        "divergent": sum(gp.divergent for gp in r.points),
    },
    ("dynamics", "find_fixed_points"): lambda a, r: {
        "seeds": len(r),
        "newton_iters": sum(x.iterations for x in r),
        "converged": sum(x.converged for x in r),
    },
    ("ledger", "allocation_report"): lambda a, r: {
        "stages": (r[-1].l - a["s0"].l) if r else 0
    },
    ("replication", "loss_polynomial"): lambda a, r: {"n": a["n"]},
    ("replication", "prob_data_loss"): lambda a, r: {},
    ("replication", "loss_curve"): lambda a, r: {},
    ("replication", "build_placement"): lambda a, r: {},
    ("failsim", "mc_estimate"): lambda a, r: {
        "trials": r.trials,
        "workers": a["workers"],
        "key": [r.n, r.p, r.trials, r.mode],
    },
    ("failsim", "exhaustive_loss_probability"): lambda a, r: {
        "scenarios": 2 ** (7 * a["n"])
    },
    ("failsim", "verify_coefficients"): lambda a, r: {},
    ("report", "build_discrepancy_report"): lambda a, r: {},
    **{("report", s): (lambda a, r: {}) for s in REPORT_SECTIONS},
    ("cli", "run"): _out_bytes,
}


def _span_name(module: str, fn: str, a) -> str:
    if (module, fn) == ("replication", "prob_data_loss"):
        return f"replication.prob_data_loss.{a['method']}"
    return f"{module}.{fn}"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped cloudalloc functions on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._stack: list[int] = []

    def _wrap(self, module: str, name: str, fn):
        sig = inspect.signature(fn)
        counts = TARGETS[(module, name)]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            span = Span(
                name=_span_name(module, name, a),
                start=time.perf_counter(),
                end=0.0,
                parent=self._stack[-1] if self._stack else None,
                job=self.job,
            )
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.counts = counts(a, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        modules = [importlib.import_module("cloudalloc")] + [
            importlib.import_module(f"cloudalloc.{m}") for m in MODULES
        ]
        restore = []
        for module, name in TARGETS:
            original = getattr(importlib.import_module(f"cloudalloc.{module}"), name)
            wrapper = self._wrap(module, name, original)
            for ns in modules:
                if getattr(ns, name, None) is original:
                    restore.append((ns, name, original))
                    setattr(ns, name, wrapper)
        try:
            yield self
        finally:
            for ns, name, original in restore:
                setattr(ns, name, original)


# name -> unit of every per-layer metric `layer_metrics` returns, plus the
# overhead ratio run.py adds from paired untraced/traced rounds.
LAYER_UNITS = {
    "model.iterate.busy_s": "s",
    "model.iterate.steps": "count",
    "model.iterate.us_per_step": "us",
    "dynamics.lyapunov_spectrum.busy_s": "s",
    "dynamics.lyapunov_spectrum.iters": "count",
    "dynamics.lyapunov_spectrum.us_per_iter": "us",
    "dynamics.bifurcation_scan.busy_s": "s",
    "dynamics.bifurcation_scan.points": "count",
    "dynamics.bifurcation_scan.ms_per_point": "ms",
    "dynamics.bifurcation_scan.divergent_frac": "ratio",
    "dynamics.find_fixed_points.busy_s": "s",
    "dynamics.find_fixed_points.newton_iters": "count",
    "dynamics.find_fixed_points.converged_frac": "ratio",
    "ledger.allocation_report.busy_s": "s",
    "ledger.allocation_report.stages": "count",
    "replication.loss_polynomial.calls": "count",
    "replication.loss_polynomial.busy_s": "s",
    "replication.loss_polynomial.repeat_frac": "ratio",
    **{
        f"replication.prob_data_loss.{m}.{k}": u
        for m in LOSS_METHODS
        for k, u in (("calls", "count"), ("busy_s", "s"))
    },
    "replication.loss_curve.busy_s": "s",
    "replication.build_placement.busy_s": "s",
    "failsim.mc_estimate.busy_s": "s",
    "failsim.mc_estimate.trials": "count",
    "failsim.mc_estimate.w1.trials_per_s": "1/s",
    "failsim.mc_estimate.w2.trials_per_s": "1/s",
    "failsim.mc_estimate.w2_scaling": "ratio",
    "failsim.exhaustive_loss_probability.busy_s": "s",
    "failsim.exhaustive_loss_probability.scenarios_per_s": "1/s",
    "failsim.verify_coefficients.busy_s": "s",
    "report.build_discrepancy_report.busy_s": "s",
    **{f"report.{s}.busy_s": "s" for s in REPORT_SECTIONS},
    "cli.run.self_s": "s",
    "cli.out_bytes": "bytes",
    "bench.trace_overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one round (every name in LAYER_UNITS except
    the trace overhead).  Ratios whose base is zero read 0."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.dur

    def of(name):
        return [s for s in spans if s.name == name]

    def busy(name):
        return sum(s.dur for s in of(name))

    def self_time(name):
        return sum(s.dur - child_time[i] for i, s in enumerate(spans) if s.name == name)

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in of(name))

    m = {}
    steps = total("model.iterate", "steps")
    m["model.iterate.busy_s"] = busy("model.iterate")
    m["model.iterate.steps"] = steps
    m["model.iterate.us_per_step"] = 1e6 * _ratio(busy("model.iterate"), steps)

    iters = total("dynamics.lyapunov_spectrum", "iters")
    m["dynamics.lyapunov_spectrum.busy_s"] = busy("dynamics.lyapunov_spectrum")
    m["dynamics.lyapunov_spectrum.iters"] = iters
    m["dynamics.lyapunov_spectrum.us_per_iter"] = 1e6 * _ratio(
        busy("dynamics.lyapunov_spectrum"), iters
    )

    points = total("dynamics.bifurcation_scan", "points")
    m["dynamics.bifurcation_scan.busy_s"] = self_time("dynamics.bifurcation_scan")
    m["dynamics.bifurcation_scan.points"] = points
    m["dynamics.bifurcation_scan.ms_per_point"] = 1e3 * _ratio(
        busy("dynamics.bifurcation_scan"), points
    )
    m["dynamics.bifurcation_scan.divergent_frac"] = _ratio(
        total("dynamics.bifurcation_scan", "divergent"), points
    )

    m["dynamics.find_fixed_points.busy_s"] = busy("dynamics.find_fixed_points")
    m["dynamics.find_fixed_points.newton_iters"] = total(
        "dynamics.find_fixed_points", "newton_iters"
    )
    m["dynamics.find_fixed_points.converged_frac"] = _ratio(
        total("dynamics.find_fixed_points", "converged"),
        total("dynamics.find_fixed_points", "seeds"),
    )

    m["ledger.allocation_report.busy_s"] = busy("ledger.allocation_report")
    m["ledger.allocation_report.stages"] = total("ledger.allocation_report", "stages")

    seen: set[int] = set()
    repeats = 0
    for s in of("replication.loss_polynomial"):
        repeats += s.counts["n"] in seen
        seen.add(s.counts["n"])
    calls = len(of("replication.loss_polynomial"))
    m["replication.loss_polynomial.calls"] = calls
    m["replication.loss_polynomial.busy_s"] = busy("replication.loss_polynomial")
    m["replication.loss_polynomial.repeat_frac"] = _ratio(repeats, calls)
    for method in LOSS_METHODS:
        name = f"replication.prob_data_loss.{method}"
        m[f"{name}.calls"] = len(of(name))
        m[f"{name}.busy_s"] = busy(name)
    m["replication.loss_curve.busy_s"] = busy("replication.loss_curve")
    m["replication.build_placement.busy_s"] = busy("replication.build_placement")

    # Worker-count rates compare only estimates made at both counts, so
    # the scaling ratio is not skewed by jobs that run at one count only.
    mc = of("failsim.mc_estimate")
    keys = {w: {tuple(s.counts["key"]) for s in mc if s.counts["workers"] == w} for w in (1, 2)}
    paired = keys[1] & keys[2]
    rate = {}
    for w in (1, 2):
        done = [s for s in mc if s.counts["workers"] == w and tuple(s.counts["key"]) in paired]
        rate[w] = _ratio(sum(s.counts["trials"] for s in done), sum(s.dur for s in done))
    m["failsim.mc_estimate.busy_s"] = busy("failsim.mc_estimate")
    m["failsim.mc_estimate.trials"] = total("failsim.mc_estimate", "trials")
    m["failsim.mc_estimate.w1.trials_per_s"] = rate[1]
    m["failsim.mc_estimate.w2.trials_per_s"] = rate[2]
    m["failsim.mc_estimate.w2_scaling"] = _ratio(rate[2], 2 * rate[1])

    name = "failsim.exhaustive_loss_probability"
    m[f"{name}.busy_s"] = busy(name)
    m[f"{name}.scenarios_per_s"] = _ratio(total(name, "scenarios"), busy(name))
    m["failsim.verify_coefficients.busy_s"] = busy("failsim.verify_coefficients")

    m["report.build_discrepancy_report.busy_s"] = self_time("report.build_discrepancy_report")
    for section in REPORT_SECTIONS:
        m[f"report.{section}.busy_s"] = busy(f"report.{section}")

    m["cli.run.self_s"] = self_time("cli.run")
    m["cli.out_bytes"] = total("cli.run", "out_bytes")
    return m
