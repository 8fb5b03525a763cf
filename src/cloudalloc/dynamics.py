"""Fixed points, Lyapunov spectra and bifurcation sweeps of the two-user map.

Everything here works on the 3-vector X = (v_c, x1, x2).  numpy serves
the one-off 3x3 linear algebra of the Newton solve and builds the sweep
grid (`np.linspace`).  Orbits with a tangent frame -- Lyapunov spectra
and bifurcation sweeps -- run in one plain-float kernel, `_tangent_orbit`,
which re-orthonormalizes the frame by unrolled modified Gram-Schmidt and
makes no per-step numpy call.  The continuous-time stability claims
quoted for this map (a Routh test, a Hopf condition) are not stated here:
`report` computes them to show that they fail.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import strides
from .model import DivergenceError, ModelParams, SystemState, step_two_user_raw, two_user_orbit


class AttractorClass(Enum):
    FIXED_PERIODIC = "fixed/periodic"
    QUASIPERIODIC = "quasiperiodic"
    CHAOTIC = "chaotic"


def map_vector(params: ModelParams, point) -> np.ndarray:
    """One application of the two-user map to a bare 3-vector (no bound check)."""
    v, x1, x2 = (float(c) for c in point)
    return np.array(
        step_two_user_raw(params.alpha, params.xi1, params.xi2, v, x1, x2)
    )


def map_residual(params: ModelParams, point) -> np.ndarray:
    """F(X) - X; identically zero exactly at a fixed point."""
    return map_vector(params, point) - np.asarray(point, dtype=float)


def jacobian_at(params: ModelParams, point) -> np.ndarray:
    """Jacobian of the two-user map at X = (v, x1, x2):

        [[ alpha,    xi1,    -xi2  ],
         [-xi1*x1,  -xi1*v,  -xi2  ],
         [ xi2*x2,   xi1,     xi2*v]]

    `_tangent_orbit` writes the same matrix inline; this array form is the
    analytic reference the tests check that kernel against.
    """
    v, x1, x2 = (float(c) for c in point)
    a, k1, k2 = params.alpha, params.xi1, params.xi2
    return np.array(
        [
            [a, k1, -k2],
            [-k1 * x1, -k1 * v, -k2],
            [k2 * x2, k1, k2 * v],
        ]
    )


@dataclass(frozen=True)
class FixedPointResult:
    point: tuple[float, float, float]
    residual: float            # max-norm of F(X) - X at `point`
    converged: bool
    iterations: int


def _fd_jacobian(params: ModelParams, point: np.ndarray) -> np.ndarray:
    h = 1e-7
    cols = []
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        cols.append((map_vector(params, point + e) - map_vector(params, point - e)) / (2 * h))
    return np.column_stack(cols)


# max-norm residual below which a Newton iterate counts as a fixed point
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 200  # Newton steps per seed


# An overflowing seed gives inf/nan residuals; the search reports it as
# non-converged, with a non-finite residual, instead of leaking numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def find_fixed_points(params: ModelParams, seeds) -> list[FixedPointResult]:
    """Damped Newton search for roots of F(X) - X from each seed.

    Every seed has 3 components, each finite.  A seed converges once the
    max-norm residual drops below 1e-12 within 200 Newton steps.
    Non-converged seeds are returned with converged=False (their best
    point and residual attached), never dropped.  The Newton matrix uses
    a central finite-difference Jacobian so the search is independent of
    the analytic jacobian_at.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    for seed in seeds:
        if len(seed) != 3:
            raise ValueError(f"each seed needs 3 components, got {seed}")
    if not all(math.isfinite(c) for seed in seeds for c in seed):
        raise ValueError(f"seed components must be finite, got {seeds}")

    results = []
    for seed in seeds:
        x = np.asarray(seed, dtype=float).copy()
        g = map_residual(params, x)
        iterations = 0
        for iterations in range(1, _NEWTON_MAX_ITER + 1):
            norm = float(np.max(np.abs(g)))
            if norm < _NEWTON_TOL:
                break
            jac = _fd_jacobian(params, x) - np.eye(3)
            try:
                delta = np.linalg.solve(jac, -g)
            except np.linalg.LinAlgError:
                break
            # backtracking damping: halve the step until the residual drops
            lam = 1.0
            improved = False
            while lam > 2 ** -30:
                cand = x + lam * delta
                g_cand = map_residual(params, cand)
                if np.max(np.abs(g_cand)) < norm:
                    x, g = cand, g_cand
                    improved = True
                    break
                lam *= 0.5
            if not improved:
                break
        norm = float(np.max(np.abs(g)))
        results.append(
            FixedPointResult(
                point=tuple(float(c) for c in x),
                residual=norm,
                converged=norm < _NEWTON_TOL,
                iterations=iterations,
            )
        )
    return results


# iterations between the running estimates of a Lyapunov history
_HISTORY_STRIDE = 100


@dataclass(frozen=True)
class LyapunovSpectrum:
    """Benettin-style exponent estimates in nats per iteration.

    `history` holds the running estimate as (iteration, l1, l2, l3), the
    exponents sorted descending, every 100 iterations and at `iterations`;
    its final entry is (iterations, *exponents)."""

    exponents: tuple[float, float, float]
    iterations: int
    history: tuple[tuple[int, float, float, float], ...]

    @property
    def largest(self) -> float:
        return self.exponents[0]


def _tangent_orbit(
    params: ModelParams,
    s0: SystemState,
    transient: int,
    samples: int,
    iterations: int,
) -> tuple[list[float], list[tuple[int, float, float, float]]]:
    """The one orbit + tangent-frame kernel of the two-user map, in plain floats.

    Runs `transient + samples` raw stages from s0 and keeps v_c of the last
    `samples`; then `iterations` more stages carrying an orthonormal tangent
    frame (Benettin et al., Meccanica 15, 1980).  Each stage maps the frame
    columns q_j by the Jacobian at the current state and re-orthonormalizes
    them by modified Gram-Schmidt, whose stretch factors r_jj equal |R_jj|
    of a QR factorization.  Returns (v samples, means): means holds
    (k, s1/k, s2/k, s3/k), the log-stretch sums in column order averaged
    over the first k stages, every _HISTORY_STRIDE stages and at
    k == iterations, so its last entry is the final estimate.

    All three phases read one `two_user_orbit` generator, so the state
    step and its bound test are written once, and DivergenceError carries
    the absolute stage, counted from s0.l.  A column the Jacobian
    annihilates (r_jj == 0, as at the first stage when xi1 or xi2 is 0)
    adds -inf to its sum and is replaced by the completion a Householder QR
    would give.
    """
    if iterations < 1000:
        raise ValueError(f"iterations must be >= 1000, got {iterations}")
    a, k1, k2 = params.alpha, params.xi1, params.xi2
    orbit = two_user_orbit(params, s0, transient + samples + iterations)
    v, (x1, x2) = s0.v_c, s0.x
    for _, v, x1, x2 in itertools.islice(orbit, transient):
        pass
    v_samples = []
    for _, v, x1, x2 in itertools.islice(orbit, samples):
        v_samples.append(v)
    step = orbit.__next__

    sqrt, log = math.sqrt, math.log
    # the frame as nine floats: q_ij is component i of column j
    q11, q21, q31 = 1.0, 0.0, 0.0
    q12, q22, q32 = 0.0, 1.0, 0.0
    q13, q23, q33 = 0.0, 0.0, 1.0
    s1 = s2 = s3 = 0.0
    means = []
    for k in range(1, iterations + 1):
        # Jacobian rows: (a, k1, -k2), (j21, j22, -k2), (j31, k1, j33)
        j21, j22, j31, j33 = -k1 * x1, -k1 * v, k2 * x2, k2 * v

        m1 = a * q11 + k1 * q21 - k2 * q31
        m2 = j21 * q11 + j22 * q21 - k2 * q31
        m3 = j31 * q11 + k1 * q21 + j33 * q31
        r = sqrt(m1 * m1 + m2 * m2 + m3 * m3)
        if r == 0.0:
            m1, m2, m3, r, s1 = 1.0, 0.0, 0.0, 1.0, -math.inf
        s1 += log(r)
        q11, q21, q31 = m1 / r, m2 / r, m3 / r

        m1 = a * q12 + k1 * q22 - k2 * q32
        m2 = j21 * q12 + j22 * q22 - k2 * q32
        m3 = j31 * q12 + k1 * q22 + j33 * q32
        d = q11 * m1 + q21 * m2 + q31 * m3
        m1, m2, m3 = m1 - d * q11, m2 - d * q21, m3 - d * q31
        r = sqrt(m1 * m1 + m2 * m2 + m3 * m3)
        if r == 0.0:
            # the reflection carrying e1 to +-q1 carries e2 to this unit vector
            t = q21 / (1.0 + abs(q11))
            m1, m2, m3 = -t * (q11 + math.copysign(1.0, q11)), 1.0 - t * q21, -t * q31
            r, s2 = 1.0, -math.inf
        s2 += log(r)
        q12, q22, q32 = m1 / r, m2 / r, m3 / r

        m1 = a * q13 + k1 * q23 - k2 * q33
        m2 = j21 * q13 + j22 * q23 - k2 * q33
        m3 = j31 * q13 + k1 * q23 + j33 * q33
        d = q11 * m1 + q21 * m2 + q31 * m3
        m1, m2, m3 = m1 - d * q11, m2 - d * q21, m3 - d * q31
        d = q12 * m1 + q22 * m2 + q32 * m3
        m1, m2, m3 = m1 - d * q12, m2 - d * q22, m3 - d * q32
        r = sqrt(m1 * m1 + m2 * m2 + m3 * m3)
        if r == 0.0:
            m1, m2, m3 = q21 * q32 - q31 * q22, q31 * q12 - q11 * q32, q11 * q22 - q21 * q12
            r, s3 = 1.0, -math.inf
        s3 += log(r)
        q13, q23, q33 = m1 / r, m2 / r, m3 / r

        _, v, x1, x2 = step()
        if k % _HISTORY_STRIDE == 0 or k == iterations:
            means.append((k, s1 / k, s2 / k, s3 / k))
    return v_samples, means


def lyapunov_spectrum(
    params: ModelParams, s0: SystemState, iterations: int = 100_000
) -> LyapunovSpectrum:
    """Full Lyapunov spectrum along the orbit of s0.

    Propagates an orthonormal tangent frame with the stage Jacobian and
    re-orthonormalizes it by modified Gram-Schmidt each step; the
    per-direction log stretch factors, averaged over the run, estimate the
    exponents.  This is the numerically stable equivalent of
    eigen-analyzing the accumulated tangent product, which overflows after
    a few dozen stages.  The work is done by `_tangent_orbit` in plain
    floats, with no per-step numpy call.
    """
    _, means = _tangent_orbit(params, s0, 0, 0, iterations)
    history = tuple((k, *sorted(m, reverse=True)) for k, *m in means)
    return LyapunovSpectrum(
        exponents=history[-1][1:], iterations=iterations, history=history
    )


def check_zero_band(zero_band: float) -> None:
    """The band of `classify_attractor` must be > 0; NaN is refused, inf is
    allowed.  `cli lyapunov` checks it before computing the spectrum."""
    if not zero_band > 0.0:
        raise ValueError(f"zero_band must be > 0, got {zero_band}")


def classify_attractor(
    spectrum: LyapunovSpectrum, zero_band: float = 0.01
) -> AttractorClass:
    """Sign-based attractor class from the largest exponent.

    zero_band sets how close to zero still counts as 'zero'; there is no
    canonical threshold, 0.01 nats/iteration is the working default.
    """
    check_zero_band(zero_band)
    top = spectrum.largest
    if top > zero_band:
        return AttractorClass.CHAOTIC
    if abs(top) <= zero_band:
        return AttractorClass.QUASIPERIODIC
    return AttractorClass.FIXED_PERIODIC


SWEEPABLE = ("alpha", "xi1", "xi2")


@dataclass(frozen=True)
class GridPointResult:
    value: float
    v_samples: tuple[float, ...]
    lambda_max: float          # nan when divergent
    divergent: bool
    divergence_stage: int | None   # stage that left the bound, counted from s0.l


@dataclass(frozen=True)
class BifurcationScan:
    points: tuple[GridPointResult, ...]   # one per grid value, in grid order


def _with_swept(base: ModelParams, name: str, value: float) -> ModelParams:
    if name == "alpha":
        return ModelParams(alpha=value, xi=base.xi)
    if name == "xi1":
        return ModelParams(alpha=base.alpha, xi=(value, base.xi2))
    if name == "xi2":
        return ModelParams(alpha=base.alpha, xi=(base.xi1, value))
    raise ValueError(f"unknown sweep parameter {name!r}; expected one of {SWEEPABLE}")


def bifurcation_scan(
    base_params: ModelParams,
    param: str,
    lo: float,
    hi: float,
    points: int,
    s0: SystemState,
    transient: int = 1000,
    samples: int = 100,
    lyap_iterations: int = 4000,
) -> BifurcationScan:
    """Sweep one parameter over a uniform grid; per grid point, record
    `samples` post-transient capacity values and the largest Lyapunov
    exponent along the `lyap_iterations` stages that follow them.
    Divergent grid points are marked with the stage that left the bound,
    not fatal.  Each grid point restarts from the same s0, so results are
    independent of evaluation order.

    The grid points are dealt by stride to k = `strides.width(points)`
    processes: this process computes `grid[0::k]` and a forked child each
    `grid[w::k]`, which spreads the early-diverging points of a range over
    all of them.  Every grid point's ModelParams is built here before any
    fork, so its warnings reach the caller.  Results come back pickled,
    float bits intact, and are merged in grid order, so every k gives the
    same scan (a nan is then an equal-bits copy, not the `math.nan`
    object).  An exception raised for a point in a child is raised here
    once this process's own points are done; `strides.deal` says how the
    children end.
    """
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if transient < 0:
        raise ValueError(f"transient must be >= 0, got {transient}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"sweep range must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise ValueError(f"sweep range must have lo < hi, got [{lo}, {hi}]")
    grid = np.linspace(lo, hi, points).tolist()
    # Every ModelParams check admits an interval of the swept value, so
    # valid lo and hi make the whole grid valid: build them first, and a bad
    # range fails before any orbit.  The grid's ends are lo and hi exactly.
    ends = {value: _with_swept(base_params, param, value) for value in (lo, hi)}
    grid_params = [
        ends[value] if value in ends else _with_swept(base_params, param, value)
        for value in grid
    ]
    k = strides.width(points)

    def stride(w: int) -> list[GridPointResult]:
        results = []
        for value, p in zip(grid[w::k], grid_params[w::k]):
            try:
                v_samples, means = _tangent_orbit(p, s0, transient, samples, lyap_iterations)
            except DivergenceError as exc:
                gp = GridPointResult(value, (), math.nan, True, exc.stage)
            else:
                gp = GridPointResult(value, tuple(v_samples), max(means[-1][1:]), False, None)
            results.append(gp)
        return results

    merged = [None] * points
    for w, got in enumerate(strides.deal(stride, k)):
        merged[w::k] = got
    return BifurcationScan(points=tuple(merged))
