"""Fixed points, Lyapunov spectra and bifurcation sweeps of the two-user map.

Everything here works on the 3-vector X = (v_c, x1, x2).  numpy serves
the one-off 3x3 linear algebra of the Newton solve and builds the sweep
grid (`np.linspace`).  Orbits with a tangent frame -- Lyapunov spectra
and bifurcation sweeps -- run in one plain-float kernel, `_tangent_orbit`,
which applies the Jacobian at every stage, re-orthonormalizes the frame by
unrolled modified Gram-Schmidt once per checked block of up to four stages,
and makes no per-stage numpy call.  The continuous-time stability claims
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
# stages per Gram-Schmidt pass at most; divides _HISTORY_STRIDE
_BLOCK_STAGES = 4
# a block of stages is kept only if its stretch ratios, its largest column
# norm over r22 and over r33, stay below this
_STRETCH_BOUND = 2.0**12


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


# A Lyapunov estimate, or a whole sweep, may run at most this many map
# stages: about a minute at one CPU, where a 2-vCPU host ran 1.3-1.9 us a
# sweep stage and 1.4-2.8 us a tangent stage.  A Lyapunov history holds one
# row per _HISTORY_STRIDE stages, about 66 MiB at the limit.  Acceptance 04's
# sweep is 2.04e6 stages and the gate's Lyapunov runs are 1e5.
_MAX_STAGES = 3 * 10**7


def _check_iterations(iterations: int) -> None:
    """A Lyapunov estimate averages over 1000 to 3e7 tangent stages.
    `bifurcation_scan` checks it before any fork."""
    if iterations < 1000:
        raise ValueError(f"iterations must be >= 1000, got {iterations}")
    if iterations > _MAX_STAGES:
        raise ValueError(
            f"iterations = {iterations} exceed the limit of {_MAX_STAGES:.0e} "
            f"(about a minute at one CPU)"
        )


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
    columns by the Jacobian at the current state; the frame is
    re-orthonormalized by modified Gram-Schmidt once per block of up to
    _BLOCK_STAGES stages, whose stretch factors r_jj equal |R_jj| of a QR
    factorization of the block's Jacobian product applied to the frame.
    Returns (v samples, means): means holds (k, l1, l2, l3), the log-stretch
    sums averaged over the first k stages and sorted descending, every
    _HISTORY_STRIDE stages and at k == iterations, so its last entry is the
    final estimate; it is the history `lyapunov_spectrum` returns.

    Blocks tile each run of stages between history entries (one pass every
    few stages: Geist, Parlitz and Lauterborn, Prog. Theor. Phys. 83, 1990).
    A block of two or more stages is kept only if its largest column norm
    before the projections is below _STRETCH_BOUND times r22 and times r33,
    so that the projections cancel at most 12 of the 53 bits.  Otherwise it
    is recomputed one stage at a time from the frame it started with, and
    the next block is half as long.  The length doubles, up to
    _BLOCK_STAGES, after a kept block whose ratios are within the square
    root of the bound, and at a history entry where the last block's
    r11/r22 and r11/r33 are.  A one-stage block is the per-stage Benettin
    step, bit for bit.

    All three phases read one `two_user_orbit` generator, so the state
    step and its bound test are written once, and DivergenceError carries
    the absolute stage, counted from s0.l.  A column that a one-stage block
    annihilates (r_jj == 0, as at the first stage when xi1 or xi2 is 0)
    adds -inf to its sum and is replaced by the completion a Householder QR
    would give; a longer block with r_jj == 0 fails the bound.
    """
    _check_iterations(iterations)
    a, k1, k2 = params.alpha, params.xi1, params.xi2
    nk1 = -k1
    orbit = two_user_orbit(params, s0, transient + samples + iterations)
    v, (x1, x2) = s0.v_c, s0.x
    for _, v, x1, x2 in itertools.islice(orbit, transient):
        pass
    v_samples = []
    for _, v, x1, x2 in itertools.islice(orbit, samples):
        v_samples.append(v)

    sqrt, log, copysign, inf = math.sqrt, math.log, math.copysign, math.inf
    most, root, bound, bound2 = (
        _BLOCK_STAGES, math.sqrt(_STRETCH_BOUND), _STRETCH_BOUND, _STRETCH_BOUND**2
    )
    # the frame as nine floats: q_ij is component i of column j
    q11, q21, q31 = 1.0, 0.0, 0.0
    q12, q22, q32 = 0.0, 1.0, 0.0
    q13, q23, q33 = 0.0, 0.0, 1.0
    s1 = s2 = s3 = 0.0
    means = []
    state = (None, v, x1, x2)   # as two_user_orbit yields it
    length = most
    for k in range(0, iterations, _HISTORY_STRIDE):
        # the states of the stages up to the next history entry, then the
        # state that follows them
        stages = [state, *itertools.islice(orbit, min(_HISTORY_STRIDE, iterations - k))]
        state = stages.pop()
        end = len(stages)
        i = single = 0   # stages before `single` run as one-stage blocks
        while i < end:
            n = 1 if i < single else length if i + length <= end else end - i
            # Jacobian rows: (a, k1, -k2), (j21, j22, -k2), (j31, k1, j33);
            # u = k1 * q2j and w = k2 * q3j each serve two rows
            _, v, x1, x2 = stages[i]
            j21, j22, j31, j33 = nk1 * x1, nk1 * v, k2 * x2, k2 * v
            u, w = k1 * q21, k2 * q31
            m11, m21, m31 = a * q11 + u - w, j21 * q11 + j22 * q21 - w, j31 * q11 + u + j33 * q31
            u, w = k1 * q22, k2 * q32
            m12, m22, m32 = a * q12 + u - w, j21 * q12 + j22 * q22 - w, j31 * q12 + u + j33 * q32
            u, w = k1 * q23, k2 * q33
            m13, m23, m33 = a * q13 + u - w, j21 * q13 + j22 * q23 - w, j31 * q13 + u + j33 * q33
            if n > 1:
                # the block's other stages map the unnormalized columns on
                saved = (q11, q21, q31, q12, q22, q32, q13, q23, q33, s1, s2, s3)
                for _, v, x1, x2 in stages[i + 1:i + n]:
                    j21, j22, j31, j33 = nk1 * x1, nk1 * v, k2 * x2, k2 * v
                    u, w = k1 * m21, k2 * m31
                    m11, m21, m31 = a * m11 + u - w, j21 * m11 + j22 * m21 - w, j31 * m11 + u + j33 * m31
                    u, w = k1 * m22, k2 * m32
                    m12, m22, m32 = a * m12 + u - w, j21 * m12 + j22 * m22 - w, j31 * m12 + u + j33 * m32
                    u, w = k1 * m23, k2 * m33
                    m13, m23, m33 = a * m13 + u - w, j21 * m13 + j22 * m23 - w, j31 * m13 + u + j33 * m33
                # the largest squared column norm, which the projections cancel
                big = max(m11 * m11 + m21 * m21 + m31 * m31,
                          m12 * m12 + m22 * m22 + m32 * m32,
                          m13 * m13 + m23 * m23 + m33 * m33)

            # a completion (r == 0) sets its sum to -inf; r becomes 1 in a
            # one-stage block, and stays 0 in a longer one, which fails
            r1 = sqrt(m11 * m11 + m21 * m21 + m31 * m31)
            if r1:
                q11, q21, q31 = m11 / r1, m21 / r1, m31 / r1
            else:
                q11, q21, q31, s1 = 1.0, 0.0, 0.0, -inf
                r1 = 1.0 if n == 1 else 0.0

            d = q11 * m12 + q21 * m22 + q31 * m32
            m12, m22, m32 = m12 - d * q11, m22 - d * q21, m32 - d * q31
            r2 = sqrt(m12 * m12 + m22 * m22 + m32 * m32)
            if r2:
                q12, q22, q32 = m12 / r2, m22 / r2, m32 / r2
            else:
                # the reflection carrying e1 to +-q1 carries e2 to this unit vector
                t = q21 / (1.0 + abs(q11))
                q12, q22, q32 = -t * (q11 + copysign(1.0, q11)), 1.0 - t * q21, -t * q31
                s2 = -inf
                r2 = 1.0 if n == 1 else 0.0

            d = q11 * m13 + q21 * m23 + q31 * m33
            m13, m23, m33 = m13 - d * q11, m23 - d * q21, m33 - d * q31
            d = q12 * m13 + q22 * m23 + q32 * m33
            m13, m23, m33 = m13 - d * q12, m23 - d * q22, m33 - d * q32
            r3 = sqrt(m13 * m13 + m23 * m23 + m33 * m33)
            if r3:
                q13, q23, q33 = m13 / r3, m23 / r3, m33 / r3
            else:
                q13, q23, q33 = q21 * q32 - q31 * q22, q31 * q12 - q11 * q32, q11 * q22 - q21 * q12
                s3 = -inf
                r3 = 1.0 if n == 1 else 0.0

            if n > 1:
                if not (r1 > 0.0 and big < bound2 * r3 * r3 and big < bound2 * r2 * r2):
                    q11, q21, q31, q12, q22, q32, q13, q23, q33, s1, s2, s3 = saved
                    single, length = i + n, n // 2
                    continue
                # a block twice as long squares the ratios
                if big < bound * r3 * r3 and big < bound * r2 * r2:
                    length = min(2 * n, most)
            s1 += log(r1)
            s2 += log(r2)
            s3 += log(r3)
            i += n
        # one-stage blocks grow again at a history entry, where the last
        # block stretched within the square root of the bound
        if r1 < root * r3 and r1 < root * r2:
            length = min(2 * length, most)
        k += end
        means.append((k, *sorted((s1 / k, s2 / k, s3 / k), reverse=True)))
    return v_samples, means


def lyapunov_spectrum(
    params: ModelParams, s0: SystemState, iterations: int = 100_000
) -> LyapunovSpectrum:
    """Full Lyapunov spectrum along the orbit of s0.

    Propagates a tangent frame with the stage Jacobians and
    re-orthonormalizes it by modified Gram-Schmidt once per block of up to
    four stages, a block kept only while its stretch ratios stay within a
    fixed bound; the per-direction log stretch factors, averaged over the
    run, estimate the exponents.  This is the numerically stable equivalent
    of eigen-analyzing the accumulated tangent product, which overflows
    after a few dozen stages.  The work is done by `_tangent_orbit` in plain
    floats, with no per-stage numpy call.  `iterations` must lie in
    1000..3e7, checked before the first stage.
    """
    _, means = _tangent_orbit(params, s0, 0, 0, iterations)
    history = tuple(means)
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
    independent of evaluation order.  A sweep of more than 3e7 stages,
    points x (transient + samples + lyap_iterations), is refused before its
    grid is built.

    The grid points run through `strides.imap` with one share per point:
    this process computes points 0, k, 2k, ... and a forked child each
    other stride, which spreads the early-diverging points of a range over
    all of them.  Every grid point's ModelParams is built here before any
    fork, so its warnings reach the caller.  Results come back pickled,
    float bits intact, in grid order, so every k gives the same scan (a
    nan is then an equal-bits copy, not the `math.nan` object).  An
    exception raised for a point in a child is raised here in that
    point's turn; `strides.imap` says how the children end.
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
    _check_iterations(lyap_iterations)
    stages = points * (transient + samples + lyap_iterations)
    if stages > _MAX_STAGES:
        raise ValueError(
            f"points x (transient + samples + lyap_iterations) = {stages} stages exceed "
            f"the limit of {_MAX_STAGES:.0e} (about a minute at one CPU)"
        )
    grid = np.linspace(lo, hi, points).tolist()
    # Every ModelParams check admits an interval of the swept value, so
    # valid lo and hi make the whole grid valid: build them first, and a bad
    # range fails before any orbit.  The grid's ends are lo and hi exactly.
    ends = {value: _with_swept(base_params, param, value) for value in (lo, hi)}
    grid_params = [
        ends[value] if value in ends else _with_swept(base_params, param, value)
        for value in grid
    ]

    def point(item) -> GridPointResult:
        value, p = item
        try:
            v_samples, means = _tangent_orbit(p, s0, transient, samples, lyap_iterations)
        except DivergenceError as exc:
            return GridPointResult(value, (), math.nan, True, exc.stage)
        return GridPointResult(value, tuple(v_samples), means[-1][1], False, None)

    return BifurcationScan(
        points=tuple(strides.imap(point, list(zip(grid, grid_params)), points))
    )
