import collections
import math
import os
import random
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from cloudalloc import dynamics
from cloudalloc.dynamics import (
    AttractorClass,
    LyapunovSpectrum,
    bifurcation_scan,
    classify_attractor,
    find_fixed_points,
    jacobian_at,
    lyapunov_spectrum,
    map_residual,
    map_vector,
)
from cloudalloc.model import (
    DIVERGENCE_BOUND,
    DivergenceError,
    ModelParams,
    SystemState,
    iterate,
    step_two_user,
    step_two_user_raw,
)
from cloudalloc.report import characteristic_coeffs, hopf_alpha, routh_stable, stability_window
from conftest import assert_no_children, fake_cpus

S0 = SystemState(l=0, v_c=0.01, x=(0.01, -0.01))
# the four regimes of the benchmark's orbit workload
ORBIT_REGIMES = ((0.96, 0.2, 1.18), (0.9, 1.4, 0.8), (0.6, 1.28, 1.23), (0.5, 0.1, 0.1))


def params(alpha, xi1, xi2):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ModelParams.two_user(alpha, xi1, xi2)


def qr_benettin(params_list, states, iterations):
    """Test-only reference: the Householder-QR Benettin loop that
    `lyapunov_spectrum` ran before the plain-float kernel -- Jacobian built
    as an np.array, `frame, r = np.linalg.qr(jac @ frame)`, log |diag r| --
    stacked over independent orbits so that one np.linalg.qr call serves
    all of them.  Returns per orbit (history, None), or (None, stage) for an
    orbit that left the bound, its stage counted from the state's l."""
    n = len(states)
    a = np.array([p.alpha for p in params_list])
    k1 = np.array([p.xi1 for p in params_list])
    k2 = np.array([p.xi2 for p in params_list])
    v = np.array([s.v_c for s in states])
    x1 = np.array([s.x[0] for s in states])
    x2 = np.array([s.x[1] for s in states])

    frame = np.tile(np.eye(3), (n, 1, 1))
    sums = np.zeros((n, 3))
    stage = [None] * n
    history = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(iterations):
            jac = np.stack(
                [
                    np.stack([a, k1, -k2], axis=-1),
                    np.stack([-k1 * x1, -k1 * v, -k2], axis=-1),
                    np.stack([k2 * x2, k1, k2 * v], axis=-1),
                ],
                axis=1,
            )
            frame, r = np.linalg.qr(jac @ frame)
            sums += np.log(np.abs(np.diagonal(r, axis1=1, axis2=2)))

            v, x1, x2 = step_two_user_raw(a, k1, k2, v, x1, x2)
            out = ~(
                (np.abs(v) <= DIVERGENCE_BOUND)
                & (np.abs(x1) <= DIVERGENCE_BOUND)
                & (np.abs(x2) <= DIVERGENCE_BOUND)
            )
            for i in np.flatnonzero(out):
                if stage[i] is None:
                    stage[i] = states[i].l + k + 1
            v[out] = x1[out] = x2[out] = 0.0  # park diverged orbits at the origin

            done = k + 1
            if done % 100 == 0 and done < iterations:
                history.append(np.sort(sums / done, axis=1)[:, ::-1])
    history.append(np.sort(sums / iterations, axis=1)[:, ::-1])
    return [
        (None, stage[i])
        if stage[i] is not None
        else ([tuple(float(e) for e in h[i]) for h in history], None)
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def acceptance_scan():
    """Acceptance 04's 400-point alpha scan, run once for every test that reads it."""
    return bifurcation_scan(params(0.5, 1.28, 1.23), "alpha", 0.01, 1.0, 400, S0)


def assert_histories_close(got, want, tol):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for x, y in zip(g, w):
            assert x == y or abs(x - y) <= tol, (g, w)


class TestJacobian:
    def test_origin_form(self):
        p = params(0.7, 0.4, 0.9)
        jac = jacobian_at(p, (0.0, 0.0, 0.0))
        expected = np.array([[0.7, 0.4, -0.9], [0.0, 0.0, -0.9], [0.0, 0.4, 0.0]])
        assert np.array_equal(jac, expected)

    def test_hand_differentiated_point(self):
        p = params(0.5, 0.2, 0.3)
        jac = jacobian_at(p, (1.0, 1.0, 1.0))
        expected = np.array(
            [[0.5, 0.2, -0.3], [-0.2, -0.2, -0.3], [0.3, 0.2, 0.3]]
        )
        assert np.allclose(jac, expected, atol=1e-15)

    def test_zero_demands_first_column(self):
        p = params(0.8, 0.6, 0.7)
        jac = jacobian_at(p, (2.5, 0.0, 0.0))
        assert list(jac[:, 0]) == [0.8, 0.0, 0.0]

    def test_matches_central_finite_differences(self):
        rng = random.Random(7)
        for _ in range(100):
            p = params(rng.uniform(0.1, 1.0), rng.uniform(0, 2), rng.uniform(0, 2))
            point = np.array([rng.uniform(-2, 2) for _ in range(3)])
            jac = jacobian_at(p, point)
            h = 1e-6
            fd = np.empty((3, 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd[:, j] = (map_vector(p, point + e) - map_vector(p, point - e)) / (2 * h)
            assert np.max(np.abs(jac - fd)) < 1e-6

    def test_origin_eigenvalues_are_alpha_and_imaginary_pair(self):
        for alpha, xi1, xi2 in ((0.96, 0.2, 1.18), (0.5, 0.1, 0.1), (0.7, 1.4, 0.8)):
            p = params(alpha, xi1, xi2)
            eig = np.linalg.eigvals(jacobian_at(p, (0.0, 0.0, 0.0)))
            expected = {alpha, complex(0, math.sqrt(xi1 * xi2)), complex(0, -math.sqrt(xi1 * xi2))}
            for lam in eig:
                assert min(abs(lam - e) for e in expected) < 1e-10


class TestFixedPoints:
    def test_origin_seed_converges_exactly(self):
        p = params(0.6, 1.25, 1.28)
        (res,) = find_fixed_points(p, [(0.0, 0.0, 0.0)])
        assert res.converged
        assert res.residual < 1e-12

    def test_quoted_second_point_is_not_fixed(self):
        # (1, -a/(2 xi1), a/(2 xi2)) at alpha=0.6, xi1=1.25, xi2=1.28:
        # the map sends v=1 to 0 there, so the first residual component is -1
        p = params(0.6, 1.25, 1.28)
        point = (1.0, -0.6 / 2.5, 0.6 / 2.56)
        res = map_residual(p, point)
        assert res[0] == pytest.approx(-1.0, abs=1e-12)
        assert float(np.max(np.abs(res))) == pytest.approx(1.0, abs=1e-12)

    def test_near_origin_seed_attracted_to_origin(self):
        p = params(0.5, 0.1, 0.1)
        (res,) = find_fixed_points(p, [(0.05, 0.03, -0.02)])
        assert res.converged
        assert max(abs(c) for c in res.point) < 1e-9

    def test_nonconverged_seeds_are_flagged_not_dropped(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_NEWTON_MAX_ITER", 3)
        p = params(0.6, 1.28, 1.23)
        results = find_fixed_points(p, [(0.0, 0.0, 0.0), (50.0, 80.0, -90.0)])
        assert len(results) == 2
        assert results[0].converged
        assert not results[1].converged
        assert results[1].residual > 0

    def test_requires_a_seed(self):
        with pytest.raises(ValueError):
            find_fixed_points(params(0.5, 0.5, 0.5), [])

    @pytest.mark.parametrize("seed", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)])
    def test_seed_needs_three_components(self, seed):
        with pytest.raises(ValueError) as exc:
            find_fixed_points(params(0.5, 0.5, 0.5), [(0.0, 0.0, 0.0), seed])
        assert str(exc.value) == f"each seed needs 3 components, got {seed}"

    def test_overflowing_seed_is_reported_without_warnings(self):
        p = params(0.6, 1.25, 1.28)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (res,) = find_fixed_points(p, [(1e200, 1e200, 1e200)])
        assert not res.converged
        assert not math.isfinite(res.residual)


class TestCharacteristicCubic:
    def test_direct_substitution(self):
        assert characteristic_coeffs(0.5, 0.2, 0.5) == pytest.approx((-0.8, 0.225, 0.1))

    def test_equal_scales_zero_q(self):
        P, Q, R = characteristic_coeffs(0.9, 0.7, 0.7)
        assert Q == 0.0

    def test_alpha_zero_limit(self):
        assert characteristic_coeffs(0.0, 0.4, 0.1) == pytest.approx((0.3, 0.0, 0.0))

    def test_routh_stable(self):
        assert routh_stable(0.1, 0.2, 0.01)

    def test_routh_unstable_from_substitution(self):
        assert not routh_stable(-0.8, 0.225, 0.1)

    def test_routh_marginal_boundary(self):
        # P*Q == R is the boundary, not inside the stable region
        assert not routh_stable(0.2, 0.5, 0.1)


class TestStabilityWindow:
    def test_reference_parameters_inside(self):
        assert stability_window(0.96, 0.2, 1.18)

    def test_reversed_scales_outside(self):
        assert not stability_window(0.5, 1.4, 0.8)

    def test_alpha_above_gap_outside(self):
        assert not stability_window(0.5, 0.2, 0.5)


class TestHopfAlpha:
    def test_direct_substitution(self):
        assert hopf_alpha(1.4, 0.8) == pytest.approx(3.0889, abs=1e-4)

    def test_admissible_counterexample(self):
        # contradicts the blanket claim that the condition needs |alpha| > 1
        a = hopf_alpha(0.51, 0.01)
        assert a == pytest.approx(0.5136, abs=1e-4)
        assert 0.0 < a <= 1.0

    def test_equal_scales_singular(self):
        with pytest.raises(ValueError, match="undefined for xi1 == xi2"):
            hopf_alpha(0.7, 0.7)
        with pytest.raises(ValueError, match="undefined for xi1 == xi2"):
            hopf_alpha(0.7, np.array([0.5, 0.7]))


class TestLyapunovSpectrum:
    def test_converged_origin_orbit_matches_linear_moduli(self):
        p = params(0.5, 0.1, 0.1)
        spec = lyapunov_spectrum(p, S0, iterations=50_000)
        expected = (math.log(0.5), math.log(0.1), math.log(0.1))
        for got, want in zip(spec.exponents, expected):
            assert got == pytest.approx(want, abs=1e-2)

    def test_exponents_sorted_descending(self):
        p = params(0.6, 1.28, 1.23)
        spec = lyapunov_spectrum(p, S0, iterations=5000)
        assert list(spec.exponents) == sorted(spec.exponents, reverse=True)

    def test_history_tracks_and_ends_at_final(self):
        p = params(0.6, 1.28, 1.23)
        spec = lyapunov_spectrum(p, S0, iterations=1050)
        assert spec.history[-1] == (1050, *spec.exponents)
        assert [h[0] for h in spec.history] == [*range(100, 1050, 100), 1050]

    def test_exponent_sum_equals_mean_log_jacobian_determinant(self):
        p = params(0.6, 1.28, 1.23)
        n = 20_000
        spec = lyapunov_spectrum(p, S0, iterations=n)
        s = S0
        acc = 0.0
        for _ in range(n):
            acc += math.log(abs(np.linalg.det(jacobian_at(p, s.components()))))
            s = step_two_user(p, s)
        assert sum(spec.exponents) == pytest.approx(acc / n, abs=1e-3)

    def test_minimum_iterations_enforced(self):
        with pytest.raises(ValueError):
            lyapunov_spectrum(params(0.5, 0.5, 0.5), S0, iterations=100)

    def test_history_matches_householder_qr_reference(self):
        plist = [params(*abc) for abc in ORBIT_REGIMES]
        refs = qr_benettin(plist, [S0] * len(plist), 10_000)
        for p, (ref_history, stage) in zip(plist, refs):
            assert stage is None
            spec = lyapunov_spectrum(p, S0, iterations=10_000)
            assert_histories_close([h[1:] for h in spec.history], ref_history, 1e-12)

    def test_stable_origin_spectrum_matches_analytic_and_householder(self):
        # where the origin attracts the orbit (xi1 * xi2 < 1, alpha < 1), the
        # spectrum is (log alpha, log xi1xi2 / 2, log xi1xi2 / 2); the grid
        # reaches alpha = 0.01, where a two-stage block stretches its third
        # column about 2500 times less than the first two
        pairs = ((0.1, 0.1), (0.5, 0.5), (0.2, 1.18), (1.4, 0.6), (0.63, 0.086))
        grid = [(a, x1, x2) for a in (0.01, 0.03, 0.1, 0.3, 0.6, 0.96) for x1, x2 in pairs]
        plist = [params(*abc) for abc in grid]
        refs = qr_benettin(plist, [S0] * len(plist), 10_000)
        for (a, x1, x2), p, (ref_history, stage) in zip(grid, plist, refs):
            assert stage is None
            spec = lyapunov_spectrum(p, S0, iterations=10_000)
            half = 0.5 * math.log(x1 * x2)
            analytic = sorted((math.log(a), half, half), reverse=True)
            # at 10k iterations the worst grid point is 6.6e-4 from the limit
            for got, want in zip(spec.exponents, analytic):
                assert got == pytest.approx(want, abs=1e-3), (a, x1, x2)
            for got, want in zip(spec.exponents, ref_history[-1]):
                assert abs(got - want) <= 1e-12, (a, x1, x2)

    def test_annihilated_tangent_column(self):
        # xi1 = 0 (xi2 = 0) zeroes the Jacobian's second (third) column, so
        # the first Gram-Schmidt stage meets a zero vector: that direction
        # contracts infinitely fast and the frame is completed, not divided by 0
        for abc in ((0.6, 0.0, 1.23), (0.6, 1.28, 0.0)):
            p = params(*abc)
            spec = lyapunov_spectrum(p, S0, iterations=2000)
            ((ref_history, _),) = qr_benettin([p], [S0], 2000)
            assert spec.largest == pytest.approx(ref_history[-1][0], abs=1e-12)
            assert spec.exponents[-1] == -math.inf

    def test_divergence_propagates(self):
        p = params(1.0, 2.0, 2.0)
        with pytest.raises(DivergenceError):
            lyapunov_spectrum(p, SystemState(l=0, v_c=5.0, x=(5.0, 5.0)), iterations=1000)


class TestClassifyAttractor:
    def spectrum(self, exps):
        return LyapunovSpectrum(exponents=exps, iterations=1000, history=((1000, *exps),))

    def test_all_negative_is_regular(self):
        spec = self.spectrum((-0.2, -0.5, -1.0))
        assert classify_attractor(spec) is AttractorClass.FIXED_PERIODIC

    def test_near_zero_is_quasiperiodic(self):
        spec = self.spectrum((0.004, -0.3, -0.9))
        assert classify_attractor(spec, zero_band=0.01) is AttractorClass.QUASIPERIODIC

    def test_positive_is_chaotic(self):
        p = params(0.6, 1.28, 1.23)
        spec = lyapunov_spectrum(p, S0, iterations=20_000)
        assert classify_attractor(spec) is AttractorClass.CHAOTIC

    def test_zero_band_must_be_positive(self):
        for zero_band in (0.0, math.nan):
            with pytest.raises(ValueError):
                classify_attractor(self.spectrum((0.0, -1.0, -2.0)), zero_band=zero_band)


class TestBifurcationScan:
    def test_grid_shape_and_order(self):
        base = params(0.5, 1.28, 1.23)
        scan = bifurcation_scan(
            base, "alpha", 0.3, 0.9, 7, S0, transient=200, samples=10, lyap_iterations=1000
        )
        assert len(scan.points) == 7
        grid = [gp.value for gp in scan.points]
        assert grid == sorted(grid)
        for gp in scan.points:
            if not gp.divergent:
                assert len(gp.v_samples) == 10
                assert math.isfinite(gp.lambda_max)

    def test_single_point_grid_matches_direct_computation(self):
        base = params(0.5, 1.28, 1.23)
        scan = bifurcation_scan(
            base, "alpha", 0.6, 0.7, 1, S0, transient=100, samples=5, lyap_iterations=1000
        )
        assert len(scan.points) == 1
        assert [gp.value for gp in scan.points] == [0.6]
        gp = scan.points[0]
        # replicate the pipeline by hand at alpha=0.6
        p = params(0.6, 1.28, 1.23)
        s = S0
        for _ in range(100):
            s = step_two_user(p, s)
        vs = []
        for _ in range(5):
            s = step_two_user(p, s)
            vs.append(s.v_c)
        assert gp.v_samples == tuple(vs)
        spec = lyapunov_spectrum(p, SystemState(l=0, v_c=s.v_c, x=s.x), iterations=1000)
        assert gp.lambda_max == spec.largest

    def test_divergent_points_marked_not_fatal(self):
        base = params(0.5, 1.28, 1.23)
        scan = bifurcation_scan(
            base, "alpha", 0.01, 0.12, 4, S0, transient=500, samples=5, lyap_iterations=1000
        )
        assert any(gp.divergent for gp in scan.points)
        for gp in scan.points:
            if gp.divergent:
                assert math.isnan(gp.lambda_max)
                assert gp.v_samples == ()

    def test_xi1_sweep_goes_from_order_to_chaos(self):
        base = params(0.5, 1.0, 1.28)
        scan = bifurcation_scan(
            base, "xi1", 0.8, 1.3, 26, S0, transient=500, samples=10, lyap_iterations=2000
        )
        live = [gp for gp in scan.points if not gp.divergent]
        ordered = [gp.value for gp in live if gp.lambda_max < -0.01]
        chaotic = [gp.value for gp in live if gp.lambda_max > 0.01]
        assert ordered and chaotic
        assert min(ordered) < min(chaotic)
        assert max(ordered) < max(chaotic)

    def test_acceptance_alpha_sweep_matches_householder_qr_reference(self, acceptance_scan):
        scan = acceptance_scan
        # reference: chained step_two_user for transient + samples, then the
        # QR loop from each surviving end state, stages counted on from there
        want = {}
        ends = {}
        for gp in scan.points:
            p = params(gp.value, 1.28, 1.23)
            s, vs = S0, []
            try:
                for k in range(1100):
                    s = step_two_user(p, s)
                    if k >= 1000:
                        vs.append(s.v_c)
            except DivergenceError as exc:
                want[gp.value] = ((), exc.stage)
            else:
                want[gp.value] = (tuple(vs), None)
                ends[gp.value] = (p, s)
        refs = qr_benettin([p for p, _ in ends.values()], [s for _, s in ends.values()], 4000)
        lambdas = {}
        for value, (history, stage) in zip(ends, refs):
            if stage is None:
                lambdas[value] = history[-1][0]
            else:
                want[value] = ((), stage)

        worst = 0.0
        for gp in scan.points:
            v_samples, stage = want[gp.value]
            assert gp.divergent == (stage is not None)
            assert gp.divergence_stage == stage
            assert gp.v_samples == v_samples
            if not gp.divergent:
                worst = max(worst, abs(gp.lambda_max - lambdas[gp.value]))
        assert worst <= 1e-12

    def test_acceptance_alpha_sweep_census(self, acceptance_scan):
        # the labels `classify_attractor` gives the scan's lambda_max at the
        # default band; the value closest to a band edge is 1.7e-6 from it
        def label(gp):
            if gp.divergent:
                return "divergent"
            return classify_attractor(LyapunovSpectrum((gp.lambda_max,) * 3, 4000, ())).value

        census = collections.Counter(label(gp) for gp in acceptance_scan.points)
        assert census == {
            "divergent": 76, "chaotic": 214, "quasiperiodic": 97, "fixed/periodic": 13,
        }

    def test_divergence_stage_matches_iterate(self):
        base = params(0.5, 1.28, 1.23)
        s0 = SystemState(l=5, v_c=0.01, x=(0.01, -0.01))
        transient, samples, lyap = 1000, 100, 4000
        scan = bifurcation_scan(
            base, "alpha", 0.13, 0.17, 9, s0,
            transient=transient, samples=samples, lyap_iterations=lyap,
        )
        stages = [gp.divergence_stage for gp in scan.points if gp.divergent]
        # the grid diverges both before and inside the Lyapunov phase
        assert min(stages) <= s0.l + transient + samples < max(stages)
        for gp in scan.points:
            p = params(gp.value, 1.28, 1.23)
            if gp.divergent:
                with pytest.raises(DivergenceError) as err:
                    iterate(p, s0, steps=transient + samples + lyap)
                assert gp.divergence_stage == err.value.stage
            else:
                assert gp.divergence_stage is None
                iterate(p, s0, steps=transient + samples + lyap)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            bifurcation_scan(params(0.5, 1.0, 1.0), "beta", 0.1, 0.9, 3, S0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            bifurcation_scan(params(0.5, 1.0, 1.0), "alpha", 0.9, 0.1, 3, S0)
        with pytest.raises(ValueError):
            bifurcation_scan(params(0.5, 1.0, 1.0), "alpha", 0.1, 0.9, 0, S0)
        for lo, hi in ((0.1, math.inf), (-math.inf, 0.9), (math.nan, 0.9), (0.1, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                bifurcation_scan(params(0.5, 1.28, 1.23), "xi1", lo, hi, 2, S0)

    def test_scale_sum_warning_names_the_sweep(self):
        # every xi1 of this grid leaves -xi1 + xi2 above 1; each grid point's
        # ModelParams is built in dynamics, so that is where its warning points
        with pytest.warns(UserWarning, match="alternating scale sum") as record:
            bifurcation_scan(
                params(0.5, 0.1, 1.23), "xi1", 0.0, 0.2, 3, S0,
                transient=10, samples=2, lyap_iterations=1000,
            )
        assert [os.path.basename(w.filename) for w in record] == ["dynamics.py"] * 3

    def count_orbits(self, monkeypatch):
        calls = []
        real = dynamics._tangent_orbit
        monkeypatch.setattr(
            dynamics, "_tangent_orbit", lambda *args: calls.append(args[0]) or real(*args)
        )
        return calls

    @pytest.mark.parametrize("lo, hi, bad", [(0.5, 1.5, "1.5"), (0.0, 0.9, "0.0")])
    def test_out_of_range_end_refused_before_any_orbit(self, lo, hi, bad, monkeypatch):
        calls = self.count_orbits(monkeypatch)
        with pytest.raises(ValueError, match=rf"alpha must lie in \(0, 1\], got {bad}$"):
            bifurcation_scan(params(0.5, 0.1, 0.1), "alpha", lo, hi, 200, S0)
        assert calls == []

    def test_single_point_grid_sweeps_lo_and_checks_hi(self, monkeypatch):
        # with one point the grid is [lo]; an out-of-range hi is still refused
        calls = self.count_orbits(monkeypatch)
        scan = bifurcation_scan(
            params(0.5, 0.1, 0.1), "alpha", 0.5, 0.9, 1, S0,
            transient=100, samples=5, lyap_iterations=1000,
        )
        assert [gp.value for gp in scan.points] == [0.5]
        assert [p.alpha for p in calls] == [0.5]
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\], got 1.5$"):
            bifurcation_scan(params(0.5, 0.1, 0.1), "alpha", 0.5, 1.5, 1, S0)
        assert len(calls) == 1

    def test_oversized_sweep_refused_before_its_grid(self, monkeypatch):
        # acceptance 04's 400 x 5100 stages pass; 1e8 points would build
        # about 24 GiB of grid and ModelParams before the first orbit
        def no_grid(*args):
            raise AssertionError("grid built")

        monkeypatch.setattr(dynamics.np, "linspace", no_grid)
        start = time.monotonic()
        with pytest.raises(ValueError, match=r"= 510000000000 stages exceed the limit of 3e\+07"):
            bifurcation_scan(params(0.5, 1.28, 1.23), "alpha", 0.01, 1.0, 10**8, S0)
        with pytest.raises(ValueError, match=r"= 30000001 stages exceed"):
            bifurcation_scan(
                params(0.5, 1.28, 1.23), "alpha", 0.01, 1.0, 1, S0,
                transient=0, samples=1, lyap_iterations=30_000_000,
            )
        assert time.monotonic() - start < 0.5

    @pytest.mark.parametrize("window", [{"samples": 0}, {"samples": -5}, {"transient": -50}])
    def test_empty_sample_window_rejected(self, window):
        with pytest.raises(ValueError):
            bifurcation_scan(
                params(0.5, 1.0, 1.0), "alpha", 0.1, 0.9, 3, S0, lyap_iterations=1000, **window
            )


def scan_bits(scan):
    """Every float of a scan as its 8 bytes: a nan unpickled in another
    process is not the `math.nan` object, so `==` on GridPointResult would
    call two equal scans with a divergent point unequal."""
    pack = struct.Struct("<d").pack
    return [
        (pack(gp.value), [pack(v) for v in gp.v_samples], pack(gp.lambda_max),
         gp.divergent, gp.divergence_stage)
        for gp in scan.points
    ]


class TestSweepWorkers:
    """bifurcation_scan deals grid points by stride to forked children."""

    GRIDS = {
        # (base, param, lo, hi, points): one, two and seven points; the
        # seven-point alpha grid diverges at its first three points, and
        # xi1 = 0 annihilates a tangent column at the first stage
        "one": ((0.5, 1.28, 1.23), "alpha", 0.6, 0.7, 1),
        "two": ((0.5, 1.28, 1.23), "xi2", 0.6, 1.7, 2),
        "divergent": ((0.5, 1.28, 1.23), "alpha", 0.01, 0.3, 7),
        "annihilated": ((0.5, 0.1, 0.5), "xi1", 0.0, 0.2, 7),
    }

    def scan(self, grid):
        base, param, lo, hi, points = self.GRIDS[grid]
        return bifurcation_scan(
            params(*base), param, lo, hi, points, S0,
            transient=200, samples=3, lyap_iterations=1000,
        )

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_results_do_not_depend_on_the_worker_count(self, grid, monkeypatch):
        fake_cpus(monkeypatch, 1)
        want = self.scan(grid)
        for cpus in (2, 3, 9):
            fake_cpus(monkeypatch, cpus)
            got = self.scan(grid)
            assert scan_bits(got) == scan_bits(want)
            assert_no_children()
        if grid == "divergent":
            assert [gp.divergent for gp in want.points] == [True] * 3 + [False] * 4
        if grid == "annihilated":
            assert want.points[0].value == 0.0 and not want.points[0].divergent

    def test_short_lyapunov_window_is_refused_before_any_fork(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        fake_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(ValueError, match=r"^iterations must be >= 1000, got 10$"):
            bifurcation_scan(
                params(0.5, 1.28, 1.23), "alpha", 0.6, 0.7, 4, S0, lyap_iterations=10
            )

    def test_interrupt_in_the_callers_stride_ends_every_child(self, monkeypatch):
        caller, real = os.getpid(), dynamics._tangent_orbit

        def orbit(p, *args):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60)   # a child would hold the caller for a minute
            return real(p, *args)

        monkeypatch.setattr(dynamics, "_tangent_orbit", orbit)
        fake_cpus(monkeypatch, 3)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self.scan("divergent")
        assert time.monotonic() - start < 30
        assert_no_children()

    def test_a_scan_loads_no_process_pool(self):
        # neither caller of the fork driver loads a process pool, a thread pool
        # or logging
        src = str(Path(dynamics.__file__).resolve().parents[1])
        code = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "import cloudalloc.cli\n"
            "from cloudalloc.dynamics import bifurcation_scan\n"
            "from cloudalloc.model import ModelParams, SystemState\n"
            "s0 = SystemState(l=0, v_c=0.01, x=(0.01, -0.01))\n"
            "bifurcation_scan(ModelParams.two_user(0.5, 1.28, 1.23), 'alpha', 0.01, 0.3, 2,"
            " s0, 200, 3, 1000)\n"
            "assert cloudalloc.cli.run(['loss-mc', '--nodes', '3', '--p', '0.1', '--trials',"
            " '10000', '--workers', '2', '--out', os.devnull]) == 0\n"
            "print(sorted({'multiprocessing', 'concurrent.futures', 'logging'} & set(sys.modules)))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
