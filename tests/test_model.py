import math
import pickle
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudalloc.model import (
    DIVERGENCE_BOUND,
    DivergenceError,
    ModelParams,
    SystemState,
    iterate,
    step_general,
    step_two_user,
    two_user_orbit,
)


def state(v, x, l=0):
    return SystemState(l=l, v_c=v, x=tuple(x))


class TestModelParams:
    def test_alpha_bounds(self):
        ModelParams(alpha=1.0, xi=(0.5,))
        with pytest.raises(ValueError):
            ModelParams(alpha=0.0, xi=(0.5,))
        with pytest.raises(ValueError):
            ModelParams(alpha=1.5, xi=(0.5,))
        with pytest.raises(ValueError):
            ModelParams(alpha=-0.1, xi=(0.5,))

    def test_xi_nonnegative(self):
        with pytest.raises(ValueError):
            ModelParams(alpha=0.5, xi=(0.2, -0.1))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                ModelParams(alpha=0.5, xi=(0.2, bad))
        with pytest.raises(ValueError):
            ModelParams(alpha=0.5, xi=())

    def test_scale_sum_violation_warns_but_accepts(self):
        with pytest.warns(UserWarning):
            p = ModelParams(alpha=0.5, xi=(0.1, 1.28))
        assert p.signed_scale_sum() == pytest.approx(1.18)

    def test_scale_sum_warning_points_at_the_caller(self):
        with pytest.warns(UserWarning) as record:
            ModelParams(alpha=0.5, xi=(0.1, 1.28))
        assert record[0].filename == __file__

    def test_scale_sum_ok_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ModelParams(alpha=0.96, xi=(0.2, 1.18))

    def test_two_user_accessors(self):
        p = ModelParams.two_user(0.5, 0.2, 0.3)
        assert (p.xi1, p.xi2) == (0.2, 0.3)
        with pytest.raises(ValueError):
            ModelParams(alpha=0.5, xi=(0.1, 0.2, 0.3)).xi1


class TestStepGeneral:
    def test_origin_is_fixed(self):
        p = ModelParams(alpha=0.5, xi=(1.0, 1.0))
        nxt = step_general(p, state(0.0, (0.0, 0.0)))
        assert nxt.v_c == 0.0
        assert nxt.x == (0.0, 0.0)
        assert nxt.l == 1

    def test_zero_demands_decay_capacity(self):
        p = ModelParams(alpha=0.7, xi=(0.2, 0.3))
        nxt = step_general(p, state(2.0, (0.0, 0.0)))
        assert nxt.v_c == pytest.approx(1.4)
        assert nxt.x == (0.0, 0.0)

    def test_hand_evaluated_two_user_case(self):
        # alpha=0.5, xi=(1,1), (v,x1,x2)=(1, 0.5, 0.25):
        # v'  = 0.5 - (-0.5 + 0.25)      = 0.75
        # x1' = -0.5*1 - 0.25            = -0.75
        # x2' = 0.25*1 + 0.5             = 0.75
        p = ModelParams(alpha=0.5, xi=(1.0, 1.0))
        nxt = step_general(p, state(1.0, (0.5, 0.25)))
        assert nxt.v_c == 0.75
        assert nxt.x == (-0.75, 0.75)

    def test_state_width_must_match(self):
        p = ModelParams(alpha=0.5, xi=(1.0, 1.0))
        with pytest.raises(ValueError):
            step_general(p, state(1.0, (0.5,)))
        with pytest.raises(ValueError, match="2-demand state, got 3"):
            step_two_user(p, state(1.0, (0.5, 0.25, 0.1)))

    def test_negative_stage_is_refused(self):
        with pytest.raises(ValueError, match="stage index must be >= 0, got -1"):
            state(1.0, (0.5, 0.25), l=-1)

    def test_input_state_unchanged(self):
        p = ModelParams(alpha=0.5, xi=(1.0, 1.0))
        s = state(1.0, (0.5, 0.25))
        step_general(p, s)
        assert s.v_c == 1.0 and s.x == (0.5, 0.25) and s.l == 0

    def test_three_users(self):
        # v' = 0.5*1 - (-0.1*1 + 0.2*1 - 0.3*1) = 0.7
        # x1' = -0.1*1 - (0.2 - 0.3) = 0.0
        # x2' = 0.2*1 - (-0.1 - 0.3) = 0.6
        # x3' = -0.3*1 - (-0.1 + 0.2) = -0.4
        p = ModelParams(alpha=0.5, xi=(0.1, 0.2, 0.3))
        nxt = step_general(p, state(1.0, (1.0, 1.0, 1.0)))
        assert nxt.v_c == pytest.approx(0.7)
        assert nxt.x[0] == pytest.approx(0.0, abs=1e-15)
        assert nxt.x[1] == pytest.approx(0.6)
        assert nxt.x[2] == pytest.approx(-0.4)


class TestStepTwoUser:
    def test_reference_initial_condition(self):
        p = ModelParams.two_user(0.96, 0.2, 1.18)
        nxt = step_two_user(p, state(0.01, (0.01, -0.01)))
        assert nxt.v_c == pytest.approx(0.0234, rel=1e-9)
        assert nxt.x[0] == pytest.approx(0.01178, rel=1e-9)
        assert nxt.x[1] == pytest.approx(0.001882, rel=1e-9)

    def test_origin_fixed_for_any_params(self):
        for alpha, xi1, xi2 in ((0.1, 0.0, 0.0), (1.0, 2.0, 3.0), (0.5, 1.0, 1.0)):
            p = ModelParams.two_user(alpha, xi1, xi2)
            nxt = step_two_user(p, state(0.0, (0.0, 0.0)))
            assert nxt.v_c == 0.0 and nxt.x == (0.0, 0.0)

    def test_hand_evaluated_case(self):
        p = ModelParams.two_user(0.5, 1.0, 1.0)
        nxt = step_two_user(p, state(1.0, (0.5, 0.25)))
        assert (nxt.v_c, *nxt.x) == (0.75, -0.75, 0.75)

    def test_bit_identical_to_general(self):
        import warnings

        rng = random.Random(20240817)
        for _ in range(1000):
            alpha = rng.uniform(0.01, 1.0)
            xi = (rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
            scale = 10.0 ** rng.randint(-3, 3)
            s = state(
                rng.uniform(-scale, scale),
                (rng.uniform(-scale, scale), rng.uniform(-scale, scale)),
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # arbitrary xi combos may break the scale sum
                p = ModelParams(alpha=alpha, xi=xi)
            a = step_general(p, s)
            b = step_two_user(p, s)
            assert a.v_c == b.v_c and a.x == b.x

    def test_divergence_raises_with_stage(self):
        p = ModelParams.two_user(1.0, 2.0, 2.0)
        with pytest.raises(DivergenceError) as err:
            step_two_user(p, state(1e11, (1e3, 1e3), l=7))
        assert err.value.stage == 8

    def test_nonfinite_output_is_divergence(self):
        p = ModelParams.two_user(1.0, 2.0, 2.0)
        s = SystemState(l=0, v_c=1e308, x=(1e308, 1e308))
        with pytest.raises(DivergenceError):
            step_two_user(p, s)


class TestIterate:
    def test_origin_yields_origin_copies(self):
        p = ModelParams.two_user(0.5, 1.0, 1.0)
        traj = iterate(p, state(0.0, (0.0, 0.0)), steps=100)
        assert len(traj) == 100
        # -0.0 == 0.0, so tuple equality is the right notion of "origin"
        assert all(s.v_c == 0.0 and s.x == (0.0, 0.0) for s in traj)
        assert [s.l for s in traj] == list(range(1, 101))

    def test_geometric_capacity_decay(self):
        p = ModelParams.two_user(0.5, 1.0, 1.0)
        traj = iterate(p, state(1.0, (0.0, 0.0)), steps=4)
        assert [s.v_c for s in traj] == [0.5, 0.25, 0.125, 0.0625]

    def test_decay_matches_power_law(self):
        p = ModelParams.two_user(0.7, 0.4, 0.9)
        traj = iterate(p, state(3.0, (0.0, 0.0)), steps=40)
        for s in traj:
            assert s.x == (0.0, 0.0)
            assert s.v_c == pytest.approx(0.7**s.l * 3.0, rel=1e-12)

    def test_transient_discard(self):
        p = ModelParams.two_user(0.5, 1.0, 1.0)
        traj = iterate(p, state(1.0, (0.0, 0.0)), steps=5, transient=3)
        assert [s.l for s in traj] == [4, 5]
        assert traj[0].v_c == 0.0625

    def test_validation(self):
        p = ModelParams.two_user(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            iterate(p, state(0.0, (0.0, 0.0)), steps=0)
        with pytest.raises(ValueError):
            iterate(p, state(0.0, (0.0, 0.0)), steps=5, transient=5)

    def test_divergence_reports_stage(self):
        p = ModelParams.two_user(1.0, 2.0, 2.0)
        with pytest.raises(DivergenceError) as err:
            iterate(p, state(10.0, (10.0, 10.0)), steps=100)
        assert 1 <= err.value.stage <= 100
        assert str(err.value.stage) in str(err.value)

    @pytest.mark.parametrize("value", [-7884427129669.437, math.inf, math.nan])
    def test_divergence_error_survives_pickle(self, value):
        # a forked share sends its DivergenceError to the caller pickled
        err = DivergenceError(2127, value)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is DivergenceError
        assert back.stage == 2127 and str(back) == str(err)
        assert back.value == value or math.isnan(back.value) and math.isnan(value)

    def test_replay_reproduces_bit_for_bit(self):
        p = ModelParams.two_user(0.6, 1.28, 1.23)
        traj = iterate(p, state(0.01, (0.01, -0.01)), steps=500)
        s = traj[0]
        for expected in traj[1:]:
            s = step_two_user(p, s)
            assert s.v_c == expected.v_c and s.x == expected.x

    def test_general_path_replay(self):
        p = ModelParams(alpha=0.9, xi=(0.3, 0.2, 0.1))
        traj = iterate(p, state(0.5, (0.1, 0.2, 0.3)), steps=50)
        s = traj[0]
        for expected in traj[1:]:
            s = step_general(p, s)
            assert s.v_c == expected.v_c and s.x == expected.x

    def test_bounded_chaotic_orbit_never_repeats(self):
        p = ModelParams.two_user(0.6, 1.28, 1.23)
        traj = iterate(p, state(0.01, (0.01, -0.01)), steps=10_000)
        comps = [s.components() for s in traj]
        assert max(abs(c) for t in comps for c in t) < DIVERGENCE_BOUND
        assert len(set(comps)) == len(comps)


class TestTwoUserOrbit:
    """The inlined step and bound test of two_user_orbit against chained
    step_two_user: same bits, same stage, same first offending component."""

    @staticmethod
    def chained(p, s0, steps):
        rows, s = [], s0
        for _ in range(steps):
            s = step_two_user(p, s)
            rows.append((s.l, s.v_c, *s.x))
        return rows

    def test_long_orbit_bit_for_bit(self):
        p = ModelParams.two_user(0.6, 1.28, 1.23)
        for s0 in (state(0.01, (0.01, -0.01)), state(-0.0, (0.0, -0.0), l=9)):
            got = list(two_user_orbit(p, s0, 5000))
            want = self.chained(p, s0, 5000)
            assert [tuple(map(repr, r)) for r in got] == [tuple(map(repr, r)) for r in want]

    @pytest.mark.parametrize(
        "s0, stage, value",
        [
            # u1 * v overflows while v stays in bound: x1 is the first offender
            (state(1e12, (1.0, 1.0)), 1, "-inf"),
            # u2 - u1 is inf - inf: v is nan
            (state(0.0, (1e10, 1e10), l=3), 4, "nan"),
        ],
    )
    def test_divergence_stage_and_component(self, s0, stage, value):
        p = ModelParams.two_user(0.5, 1e300, 1e300)
        with pytest.raises(DivergenceError) as inlined:
            list(two_user_orbit(p, s0, 5))
        with pytest.raises(DivergenceError) as reference:
            self.chained(p, s0, 5)
        assert inlined.value.stage == reference.value.stage == stage
        assert repr(inlined.value.value) == repr(reference.value.value) == value
        assert str(inlined.value) == str(reference.value)


def bits(s):
    return (s.l, *(c.hex() for c in s.components()))


def row_bits(row):
    l, *comps = row
    return (l, *(c.hex() for c in comps))


class TestTwoUserPathsProperty:
    """step_general, step_two_user and the raw production loop
    two_user_orbit are one map: same bits (signed zeros included), same
    divergence stage and same first offending component."""

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0, exclude_min=True),
        xi=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
        comps=st.tuples(*[st.floats(-1e4, 1e4)] * 3),
        l=st.integers(0, 10**6),
        steps=st.integers(1, 40),
    )
    def test_paths_agree_bit_for_bit(self, alpha, xi, comps, l, steps):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = ModelParams(alpha=alpha, xi=xi)
        s0 = state(comps[0], comps[1:], l=l)

        chained, diverged = [], None
        s = s0
        try:
            for _ in range(steps):
                nxt = step_general(p, s)
                assert bits(step_two_user(p, s)) == bits(nxt)
                chained.append(nxt)
                s = nxt
        except DivergenceError as exc:
            diverged = (exc.stage, repr(exc.value))
            with pytest.raises(DivergenceError) as err:
                step_two_user(p, s)
            assert err.value.stage == exc.stage

        rows, orbit_diverged = [], None
        try:
            for row in two_user_orbit(p, s0, steps):
                rows.append(row)
        except DivergenceError as exc:
            orbit_diverged = (exc.stage, repr(exc.value))
        assert [row_bits(r) for r in rows] == [bits(c) for c in chained]
        assert orbit_diverged == diverged
