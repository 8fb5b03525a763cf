import pytest

from cloudalloc import ledger
from cloudalloc.ledger import GIGABYTE, allocation_report
from cloudalloc.model import ModelParams, SystemState, step_two_user


def state(v, x, l=0):
    return SystemState(l=l, v_c=v, x=tuple(x))


class TestAllocationReport:
    def test_zero_state_gives_zero_allocations(self):
        p = ModelParams.two_user(0.6, 1.25, 1.28)
        records = allocation_report(p, state(0.0, (0.0, 0.0)), [1, 5, 9], GIGABYTE)
        for rec in records:
            assert rec.owner_alloc == 0.0
            for ua in rec.user_alloc:
                assert ua.magnitude == 0.0 and ua.sign == 0

    def test_single_stage_equals_direct_step(self):
        p = ModelParams.two_user(0.6, 1.25, 1.28)
        s0 = state(1.0 / 0.6, (0.1 / 1.25, 0.1 / 1.28))
        (rec,) = allocation_report(p, s0, [1], GIGABYTE)
        s1 = step_two_user(p, s0)
        assert rec.l == 1
        assert rec.owner_alloc == p.alpha * s1.v_c * GIGABYTE
        for i, ua in enumerate(rec.user_alloc):
            raw = p.xi[i] * s1.x[i] * GIGABYTE
            assert ua.raw == raw
            assert ua.magnitude == abs(raw)

    def test_five_stage_report_matches_replay(self):
        p = ModelParams.two_user(0.6, 1.25, 1.28)
        s0 = state(1.0 / 0.6, (0.1 / 1.25, 0.1 / 1.28))
        stages = [1, 10, 20, 200, 365]
        records = allocation_report(p, s0, stages, GIGABYTE)
        assert [r.l for r in records] == stages

        s = s0
        expected = {}
        for _ in range(365):
            s = step_two_user(p, s)
            if s.l in stages:
                expected[s.l] = (
                    p.alpha * s.v_c * GIGABYTE,
                    p.xi[0] * s.x[0] * GIGABYTE,
                    p.xi[1] * s.x[1] * GIGABYTE,
                )
        for rec in records:
            own, u1, u2 = expected[rec.l]
            assert rec.owner_alloc == own
            assert rec.user_alloc[0].raw == u1
            assert rec.user_alloc[1].raw == u2

    def test_initial_stage_can_be_sampled(self):
        p = ModelParams.two_user(0.6, 1.25, 1.28)
        s0 = state(2.0, (0.5, -0.5))
        (rec, _) = allocation_report(p, s0, [0, 1], 1.0)
        assert rec.l == 0
        assert rec.owner_alloc == p.alpha * 2.0
        assert rec.user_alloc[1].sign == -1

    def test_stage_validation(self):
        p = ModelParams.two_user(0.6, 1.25, 1.28)
        with pytest.raises(ValueError):
            allocation_report(p, state(1.0, (0.0, 0.0)), [5, 2], 1.0)
        with pytest.raises(ValueError, match="stages must be nonempty"):
            allocation_report(p, state(1.0, (0.0, 0.0)), [], 1.0)
        with pytest.raises(ValueError, match="stage 1 precedes the initial stage 3"):
            allocation_report(p, state(1.0, (0.0, 0.0), l=3), [1], 1.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_unit_scale_is_refused_before_the_orbit(self, scale, monkeypatch):
        def no_orbit(*args, **kwargs):
            raise AssertionError("the orbit was stepped")

        monkeypatch.setattr(ledger, "two_user_orbit", no_orbit)
        p = ModelParams.two_user(0.6, 1.25, 1.28)
        with pytest.raises(ValueError) as exc:
            allocation_report(p, state(1.0, (0.1, 0.1)), [1, 5], scale)
        assert str(exc.value) == f"unit_scale must be finite and > 0, got {scale}"

