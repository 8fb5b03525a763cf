import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudalloc.replication import (
    BASE_COEFFS,
    LOSS_METHODS,
    build_placement,
    loss_curve,
    loss_polynomial,
    owner_machine_ids,
    prob_data_loss,
    prob_f_failures,
    prob_no_loss,
    render_plan,
    user_machine_ids,
)


def block_members(block):
    return [str(e) for e in block.entries]


def slot_table(n):
    """The (node, half) of every machine id, written out slot by slot:
    owner block i hosts P_i's halves A and B, S1_{i+1}'s half A and
    S2_{i+2}'s half B; user block i hosts S1_i's half A, S2_{i+1}'s half B
    and S1_{i+2}'s half A."""
    def wrap(i):
        return (i - 1) % n + 1

    halves = []
    for i in range(1, n + 1):
        halves += [(i, "A"), (i, "B"), (wrap(i + 1), "A"), (wrap(i + 2), "B")]
    for i in range(1, n + 1):
        halves += [(i, "A"), (wrap(i + 1), "B"), (wrap(i + 2), "A")]
    return halves


def machine_halves(plan):
    """Invert `half_hosts()`: machine id -> the one (node, half) it hosts,
    in id order.  A machine listed under two halves fails here."""
    pairs = sorted((i, half) for half, ids in plan.half_hosts().items() for i in ids)
    assert len({i for i, _ in pairs}) == len(pairs), "a machine hosts two halves"
    return dict(pairs)


def convolution_power(n):
    """Oracle: (1 + 7x + ... + 12x^5)^n by binary-exponentiation convolution."""

    def convolve(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    result, square = [1], list(BASE_COEFFS)
    while n:
        if n & 1:
            result = convolve(result, square)
        n >>= 1
        if n:
            square = convolve(square, square)
    return tuple(result)


def per_f_exact_loss(n, p):
    """Oracle: sum_f (C(7n,f) - c_f) a^f b^(7n-f) / d^(7n), each term built afresh."""
    m = 7 * n
    fp = Fraction(p)
    a, d = fp.numerator, fp.denominator
    coeffs = convolution_power(n)
    total = 0
    for f in range(3, m + 1):
        c_f = coeffs[f] if f <= 5 * n else 0
        total += (math.comb(m, f) - c_f) * a**f * (d - a) ** (m - f)
    return float(Fraction(total) / Fraction(d) ** m)



def fraction_log_domain_terms(n, p):
    """The log-domain per-f terms with each weight ratio floated through
    Fraction and every binomial from math.comb, as the route once did."""
    m = 7 * n
    coeffs = convolution_power(n)
    log_p, log_q = math.log(p), math.log1p(-p)
    lg_m1 = math.lgamma(m + 1)
    terms = []
    for f in range(3, m + 1):
        c_f = coeffs[f] if f <= 5 * n else 0
        total_f = math.comb(m, f)
        weight = total_f - c_f
        if weight == 0:
            continue
        log_binom = lg_m1 - math.lgamma(f + 1) - math.lgamma(m - f + 1)
        log_weight = math.log(float(Fraction(weight, total_f)))
        terms.append((f, math.exp(log_binom + log_weight + f * log_p + (m - f) * log_q)))
    return tuple(terms)

class TestPlacement:
    def test_three_node_blocks(self):
        plan = build_placement(3)
        assert [block_members(b) for b in plan.owner_blocks] == [
            ["P1", "S1_2", "S2_3"],
            ["P2", "S1_3", "S2_1"],
            ["P3", "S1_1", "S2_2"],
        ]
        assert [block_members(b) for b in plan.user_blocks] == [
            ["S1_1", "S2_2", "S1_3"],
            ["S1_2", "S2_3", "S1_1"],
            ["S1_3", "S2_1", "S1_2"],
        ]
        assert list(machine_halves(plan)) == list(range(21))

    def test_too_few_nodes(self):
        with pytest.raises(ValueError, match="placement requires n >= 3 nodes, got 2"):
            build_placement(2)

    def test_ten_nodes_has_seventy_machines(self):
        plan = build_placement(10)
        assert list(machine_halves(plan)) == list(range(70))

    def test_machine_counts_per_block(self):
        plan = build_placement(5)
        for b in plan.owner_blocks:
            assert len(b.machine_ids) == 4
        for b in plan.user_blocks:
            assert len(b.machine_ids) == 3

    def test_each_machine_hosts_one_half(self):
        plan = build_placement(6)
        halves = machine_halves(plan)
        assert list(halves) == list(range(42))
        for node, half in halves.values():
            assert 1 <= node <= 6 and half in ("A", "B")

    def test_cyclic_wraparound(self):
        plan = build_placement(5)
        assert block_members(plan.owner_blocks[3]) == ["P4", "S1_5", "S2_1"]
        assert block_members(plan.owner_blocks[4]) == ["P5", "S1_1", "S2_2"]
        assert block_members(plan.user_blocks[4]) == ["S1_5", "S2_1", "S1_2"]

    def test_half_host_counts(self):
        plan = build_placement(7)
        hosts = plan.half_hosts()
        for node in range(1, 8):
            # half A: primary machine + three S1 entries; half B: primary + two S2
            assert len(hosts[(node, "A")]) == 4
            assert len(hosts[(node, "B")]) == 3

    def test_halves_follow_the_slot_table(self):
        for n in range(3, 61):
            plan = build_placement(n)
            halves = machine_halves(plan)
            assert list(halves) == list(range(7 * n))
            assert list(halves.values()) == slot_table(n), n

    def test_machine_ids_cover_range_once(self):
        plan = build_placement(4)
        ids = [i for b in plan.owner_blocks + plan.user_blocks for i in b.machine_ids]
        assert ids == list(range(28))
        assert list(machine_halves(plan)) == ids

    def test_groups_partition_machines(self):
        seen = set()
        for i in range(1, 5):
            group = owner_machine_ids(i) + user_machine_ids(4, i)
            assert len(group) == 7
            seen.update(group)
        assert seen == set(range(28))

    def test_render_plan_one_block_per_line(self):
        plan = build_placement(3)
        lines = render_plan(plan).strip().splitlines()
        assert len(lines) == 6
        assert lines[0] == "owner 1 P1 S1_2 S2_3 machines=0,1,2,3"
        assert lines[3] == "user 1 S1_1 S2_2 S1_3 machines=12,13,14"


class TestBasePolynomial:
    def test_coefficients(self):
        assert BASE_COEFFS == (1, 7, 21, 34, 30, 12)

    def test_binomial_identities(self):
        assert BASE_COEFFS[2] == math.comb(7, 5) == 21
        assert BASE_COEFFS[4] == math.comb(7, 3) - math.comb(4, 3) - 1 == 30

    def test_total_subset_weight(self):
        assert sum(BASE_COEFFS) == 105


class TestLossPolynomial:
    def test_first_power_is_base(self):
        assert loss_polynomial(1) == BASE_COEFFS

    def test_cube_quadratic_coefficient(self):
        # hand convolution: 3*a2 + 3*a1^2 = 3*21 + 3*49 = 210
        assert loss_polynomial(3)[2] == 210

    def test_coefficient_sums(self):
        for n in (1, 2, 3, 5, 8, 13, 50):
            assert sum(loss_polynomial(n)) == 105**n

    def test_length(self):
        assert len(loss_polynomial(7)) == 36

    def test_matches_convolution_oracle(self):
        for n in range(1, 61):
            assert loss_polynomial(n) == convolution_power(n), n

    def test_coefficients_bounded_by_binomials(self):
        for n in (3, 5, 10):
            coeffs = loss_polynomial(n)
            for f, c in enumerate(coeffs):
                assert c <= math.comb(7 * n, f)


class TestProbNoLoss:
    def test_single_failure_always_survivable(self):
        for n in range(3, 21):
            assert prob_no_loss(n, 1) == 1.0
            assert prob_no_loss(n, 2) == 1.0

    def test_three_node_triples(self):
        assert prob_no_loss(3, 2) == 1.0
        assert prob_no_loss(3, 3) == pytest.approx(1327 / 1330)

    def test_beyond_survivable_range_zero(self):
        assert prob_no_loss(3, 16) == 0.0
        assert prob_no_loss(3, 21) == 0.0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            prob_no_loss(3, 22)
        with pytest.raises(ValueError):
            prob_no_loss(3, -1)
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            prob_no_loss(0, 0)
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            loss_polynomial(0)


class TestProbFFailures:
    def test_no_failures_certain_when_p_zero(self):
        assert prob_f_failures(3, 0, 0.0) == 1.0
        assert prob_f_failures(3, 1, 0.0) == 0.0

    def test_all_fail_binomial_term(self):
        assert prob_f_failures(3, 0, 0.5) == pytest.approx(0.5**21)

    @pytest.mark.parametrize(
        "f, p, message",
        [(0, 1.5, "p must lie in"), (0, math.nan, "p must lie in"),
         (22, 0.1, "f must lie in"), (-1, 0.1, "f must lie in")],
    )
    def test_range_validation(self, f, p, message):
        with pytest.raises(ValueError, match=message):
            prob_f_failures(3, f, p)

    def test_sums_to_one(self):
        total = sum(prob_f_failures(4, f, 0.3) for f in range(29))
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_weights_loss_sum(self):
        # P(loss) = sum_f P(f failures) * (1 - P(no loss | f)), the paper's sum
        for n in (1, 3, 6):
            for p in (0.01, 0.2, 0.5):
                total = sum(
                    prob_f_failures(n, f, p) * (1.0 - prob_no_loss(n, f))
                    for f in range(7 * n + 1)
                )
                exact = prob_data_loss(n, p, "exact-bigint").p_loss
                assert total == pytest.approx(exact, rel=1e-12), (n, p)


class TestProbDataLoss:
    def test_zero_failure_probability(self):
        for method in LOSS_METHODS:
            assert prob_data_loss(5, 0.0, method).p_loss == 0.0

    def test_certain_failure(self):
        for method in LOSS_METHODS:
            assert prob_data_loss(5, 1.0, method).p_loss == 1.0

    def test_exact_equals_closed_form(self):
        for n in (1, 3, 10, 40):
            for p in (0.01, 0.1, 0.37):
                e = prob_data_loss(n, p, "exact-bigint").p_loss
                c = prob_data_loss(n, p, "closed-form").p_loss
                assert e == pytest.approx(c, rel=1e-12)

    def test_log_domain_agrees(self):
        for n in (3, 10, 20, 40):
            for p in (0.01, 0.1, 0.5):
                e = prob_data_loss(n, p, "exact-bigint").p_loss
                l = prob_data_loss(n, p, "log-domain").p_loss
                assert l == pytest.approx(e, rel=1e-10)

    def test_exact_matches_per_f_oracle(self):
        for n in (1, 2, 3, 7, 10, 25):
            for p in (0.0, 1e-300, 0.0013, 0.01, 0.1, 1 / 3, 0.5, 0.9, 1.0):
                got = prob_data_loss(n, p, "exact-bigint").p_loss
                assert got == per_f_exact_loss(n, p), (n, p)
                # both routes round the same rational once
                assert got == prob_data_loss(n, p, "closed-form").p_loss, (n, p)

    def test_log_domain_terms_match_fraction_formula(self):
        for n in (1, 2, 3, 10, 57, 70, 100):
            for p in (5e-324, 1e-300, 0.0013, 0.01, 1 / 3, 0.9):
                got = prob_data_loss(n, p, "log-domain").p_loss
                want = math.fsum(t for _, t in fraction_log_domain_terms(n, p))
                assert got == want, (n, p)

    # n = 1..12 gives weight lists of every length 5..82, odd and even
    @pytest.mark.parametrize("n", [*range(1, 13), 57, 100, 199, 200, 400])
    def test_exact_equals_closed_form_bitwise(self, n):
        for p in (0.0, 1.0, 0.01, 0.0103, 1 / 3, 1 - 2**-53):
            got = prob_data_loss(n, p, "exact-bigint").p_loss
            assert got == prob_data_loss(n, p, "closed-form").p_loss, (n, p)

    @pytest.mark.parametrize("p", [1e-300, 5e-324])
    def test_exact_equals_closed_form_bitwise_tiny_p(self, p):
        got = prob_data_loss(200, p, "exact-bigint").p_loss
        assert got == prob_data_loss(200, p, "closed-form").p_loss

    def test_exact_terms_match_direct_formula(self):
        for n in (1, 3, 10, 57):
            # at p = 1e-300 the n = 57 oracle alone takes seconds
            for p in (0.0103, 1 / 3, 0.9, 1.0) + ((1e-300,) if n <= 10 else ()):
                got = prob_data_loss(n, p, "exact-bigint").p_loss
                assert got == per_f_exact_loss(n, p), (n, p)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 80),
        p=st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-6, 1.0)),
    )
    def test_three_routes_agree(self, n, p):
        exact = prob_data_loss(n, p, "exact-bigint").p_loss
        assert prob_data_loss(n, p, "closed-form").p_loss == pytest.approx(exact, rel=1e-12)
        assert prob_data_loss(n, p, "log-domain").p_loss == pytest.approx(exact, rel=1e-10)

    def test_monotone_in_p(self):
        grid = [k / 100 for k in range(0, 101)]
        values = [prob_data_loss(4, p, "closed-form").p_loss for p in grid]
        for a, b in zip(values, values[1:]):
            assert b >= a

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            prob_data_loss(3, 0.1, "guesswork")

    @pytest.mark.parametrize(
        "n, p, message",
        [(0, 0.1, "n must be >= 1, got 0"), (3, math.nan, r"p must lie in \[0, 1\], got nan")],
    )
    def test_range_validation(self, n, p, message):
        with pytest.raises(ValueError, match=message):
            prob_data_loss(n, p)

    def test_closed_form_value_small_p(self):
        # 1 - (1 - p^3 - p^4 + p^7)^n by independent groups; p enters as the
        # exact rational value of the given float
        p = Fraction(0.1)
        expected = float(1 - (1 - p**3 - p**4 + p**7) ** 3)
        got = prob_data_loss(3, 0.1, "closed-form").p_loss
        assert got == expected


class TestLossCurve:
    def test_single_row_matches_point_computation(self):
        (row,) = loss_curve([10], 0.01)
        assert row.p_loss_exact == prob_data_loss(10, 0.01).p_loss
        assert row.p_loss_closed_form == prob_data_loss(10, 0.01, "closed-form").p_loss

    def test_zero_probability_curve(self):
        rows = loss_curve([3, 10, 20], 0.0)
        assert all(r.p_loss_exact == 0.0 for r in rows)

    def test_monotone_in_n(self):
        rows = loss_curve([10, 20, 40, 80, 100, 140, 200], 0.01)
        for a, b in zip(rows, rows[1:]):
            assert b.p_loss_exact >= a.p_loss_exact

    def test_near_linear_in_n_for_small_p(self):
        rows = loss_curve([10, 100], 0.01)
        assert rows[1].p_loss_exact == pytest.approx(10 * rows[0].p_loss_exact, rel=1e-2)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            loss_curve([], 0.1)
