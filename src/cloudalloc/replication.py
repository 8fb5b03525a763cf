"""Cyclic replica placement and the exact data-loss probability engine.

Each of n nodes is replicated three times: a full primary copy P_i plus
two half copies S1_i and S2_i.  Blocks are formed cyclically on two
racks -- owner block i holds {P_i, S1_{i+1}, S2_{i+2}} on four machines
(the primary is split across two), user block i holds
{S1_i, S2_{i+1}, S1_{i+2}} on three -- giving 7n machines in total.

Loss probabilities come from the survival generating polynomial
(1 + 7x + 21x^2 + 34x^3 + 30x^4 + 12x^5)^n, whose coefficients count the
failure subsets of a 7-machine group that destroy no half; see failsim
for the brute-force reconstruction of those counts.  The polynomial's
coefficients come from J. C. P. Miller's power recurrence, exact in
integers and cached per n.

Three loss routes must agree.  `closed-form`, 1 - (1 - p^3 - p^4 + p^7)^n
in exact rationals, is the production route; `exact-bigint` (the double
sum over failure counts in big integers, evaluated by binary splitting) and
`log-domain` (the same sum in log space) are independent oracles that
share only the survival polynomial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

# Survival coefficients (1, 7, 21, 34, 30, 12) of one 7-machine group:
# a_f counts the f-machine failure subsets that destroy no data half.
# a1 = C(7,6) and a2 = C(7,5) (one or two failures are always safe),
# a3 = C(7,4) - 1 (only the all-user triple is fatal),
# a4 = C(7,3) - C(4,3) - 1, a5 = C(7,2) - C(4,2) - C(3,2), and every
# subset of six or more machines loses a half.
BASE_COEFFS = (
    1,
    math.comb(7, 6),                                  # 7
    math.comb(7, 5),                                  # 21
    math.comb(7, 4) - 1,                              # 34
    math.comb(7, 3) - math.comb(4, 3) - 1,            # 30
    math.comb(7, 2) - math.comb(4, 2) - math.comb(3, 2),  # 12
)

MACHINES_PER_NODE = 7
OWNER_MACHINES_PER_BLOCK = 4
USER_MACHINES_PER_BLOCK = 3

LOSS_METHODS = ("exact-bigint", "log-domain", "closed-form")

# The exact-bigint sum's operands reach m log2(d) bits (d the denominator
# of p), and binary splitting hands its big products to Karatsuba, so its
# time grows about as m^1.7: 0.026 s at n = 400 and 0.12 s at n = 1000 for
# p = 0.0103, but 1.1-2.0 s at n = 400 for p = 1e-300 or 5e-324, where d
# has about 1000 bits (shared 2-vCPU machine, Python 3.11).  Every n the
# report and the acceptance gate use (<= 200) stays inside the budget.
_EXACT_BIGINT_MAX_MACHINES = 7 * 400


@dataclass(frozen=True)
class ReplicaLabel:
    kind: str   # "P", "S1" or "S2"
    node: int   # 1-based node index

    def __str__(self) -> str:
        return f"{self.kind}{self.node}" if self.kind == "P" else f"{self.kind}_{self.node}"


@dataclass(frozen=True)
class Block:
    rack: str
    index: int
    entries: tuple[ReplicaLabel, ...]
    machine_ids: tuple[int, ...]


def owner_machine_ids(block: int) -> tuple[int, ...]:
    """Machine ids of owner block `block` (1-based): four consecutive slots."""
    base = OWNER_MACHINES_PER_BLOCK * (block - 1)
    return tuple(range(base, base + OWNER_MACHINES_PER_BLOCK))


def user_machine_ids(n: int, block: int) -> tuple[int, ...]:
    """Machine ids of user block `block` (1-based): three slots after the owner rack."""
    base = OWNER_MACHINES_PER_BLOCK * n + USER_MACHINES_PER_BLOCK * (block - 1)
    return tuple(range(base, base + USER_MACHINES_PER_BLOCK))


@dataclass(frozen=True)
class PlacementPlan:
    n: int
    owner_blocks: tuple[Block, ...]
    user_blocks: tuple[Block, ...]

    def half_hosts(self) -> dict[tuple[int, str], tuple[int, ...]]:
        """Machine ids hosting each (node, half) pair.  A block's entries
        put their halves (`_KIND_HALVES`) on its machines in entry order,
        one half per machine."""
        hosts: dict[tuple[int, str], list[int]] = {}
        for b in self.owner_blocks + self.user_blocks:
            halves = [(e.node, h) for e in b.entries for h in _KIND_HALVES[e.kind]]
            for machine_id, half in zip(b.machine_ids, halves, strict=True):
                hosts.setdefault(half, []).append(machine_id)
        return {k: tuple(sorted(v)) for k, v in sorted(hosts.items())}


# The data halves each replica kind puts on its block's machines, in
# entry order: a primary is split across two machines, S1 hosts half A
# and S2 half B.
_KIND_HALVES = {"P": ("A", "B"), "S1": ("A",), "S2": ("B",)}


def build_placement(n: int) -> PlacementPlan:
    """Cyclic placement for n >= 3 nodes: 7n machines across two racks.

    The primary copy of node i is split into halves A and B on two
    dedicated machines; every S1 entry hosts half A of its node and
    every S2 entry half B, so no machine ever stores more than 50% of a
    node's chunk set.
    """
    if n < 3:
        raise ValueError(f"placement requires n >= 3 nodes, got {n}")

    # one label per replica, shared by the blocks that hold it:
    # P[i], S1[i] and S2[i] are the copies of node i + 1
    P, S1, S2 = ([ReplicaLabel(kind, i) for i in range(1, n + 1)] for kind in ("P", "S1", "S2"))
    owner_blocks = tuple(
        Block("owner", i + 1, (P[i], S1[(i + 1) % n], S2[(i + 2) % n]), owner_machine_ids(i + 1))
        for i in range(n)
    )
    user_blocks = tuple(
        Block("user", i + 1, (S1[i], S2[(i + 1) % n], S1[(i + 2) % n]), user_machine_ids(n, i + 1))
        for i in range(n)
    )
    return PlacementPlan(n, owner_blocks, user_blocks)


def render_plan(plan: PlacementPlan) -> str:
    """One block per line: rack, index, member labels, machine ids."""
    lines = []
    for block in plan.owner_blocks + plan.user_blocks:
        members = " ".join(str(e) for e in block.entries)
        ids = ",".join(str(i) for i in block.machine_ids)
        lines.append(f"{block.rack} {block.index} {members} machines={ids}")
    return "\n".join(lines) + "\n"


# The input rules of the loss engine, shared by its oracles in failsim.
def _check_nodes(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")


@functools.lru_cache(maxsize=64)
def loss_polynomial(n: int) -> tuple[int, ...]:
    """Exact integer coefficients of the n-th power of the base polynomial
    (length 5n + 1), cached per n.

    J. C. P. Miller's recurrence for powers of a power series (Knuth,
    TAOCP Vol. 2, 4.7): with c_0 = 1,
    k c_k = sum_{j=1..5} ((n + 1) j - k) a_j c_{k-j}.  The division by k
    is exact because a_0 = 1, and is checked.
    """
    _check_nodes(n)
    deg = len(BASE_COEFFS) - 1
    coeffs = [1]
    for k in range(1, deg * n + 1):
        s = 0
        for j in range(1, min(k, deg) + 1):
            s += ((n + 1) * j - k) * BASE_COEFFS[j] * coeffs[k - j]
        c, r = divmod(s, k)
        if r:
            raise ArithmeticError(f"inexact Miller step at n={n}, k={k}")
        coeffs.append(c)
    return tuple(coeffs)


def prob_no_loss(n: int, f: int) -> float:
    """Probability that f uniformly random machine failures destroy no half:
    coeff(x^f) / C(7n, f) for f <= 5n, zero beyond (exact ratio, floated)."""
    _check_nodes(n)
    if not 0 <= f <= MACHINES_PER_NODE * n:
        raise ValueError(f"f must lie in [0, {MACHINES_PER_NODE * n}], got {f}")
    if f > 5 * n:
        return 0.0
    coeffs = loss_polynomial(n)
    return float(Fraction(coeffs[f], math.comb(MACHINES_PER_NODE * n, f)))


def prob_f_failures(n: int, f: int, p: float) -> float:
    """Binomial probability of exactly f failures among 7n machines: the
    weight that pairs with `prob_no_loss` in the loss sum (test reference)."""
    _check_nodes(n)
    _check_probability(p)
    m = MACHINES_PER_NODE * n
    if not 0 <= f <= m:
        raise ValueError(f"f must lie in [0, {m}], got {f}")
    return math.comb(m, f) * p**f * (1.0 - p) ** (m - f)


@dataclass(frozen=True)
class LossResult:
    p_loss: float


def _check_exact_bigint_budget(n: int) -> None:
    if MACHINES_PER_NODE * n > _EXACT_BIGINT_MAX_MACHINES:
        raise ValueError(
            f"exact-bigint is limited to 7n <= {_EXACT_BIGINT_MAX_MACHINES} machines, "
            f"got n = {n}; use the closed-form route for larger n"
        )


def _loss_weights(n: int):
    """Yield w_f = C(7n, f) - c_f for f = 3..7n, the binomial stepped up
    with f."""
    m = MACHINES_PER_NODE * n
    coeffs = loss_polynomial(n)
    comb = math.comb(m, 3)
    for f in range(3, m + 1):
        yield comb - (coeffs[f] if f <= 5 * n else 0)
        comb = comb * (m - f) // (f + 1)


def _split_sum(weights, a: int, b: int, length: int) -> tuple[int, int, int]:
    """Binary splitting of T = sum_i w_i a^i b^(length-1-i) over the next
    `length` items of the iterator `weights`: returns (T, a^length,
    b^length).  Halves combine as T = T_left b^len_right + a^len_left T_right,
    so the big products pair operands of similar size; the leaves draw their
    weights in order, so no list of them is kept."""
    if length == 1:
        return next(weights), a, b
    half = length // 2
    t_left, a_left, b_left = _split_sum(weights, a, b, half)
    t_right, a_right, b_right = _split_sum(weights, a, b, length - half)
    return t_left * b_right + a_left * t_right, a_left * a_right, b_left * b_right


def _exact_loss(n: int, p: float) -> LossResult:
    # Work over the common denominator d^(7n) with p = a/d exactly, so the
    # whole double sum stays in integer arithmetic until the final division:
    # S = sum_{f=3..7n} w_f a^(f-3) b^(7n-f) by binary splitting, then
    # total = a^3 S.
    _check_exact_bigint_budget(n)
    m = MACHINES_PER_NODE * n
    fp = Fraction(p)
    a, d = fp.numerator, fp.denominator
    total, _, _ = _split_sum(_loss_weights(n), a, d - a, m - 2)
    return LossResult(p_loss=total * a**3 / d**m)


def _log_domain_loss(n: int, p: float) -> LossResult:
    # floats, not p itself: an int p passes validation
    if p == 0.0:
        return LossResult(0.0)
    if p == 1.0:
        return LossResult(1.0)
    m = MACHINES_PER_NODE * n
    coeffs = loss_polynomial(n)
    log_p = math.log(p)
    log_q = math.log1p(-p)
    lg_m1 = math.lgamma(m + 1)

    terms = []
    comb = math.comb(m, 3)  # C(m, f), stepped up with f
    for f in range(3, m + 1):
        c_f = coeffs[f] if f <= 5 * n else 0
        weight = comb - c_f
        if weight:
            log_binom = lg_m1 - math.lgamma(f + 1) - math.lgamma(m - f + 1)
            # int true division rounds the exact ratio (C - c)/C once
            log_weight = math.log(weight / comb)
            terms.append(math.exp(log_binom + log_weight + f * log_p + (m - f) * log_q))
        comb = comb * (m - f) // (f + 1)
    return LossResult(p_loss=math.fsum(terms))


def _closed_form_loss(n: int, p: float) -> LossResult:
    # One group dies iff its owner quadruple or user triple fails whole:
    # P(fatal) = p^4 + p^3 - p^7, groups are independent.  Evaluated as an
    # exact rational to keep the tiny-probability regime meaningful.
    fp = Fraction(p)
    survive = 1 - fp**3 - fp**4 + fp**7
    return LossResult(p_loss=float(1 - survive**n))


def prob_data_loss(n: int, p: float, method: str = "exact-bigint") -> LossResult:
    """Probability that random machine failures (each machine independently
    fails with probability p) destroy every copy of some data half.

    closed-form    -- 1 - (1 - p^3 - p^4 + p^7)^n, the independent-group
                      reduction in exact rationals; the production route.
    exact-bigint   -- oracle: the double sum over failure counts f = 3..5n
                      (weighted by the survival polynomial) and f = 5n+1..7n,
                      in exact integers, evaluated by binary splitting so
                      the big products pair operands of similar size;
                      refused (ValueError) above n = 400.
    log-domain     -- oracle: the same sum in log space with compensated
                      summation.

    Both float results of the exact routes are correctly rounded values of
    the same rational, so exact-bigint and closed-form agree bit for bit.
    """
    _check_nodes(n)
    _check_probability(p)
    if method == "exact-bigint":
        return _exact_loss(n, p)
    if method == "log-domain":
        return _log_domain_loss(n, p)
    if method == "closed-form":
        return _closed_form_loss(n, p)
    raise ValueError(f"unknown method {method!r}; expected one of {LOSS_METHODS}")


@dataclass(frozen=True)
class LossCurveRow:
    n: int
    p: float
    p_loss_exact: float
    p_loss_closed_form: float


def loss_curve(n_list, p: float) -> list[LossCurveRow]:
    """Data-loss probability per cluster size, plot-ready.  Every n and p is
    checked, and n held to the exact-bigint budget, before the first sum."""
    n_list = list(n_list)
    if not n_list:
        raise ValueError("n_list must be nonempty")
    for n in n_list:
        _check_nodes(n)
        _check_exact_bigint_budget(n)
    _check_probability(p)
    return [
        LossCurveRow(
            n=n,
            p=p,
            p_loss_exact=prob_data_loss(n, p, "exact-bigint").p_loss,
            p_loss_closed_form=prob_data_loss(n, p, "closed-form").p_loss,
        )
        for n in n_list
    ]
