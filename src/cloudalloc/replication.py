"""Cyclic replica placement and the exact data-loss probability engine.

Each of n nodes is replicated three times: a full primary copy P_i plus
two half copies S1_i and S2_i.  Blocks are formed cyclically on two
racks -- owner block i holds {P_i, S1_{i+1}, S2_{i+2}} on four machines
(the primary is split across two), user block i holds
{S1_i, S2_{i+1}, S1_{i+2}} on three -- giving 7n machines in total.  One
layout table states this; `build_placement` and `half_host_ids` walk it.

A group loses data iff its owner block or its user block fails whole
(`GROUP_SET_SIZES`; failsim checks that family by enumeration), so its
survival polynomial is prod_s ((1+x)^s - x^s) = 1 + 7x + ... + 12x^5, and
the n-th power, whose coefficients count the failure subsets that destroy
no half, comes from J. C. P. Miller's power recurrence, exact in integers
and cached per n.

Three loss routes must agree.  `closed-form`, 1 - prod_s (1 - p^s)^n in
exact rationals, is the production route; `exact-bigint` (the double sum
over failure counts in big integers, evaluated by binary splitting) and
`log-domain` (the same sum in log space) are independent oracles that
share only the survival polynomial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

# The data halves each replica kind puts on its block's machines, in
# entry order: a primary is split across two machines, S1 hosts half A
# and S2 half B.
_KIND_HALVES = {"P": ("A", "B"), "S1": ("A",), "S2": ("B",)}
# Block i of each rack as (replica kind, node offset) entries, nodes mod n.
# Machine ids count up through the owner rack's blocks, then the user
# rack's, one id per half.
_RACK_LAYOUT = (
    ("owner", (("P", 0), ("S1", 1), ("S2", 2))),
    ("user", (("S1", 0), ("S2", 1), ("S1", 2))),
)
OWNER_MACHINES_PER_BLOCK, USER_MACHINES_PER_BLOCK = (
    sum(len(_KIND_HALVES[kind]) for kind, _ in entries) for _, entries in _RACK_LAYOUT
)
# The fatal sets of one group: data is lost iff either block fails whole.
GROUP_SET_SIZES = (OWNER_MACHINES_PER_BLOCK, USER_MACHINES_PER_BLOCK)
MACHINES_PER_NODE = sum(GROUP_SET_SIZES)


def _group_survival() -> tuple[int, ...]:
    """prod_s ((1+x)^s - x^s) over GROUP_SET_SIZES, whose x^s terms cancel:
    coefficient f counts the f-machine failure subsets of one group that
    fail no set whole, (1, 7, 21, 34, 30, 12)."""
    coeffs = [1]
    for s in GROUP_SET_SIZES:
        coeffs = [sum(math.comb(s, f - i) * c for i, c in enumerate(coeffs) if 0 <= f - i < s)
                  for f in range(len(coeffs) + s - 1)]
    return tuple(coeffs)


BASE_COEFFS = _group_survival()

LOSS_METHODS = ("exact-bigint", "log-domain", "closed-form")

# The exact-bigint sum's operands reach m log2(d) bits (d the denominator
# of p), and binary splitting hands its big products to Karatsuba, so its
# time grows about as m^1.7: 0.019 s at n = 400 and 0.09 s at n = 1000 for
# p = 0.0103, but 0.7-1.2 s at n = 400 for p = 1e-300 or 5e-324, where d
# has about 1000 bits (shared 2-vCPU machine, Python 3.11).  Every n the
# report and the acceptance gate use (<= 200) stays inside the budget.
_EXACT_BIGINT_MAX_MACHINES = MACHINES_PER_NODE * 400
# A placement, or a Monte Carlo run's hosting sets, holds per-node tuples of
# labels and machine ids: at this many nodes build_placement peaked at 47 MiB,
# and the group and structural hosting sets, built without a plan, at 22 and
# 24 MiB (tracemalloc, Python 3.11).
_MAX_PLACEMENT_NODES = 50_000


@dataclass(frozen=True)
class Block:
    rack: str
    index: int
    entries: tuple[str, ...]   # replica labels: "P1", "S1_2", "S2_3"
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


def build_placement(n: int) -> PlacementPlan:
    """Cyclic placement for 3 <= n <= 50 000 nodes: 7n machines across two racks.

    The primary copy of node i is split into halves A and B on two
    dedicated machines; every S1 entry hosts half A of its node and
    every S2 entry half B, so no machine ever stores more than 50% of a
    node's chunk set.
    """
    check_placement_minimum(n)
    check_placement_nodes(n)
    # one label per replica, shared by the blocks that hold it:
    # labels[kind][i] names the copy of node i + 1
    labels = {
        kind: [f"{kind}{i}" if kind == "P" else f"{kind}_{i}" for i in range(1, n + 1)]
        for kind in _KIND_HALVES
    }
    racks, machine = [], 0
    # a group's fatal sets are its two blocks, so their sizes are the blocks'
    for (rack, entries), size in zip(_RACK_LAYOUT, GROUP_SET_SIZES):
        blocks = []
        for i in range(n):
            members = tuple(labels[kind][(i + offset) % n] for kind, offset in entries)
            blocks.append(Block(rack, i + 1, members, tuple(range(machine, machine + size))))
            machine += size
        racks.append(tuple(blocks))
    return PlacementPlan(n, *racks)


def half_host_ids(n: int) -> tuple[list[list[int]], list[list[int]]]:
    """The machine ids hosting each node's half A (four) and half B (three)
    in build_placement(n), in node order: the one derivation of the hosts.
    The walk meets the ids in ascending order, so each list comes sorted."""
    check_placement_minimum(n)
    check_placement_nodes(n)
    hosts = {half: [[] for _ in range(n)] for half in ("A", "B")}
    machine = 0
    for _, entries in _RACK_LAYOUT:
        # per machine of a block, its node offset and the host lists of its half
        slots = [
            (offset, hosts[half]) for kind, offset in entries for half in _KIND_HALVES[kind]
        ]
        for i in range(n):
            for offset, lists in slots:
                lists[(i + offset) % n].append(machine)
                machine += 1
    return hosts["A"], hosts["B"]


# The input rules of the loss engine, shared by its oracles in failsim.
def check_nodes(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def check_placement_minimum(n: int) -> None:
    """A cyclic placement puts copies of three consecutive nodes in a block,
    so it needs three nodes."""
    if n < 3:
        raise ValueError(f"placement requires n >= 3 nodes, got {n}")


def check_placement_nodes(n: int) -> None:
    """Refuse a node count whose per-node tuples would not fit in about
    100 MiB, before any is built."""
    if n > _MAX_PLACEMENT_NODES:
        raise ValueError(
            f"n = {n} nodes exceed the placement limit of {_MAX_PLACEMENT_NODES} "
            f"(about 100 MiB of per-node machine-id tuples)"
        )


def check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")


@functools.lru_cache(maxsize=64)
def loss_polynomial(n: int) -> tuple[int, ...]:
    """Exact integer coefficients c_0..c_7n of the n-th power of the base
    polynomial (zero past degree 5n), cached per n.

    J. C. P. Miller's recurrence for powers of a power series (Knuth,
    TAOCP Vol. 2, 4.7): with c_0 = 1,
    k c_k = sum_{j=1..5} ((n + 1) j - k) a_j c_{k-j}.  The division by k
    is exact because a_0 = 1, and is checked.
    """
    check_nodes(n)
    # The j-sum unrolled over the five base coefficients, with a window
    # c1..c5 = c_{k-1}..c_{k-5} that is zero before c_0.
    _, a1, a2, a3, a4, a5 = BASE_COEFFS
    n1 = n + 1
    c1, c2, c3, c4, c5 = 1, 0, 0, 0, 0
    coeffs = [1]
    for k in range(1, MACHINES_PER_NODE * n + 1):
        s = ((n1 - k) * a1 * c1 + (2 * n1 - k) * a2 * c2 + (3 * n1 - k) * a3 * c3
             + (4 * n1 - k) * a4 * c4 + (5 * n1 - k) * a5 * c5)
        c, r = divmod(s, k)
        if r:
            raise ArithmeticError(f"inexact Miller step at n={n}, k={k}")
        coeffs.append(c)
        c1, c2, c3, c4, c5 = c, c1, c2, c3, c4
    return tuple(coeffs)


def prob_no_loss(n: int, f: int) -> float:
    """Probability that f uniformly random machine failures destroy no half:
    coeff(x^f) / C(7n, f) (exact ratio, floated)."""
    check_nodes(n)
    m = MACHINES_PER_NODE * n
    if not 0 <= f <= m:
        raise ValueError(f"f must lie in [0, {m}], got {f}")
    return float(Fraction(loss_polynomial(n)[f], math.comb(m, f)))


def prob_f_failures(n: int, f: int, p: float) -> float:
    """Binomial probability of exactly f failures among 7n machines: the
    weight that pairs with `prob_no_loss` in the loss sum (test reference)."""
    check_nodes(n)
    check_probability(p)
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
    """Yield w_f = C(7n, f) - c_f for f = 0..7n, the binomial stepped up
    with f."""
    m = MACHINES_PER_NODE * n
    comb = 1
    for f, c_f in enumerate(loss_polynomial(n)):
        yield comb - c_f
        comb = comb * (m - f) // (f + 1)


def _split_sum(weights, a: int, b: int, length: int) -> int:
    """Binary splitting of T = sum_i w_i a^i b^(length-1-i) over the next
    `length` items of the iterator `weights`.  Halves combine as
    T = T_left b^len_right + a^len_left T_right, so the big products pair
    operands of similar size; the leaves draw their weights in order, so no
    list of them is kept.

    The sublengths of one tree level take at most two values, so each power
    is built once per call: a^k and b^k sit in per-call dicts keyed by k,
    filled by halving k, whose halves are again lengths of the tree.  Only
    the a^len_left and b^len_right the combines use are built; the root's
    a^length and b^length never are."""
    a_pow, b_pow = {1: a}, {1: b}

    def power(memo: dict[int, int], k: int) -> int:
        if k not in memo:
            memo[k] = power(memo, k // 2) * power(memo, k - k // 2)
        return memo[k]

    def split(length: int) -> int:
        if length == 1:
            return next(weights)
        half = length // 2
        t_left = split(half)
        t_right = split(length - half)
        return t_left * power(b_pow, length - half) + power(a_pow, half) * t_right

    return split(length)


def _exact_loss(n: int, p: float) -> LossResult:
    # Work over the common denominator d^(7n) with p = a/d exactly, so the
    # whole double sum stays in integer arithmetic until the final division:
    # total = sum_{f=0..7n} w_f a^f b^(7n-f) by binary splitting.
    _check_exact_bigint_budget(n)
    m = MACHINES_PER_NODE * n
    fp = Fraction(p)
    a, d = fp.numerator, fp.denominator
    total = _split_sum(_loss_weights(n), a, d - a, m + 1)
    return LossResult(p_loss=total / d**m)


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
    comb = 1  # C(m, f), stepped up with f
    for f, c_f in enumerate(coeffs):
        weight = comb - c_f
        if weight:
            log_binom = lg_m1 - math.lgamma(f + 1) - math.lgamma(m - f + 1)
            # int true division rounds the exact ratio (C - c)/C once
            log_weight = math.log(weight / comb)
            terms.append(math.exp(log_binom + log_weight + f * log_p + (m - f) * log_q))
        comb = comb * (m - f) // (f + 1)
    return LossResult(p_loss=math.fsum(terms))


def _closed_form_loss(n: int, p: float) -> LossResult:
    # One group survives iff none of its fatal sets fails whole, and its
    # sets are disjoint, as the groups are.  Evaluated as an exact rational
    # to keep the tiny-probability regime meaningful.
    fp = Fraction(p)
    survive = math.prod(1 - fp**s for s in GROUP_SET_SIZES)
    return LossResult(p_loss=float(1 - survive**n))


def prob_data_loss(n: int, p: float, method: str) -> LossResult:
    """Probability that random machine failures (each machine independently
    fails with probability p) destroy every copy of some data half.

    closed-form    -- 1 - prod_s (1 - p^s)^n, the independent-group
                      reduction in exact rationals; the production route.
    exact-bigint   -- oracle: the sum over failure counts f = 0..7n, each
                      weighted by C(7n, f) less its survival coefficient,
                      in exact integers, evaluated by binary splitting so
                      the big products pair operands of similar size;
                      refused (ValueError) above n = 400.
    log-domain     -- oracle: the same sum in log space with compensated
                      summation.

    Both float results of the exact routes are correctly rounded values of
    the same rational, so exact-bigint and closed-form agree bit for bit.
    """
    check_nodes(n)
    check_probability(p)
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
        check_nodes(n)
        _check_exact_bigint_budget(n)
    check_probability(p)
    return [
        LossCurveRow(
            n=n,
            p=p,
            p_loss_exact=prob_data_loss(n, p, "exact-bigint").p_loss,
            p_loss_closed_form=prob_data_loss(n, p, "closed-form").p_loss,
        )
        for n in n_list
    ]
