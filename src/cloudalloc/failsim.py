"""Monte Carlo and brute-force oracles for the loss combinatorics.

The generating-polynomial coefficients in `replication` presuppose a
fatal-set family: within one 7-machine group (4 owner-rack + 3
user-rack), data is lost iff all four owner machines fail or all three
user machines fail.  That family is a reconstruction -- it is the unique
monotone family whose per-size survivor counts reproduce the published
coefficient list -- and `verify_coefficients` re-derives the counts by
exhaustive enumeration to pin it down.

`scenario_loss` classifies explicit failure scenarios either under the
independent-group model or under the structural placement mapping of a
PlacementPlan (which shares machines across blocks, so the two need not
agree; any gap is measured, never assumed away).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .replication import (
    MACHINES_PER_NODE,
    OWNER_MACHINES_PER_BLOCK,
    USER_MACHINES_PER_BLOCK,
    PlacementPlan,
    build_placement,
    owner_machine_ids,
    user_machine_ids,
)

OWNER_LOCAL_IDS = frozenset(range(0, 4))
USER_LOCAL_IDS = frozenset(range(4, 7))

SCENARIO_MODES = ("group", "structural")

# Trials are generated in fixed-size chunks; chunk c of a run uses the
# Philox stream `key=seed, jumped c times`, so trial t's draws depend only
# on (seed, t // CHUNK, t % CHUNK) -- never on worker count or total trials.
_CHUNK_TRIALS = 4096


@dataclass(frozen=True)
class FailureScenario:
    """An explicit set of failed machine ids out of the 7n in a cluster."""

    n: int
    failed: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "failed", frozenset(self.failed))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        m = MACHINES_PER_NODE * self.n
        bad = [i for i in self.failed if not 0 <= i < m]
        if bad:
            raise ValueError(f"machine ids {bad} outside 0..{m - 1}")


@dataclass(frozen=True)
class McEstimate:
    n: int
    p: float
    trials: int
    seed: int
    mode: str
    p_hat: float
    half_width_95: float


def group_fatal(failed_in_group) -> bool:
    """Whether a failure subset of one 7-machine group destroys a half.

    Local ids 0-3 are the owner-rack machines of the group, 4-6 the
    user-rack machines; the group is fatal iff one of those two sides
    failed completely.
    """
    failed = frozenset(failed_in_group)
    if not all(0 <= i < MACHINES_PER_NODE for i in failed):
        raise ValueError(f"local ids must lie in 0..6, got {sorted(failed)}")
    return OWNER_LOCAL_IDS <= failed or USER_LOCAL_IDS <= failed


def verify_coefficients() -> tuple[int, ...]:
    """Non-fatal failure-subset counts of one group, by subset size.

    Enumerates all 2^7 subsets; the result must equal the survival
    coefficients (1, 7, 21, 34, 30, 12, 0, 0) for the generating
    polynomial to describe this fatal-set family.
    """
    counts = [0] * (MACHINES_PER_NODE + 1)
    for mask in range(1 << MACHINES_PER_NODE):
        subset = {i for i in range(MACHINES_PER_NODE) if mask >> i & 1}
        if not group_fatal(subset):
            counts[len(subset)] += 1
    return tuple(counts)


def _group_local_ids(n: int, block: int, failed: frozenset[int]) -> set[int]:
    local = set()
    for local_id, machine_id in enumerate(
        owner_machine_ids(block) + user_machine_ids(n, block)
    ):
        if machine_id in failed:
            local.add(local_id)
    return local


def scenario_loss(
    scenario: FailureScenario, mode: str = "group", plan: PlacementPlan | None = None
) -> bool:
    """Classify one failure scenario as data loss or not.

    group:      machines partition into n independent groups of 7 (owner
                block i + user block i); loss iff any group is fatal.
    structural: loss iff some (node, half) has every hosting machine of
                the placement failed.
    """
    if mode == "group":
        return any(
            group_fatal(_group_local_ids(scenario.n, i, scenario.failed))
            for i in range(1, scenario.n + 1)
        )
    if mode == "structural":
        if plan is None:
            plan = build_placement(scenario.n)
        elif plan.n != scenario.n:
            raise ValueError(f"plan is for n={plan.n}, scenario for n={scenario.n}")
        return any(
            all(m in scenario.failed for m in hosts)
            for hosts in plan.half_hosts().values()
        )
    raise ValueError(f"unknown mode {mode!r}; expected one of {SCENARIO_MODES}")


def _host_index_arrays(plan: PlacementPlan) -> tuple[np.ndarray, np.ndarray]:
    hosts = plan.half_hosts()
    idx_a = np.array([hosts[(node, "A")] for node in range(1, plan.n + 1)])
    idx_b = np.array([hosts[(node, "B")] for node in range(1, plan.n + 1)])
    return idx_a, idx_b


def _chunk_loss_count(
    seed: int, chunk: int, rows: int, n: int, p: float, mode: str,
    idx_a: np.ndarray | None, idx_b: np.ndarray | None,
) -> int:
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(chunk))
    failed = rng.random((rows, MACHINES_PER_NODE * n)) < p
    if mode == "group":
        owner = failed[:, : OWNER_MACHINES_PER_BLOCK * n]
        user = failed[:, OWNER_MACHINES_PER_BLOCK * n :]
        owner_fatal = owner.reshape(rows, n, OWNER_MACHINES_PER_BLOCK).all(axis=2)
        user_fatal = user.reshape(rows, n, USER_MACHINES_PER_BLOCK).all(axis=2)
        lost = (owner_fatal | user_fatal).any(axis=1)
    else:
        lost = failed[:, idx_a].all(axis=2).any(axis=1) | failed[:, idx_b].all(
            axis=2
        ).any(axis=1)
    return int(lost.sum())


def mc_estimate(
    n: int,
    p: float,
    trials: int,
    seed: int = 42,
    mode: str = "group",
    workers: int = 1,
) -> McEstimate:
    """Monte Carlo loss-probability estimate over independent machine failures.

    Each of the 7n machines fails independently with probability p per
    trial.  Trials are deterministic functions of (seed, trial index), so
    the estimate is identical for any worker count; workers only spread
    the fixed trial chunks over threads.  The confidence half-width is
    the 95% normal approximation.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if mode not in SCENARIO_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {SCENARIO_MODES}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    idx_a = idx_b = None
    if mode == "structural":
        idx_a, idx_b = _host_index_arrays(build_placement(n))

    n_chunks = (trials + _CHUNK_TRIALS - 1) // _CHUNK_TRIALS
    sizes = [
        min(_CHUNK_TRIALS, trials - c * _CHUNK_TRIALS) for c in range(n_chunks)
    ]

    def run_chunk(c: int) -> int:
        return _chunk_loss_count(seed, c, sizes[c], n, p, mode, idx_a, idx_b)

    if workers == 1:
        losses = sum(run_chunk(c) for c in range(n_chunks))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            losses = sum(pool.map(run_chunk, range(n_chunks)))

    p_hat = losses / trials
    half_width = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return McEstimate(
        n=n, p=p, trials=trials, seed=seed, mode=mode,
        p_hat=p_hat, half_width_95=half_width,
    )


def exhaustive_loss_probability(n: int, p: float, mode: str = "group") -> float:
    """Exact loss probability by enumerating all 2^(7n) failure scenarios.

    Each scenario is classified with the same fatal-set predicate as
    scenario_loss and weighted p^f (1-p)^(7n-f); the per-size loss counts
    are accumulated once and the final sum is exact (rational).  Cost is
    exponential -- n <= 3 (2^21 scenarios) is the intended desk scale.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > 3:
        raise ValueError(f"exhaustive enumeration is limited to n <= 3, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    m = MACHINES_PER_NODE * n

    if mode == "group":
        # per-group 7-bit fatality table built from the real predicate
        table = np.array(
            [
                group_fatal({i for i in range(MACHINES_PER_NODE) if mask >> i & 1})
                for mask in range(1 << MACHINES_PER_NODE)
            ]
        )
        masks = np.arange(1 << m, dtype=np.uint32)
        lost = np.zeros(masks.shape, dtype=bool)
        for block in range(1, n + 1):
            owner_shift = owner_machine_ids(block)[0]
            user_shift = user_machine_ids(n, block)[0]
            local = ((masks >> owner_shift) & 0xF) | (
                ((masks >> user_shift) & 0x7) << 4
            )
            lost |= table[local]
    elif mode == "structural":
        idx_a, idx_b = _host_index_arrays(build_placement(n))
        masks = np.arange(1 << m, dtype=np.uint32)
        lost = np.zeros(masks.shape, dtype=bool)
        for hosts in (*idx_a, *idx_b):
            sub = np.ones(masks.shape, dtype=bool)
            for machine in hosts:
                sub &= (masks >> int(machine) & 1).astype(bool)
            lost |= sub
    else:
        raise ValueError(f"unknown mode {mode!r}; expected one of {SCENARIO_MODES}")

    # popcount via 16-bit halves (numpy 1.x has no bit_count)
    pop16 = np.array([bin(v).count("1") for v in range(1 << 16)], dtype=np.uint8)
    fails = pop16[masks & 0xFFFF].astype(np.int64) + pop16[masks >> 16]
    counts = np.bincount(fails[lost], minlength=m + 1)

    fp = Fraction(p)
    total = sum(
        int(c) * fp**f * (1 - fp) ** (m - f) for f, c in enumerate(counts) if c
    )
    return float(total)
