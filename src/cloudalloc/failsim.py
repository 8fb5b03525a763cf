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
# A chunk's draws stream through one buffer of about this many float64s,
# filled row slab by row slab.  The generator fills in C order from one
# sequential stream, so the slabs together are exactly the block
# `rng.random((rows, 7n))` would return: estimates do not depend on it.
_SLAB_DRAWS = 1 << 16


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


def _all_columns(failed: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per row and per hosting set, whether every listed column failed."""
    out = failed[:, idx[:, 0]]
    for k in range(1, idx.shape[1]):
        out &= failed[:, idx[:, k]]
    return out


def _chunk_loss_count(
    seed: int, chunk: int, rows: int, n: int, p: float, mode: str,
    idx_a: np.ndarray | None, idx_b: np.ndarray | None,
) -> int:
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(chunk))
    m = MACHINES_PER_NODE * n
    owners = OWNER_MACHINES_PER_BLOCK * n
    slab = max(1, _SLAB_DRAWS // m)
    u = np.empty((min(slab, rows), m))
    failed = np.empty(u.shape, dtype=bool)
    losses = 0
    for start in range(0, rows, slab):
        r = min(slab, rows - start)
        rng.random(out=u[:r])
        f = np.less(u[:r], p, out=failed[:r])
        if mode == "group":
            # owner block i is columns 4(i-1)..4i-1, user block i the three
            # columns from 4n + 3(i-1): strided views pick one member each
            lost = f[:, 0:owners:4] & f[:, 1:owners:4] & f[:, 2:owners:4] & f[:, 3:owners:4]
            lost |= f[:, owners::3] & f[:, owners + 1 :: 3] & f[:, owners + 2 :: 3]
        else:
            lost = _all_columns(f, idx_a)
            lost |= _all_columns(f, idx_b)
        losses += int(np.count_nonzero(lost.any(axis=1)))
    return losses


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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
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
    masks = np.arange(1 << m, dtype=np.uint32)
    lost = np.zeros(masks.shape, dtype=bool)

    if mode == "group":
        # per-group 7-bit fatality table built from the real predicate
        table = np.array(
            [
                group_fatal({i for i in range(MACHINES_PER_NODE) if mask >> i & 1})
                for mask in range(1 << MACHINES_PER_NODE)
            ]
        )
        local = np.empty_like(masks)
        user = np.empty_like(masks)
        for block in range(1, n + 1):
            np.right_shift(masks, owner_machine_ids(block)[0], out=local)
            local &= 0xF
            np.right_shift(masks, user_machine_ids(n, block)[0], out=user)
            user &= 0x7
            user <<= 4
            local |= user
            lost |= table[local]
    elif mode == "structural":
        idx_a, idx_b = _host_index_arrays(build_placement(n))
        hit = np.empty_like(masks)
        for hosts in (*idx_a, *idx_b):
            hm = np.uint32(sum(1 << int(machine) for machine in hosts))
            np.bitwise_and(masks, hm, out=hit)
            lost |= hit == hm
    else:
        raise ValueError(f"unknown mode {mode!r}; expected one of {SCENARIO_MODES}")

    # popcount via 16-bit halves (numpy 1.x has no bitwise_count)
    pop16 = np.zeros(1 << 16, dtype=np.uint8)
    for bit in range(16):
        pop16[1 << bit : 2 << bit] = pop16[: 1 << bit] + 1
    lost_masks = masks[lost]
    fails = pop16[lost_masks & 0xFFFF] + pop16[lost_masks >> 16]
    counts = np.bincount(fails, minlength=m + 1)

    fp = Fraction(p)
    total = sum(
        int(c) * fp**f * (1 - fp) ** (m - f) for f, c in enumerate(counts) if c
    )
    return float(total)
