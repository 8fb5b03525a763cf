"""Monte Carlo and brute-force oracles for the loss combinatorics.

The generating-polynomial coefficients in `replication` presuppose a
fatal-set family: within one 7-machine group (4 owner-rack + 3
user-rack), data is lost iff all four owner machines fail or all three
user machines fail.  That family is a reconstruction -- it is the unique
monotone family whose per-size survivor counts reproduce the published
coefficient list -- and `verify_coefficients` re-derives the counts by
exhaustive enumeration of one group to pin it down.

Each scenario mode is a hosting-set family of n quadruples and n triples
(`_hosting_sets`): the groups, or the hosts of each node's half A and B in
a PlacementPlan, which shares machines across blocks, so single scenarios
may disagree (measured, never assumed away).  Monte Carlo, exhaustive
enumeration and the coefficient check feed boolean failure blocks, random
or enumerated, to one predicate (`_lost_rows`): some set failed
completely.  `scenario_loss` is its row-by-row reference, a set-inclusion
test over the same family."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import strides
from .replication import (
    MACHINES_PER_NODE,
    build_placement,
    check_nodes,
    check_probability,
    owner_machine_ids,
    user_machine_ids,
)

SCENARIO_MODES = ("group", "structural")

# Trials are generated in fixed-size chunks; chunk c of a run reads the
# Philox stream `key=seed` from counter c * 2**128, the state `jumped(c)`
# reaches, opened there directly, so trial t's outcome depends only on
# (seed, t // CHUNK, t % CHUNK) -- never on worker count or total trials.
_CHUNK_TRIALS = 4096
# A chunk's machine-trial cells are the uint16 view of one sequential
# `random_raw` stream, four cells per 64-bit word, read row-major as the
# (rows, 7n) block.  They stream through slabs of at most about this many
# cells, a multiple of four rows each, so no word is split between slabs
# and the slabs together are exactly that block: estimates do not depend on
# it.
_SLAB_CELLS = 1 << 16
# A cell equal to the threshold (a tie) draws a double, in row-major order,
# from a second stream opened at the chunk's counter + 2**127 (the state
# `jumped(c).advance(2**127)` reaches): half way to the next chunk's counter,
# so disjoint from the cell words of every chunk.  A slab without a tie draws
# nothing from it.
_TIE_ADVANCE = 2**127
_Z95 = 1.96
# `workers` caps the processes that run strided shares of the chunks; a cap
# above this is refused as a usage error, whatever the usable CPUs.
_MAX_WORKERS = 64
# Exhaustive enumeration walks the 2^(7n) scenarios in blocks of
# 2^_BLOCK_BITS rows; the block size bounds memory, never the result.
_BLOCK_BITS = 16


@dataclass(frozen=True)
class McEstimate:
    n: int
    p: float
    trials: int
    seed: int
    mode: str
    p_hat: float
    half_width_95: float    # Wald (normal approximation); 0 at p_hat 0 or 1
    ci95_low: float         # Wilson score interval
    ci95_high: float


def _hosting_sets(n: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """The n quadruples and n triples of machine ids that lose data when
    every member fails; the one place a mode is read.

    group:      owner block i and user block i (any n >= 1).
    structural: the hosts of each node's half A (4 machines) and half B
                (3 machines) in build_placement(n).
    """
    nodes = range(1, n + 1)
    if mode == "group":
        quads = [owner_machine_ids(i) for i in nodes]
        triples = [user_machine_ids(n, i) for i in nodes]
    elif mode == "structural":
        hosts = build_placement(n).half_hosts()
        quads = [hosts[(i, "A")] for i in nodes]
        triples = [hosts[(i, "B")] for i in nodes]
    else:
        raise ValueError(f"unknown mode {mode!r}; expected one of {SCENARIO_MODES}")
    return np.array(quads), np.array(triples)


def scenario_loss(n: int, failed, mode: str) -> bool:
    """Whether one failure scenario, the machine ids in `failed`, loses
    data: some hosting set of the mode lies inside it.  The row-by-row
    reference for `_lost_rows`, by plain set inclusion."""
    check_nodes(n)
    failed = frozenset(failed)
    m = MACHINES_PER_NODE * n
    bad = [i for i in failed if not 0 <= i < m]
    if bad:
        raise ValueError(f"machine ids {bad} outside 0..{m - 1}")
    return any(
        failed.issuperset(hosts)
        for sets in _hosting_sets(n, mode)
        for hosts in sets.tolist()
    )


def _member_columns(sets: np.ndarray) -> list[slice | np.ndarray]:
    """One column reader per member position of a family of sets: a slice,
    which numpy reads as a view, where the ids step evenly, else the ids
    themselves for a gather."""
    columns = []
    for ids in sets.T:
        step = int(ids[1] - ids[0]) if len(ids) > 1 else 1
        stop = int(ids[0]) + step * len(ids)
        if step > 0 and np.array_equal(ids, np.arange(ids[0], stop, step)):
            columns.append(slice(int(ids[0]), stop, step))
        else:
            columns.append(ids)
    return columns


def _all_failed(failed: np.ndarray, columns: list[slice | np.ndarray]) -> np.ndarray:
    """Per row and per set, whether every member column failed."""
    out = failed[:, columns[0]] & failed[:, columns[1]]
    for col in columns[2:]:
        out &= failed[:, col]
    return out


def _failed_slabs(seed: int, chunk: int, rows: int, machines: int, p: float):
    """A chunk's machine failures as consecutive row slabs of its (rows,
    machines) block, each yielded as a view of one reused buffer.

    A 16-bit cell fails iff it is below head = floor(p * 2^16).  A tie (a
    cell equal to head, probability 2^-16) fails iff its double from the tie
    stream is below frac = p * 2^16 - head; both parts are exact, so a cell
    fails with probability p to within 2^-69, never at p = 0 and always at
    p = 1 (head = 2^16).
    """
    counter = chunk << 128
    cells_source = np.random.Philox(key=seed, counter=counter)
    ties = np.random.Generator(np.random.Philox(key=seed, counter=counter + _TIE_ADVANCE))
    scaled = math.ldexp(p, 16)
    head = math.floor(scaled)
    frac = scaled - head
    slab = max(4, _SLAB_CELLS // (4 * machines) * 4)
    failed = np.empty((min(slab, rows), machines), dtype=bool)
    for start in range(0, rows, slab):
        r = min(slab, rows - start)
        words = cells_source.random_raw(-(-r * machines // 4))
        cells = words.view(np.uint16)[: r * machines].reshape(r, machines)
        f = np.less(cells, head, out=failed[:r])
        if frac:
            tied = np.flatnonzero(cells == head)
            if tied.size:
                f.flat[tied] = ties.random(tied.size) < frac
        yield f


def _lost_rows(
    failed: np.ndarray, families: list[list[slice | np.ndarray]]
) -> np.ndarray:
    """Per row of a failure block, whether some set of some family failed
    whole."""
    lost = _all_failed(failed, families[0])
    for columns in families[1:]:
        lost |= _all_failed(failed, columns)
    return lost.any(axis=1)


def _wilson_95(losses: int, trials: int) -> tuple[float, float]:
    """The 95% Wilson score interval of losses / trials (Wilson 1927); its
    ends are exactly 0 and 1 where no or every trial was lost."""
    z2 = _Z95 * _Z95
    denom = trials + z2
    center = (losses + z2 / 2) / denom
    half = _Z95 * math.sqrt(losses * (trials - losses) / trials + z2 / 4) / denom
    low = 0.0 if losses == 0 else center - half
    high = 1.0 if losses == trials else center + half
    return low, high


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
    the estimate is identical for any worker count: `workers` (1..64) only
    caps the processes that `strides` deals strided shares of the trial
    chunks to.  half_width_95 is the 95% normal (Wald) half-width;
    ci95_low and ci95_high are the 95% Wilson score interval, which stays
    open at p_hat 0 and 1.
    """
    check_nodes(n)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    check_probability(p)
    if not 1 <= workers <= _MAX_WORKERS:
        raise ValueError(f"workers must lie in 1..{_MAX_WORKERS}, got {workers}")
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
    families = [_member_columns(sets) for sets in _hosting_sets(n, mode)]
    machines = MACHINES_PER_NODE * n

    n_chunks = (trials + _CHUNK_TRIALS - 1) // _CHUNK_TRIALS
    k = strides.width(min(workers, n_chunks))

    def stride(w: int) -> int:
        losses = 0
        for c in range(w, n_chunks, k):
            rows = min(_CHUNK_TRIALS, trials - c * _CHUNK_TRIALS)
            for f in _failed_slabs(seed, c, rows, machines, p):
                losses += int(np.count_nonzero(_lost_rows(f, families)))
        return losses

    losses = sum(strides.deal(stride, k))
    p_hat = losses / trials
    half_width = _Z95 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
    low, high = _wilson_95(losses, trials)
    return McEstimate(
        n=n, p=p, trials=trials, seed=seed, mode=mode,
        p_hat=p_hat, half_width_95=half_width, ci95_low=low, ci95_high=high,
    )


def verify_coefficients() -> tuple[int, ...]:
    """Non-fatal failure-subset counts of one group, by subset size.

    Enumerates all 2^7 subsets of the group through `_lost_rows`; the
    result must equal the survival coefficients (1, 7, 21, 34, 30, 12, 0, 0)
    for the generating polynomial to describe this fatal-set family.
    """
    lost = _loss_counts(1, "group")
    return tuple(math.comb(MACHINES_PER_NODE, f) - int(c) for f, c in enumerate(lost))


def _loss_counts(n: int, mode: str) -> np.ndarray:
    """Per f, how many of the 2^(7n) failure scenarios with f failed
    machines lose data.

    Scenarios stream in column-major boolean blocks of 2^16 rows: the rows
    enumerate the failures of the first 16 machines, and each block fixes
    the rest to the bits of its index.  `_lost_rows`, the Monte Carlo
    predicate, marks the lost rows.
    """
    families = [_member_columns(sets) for sets in _hosting_sets(n, mode)]
    m = MACHINES_PER_NODE * n
    low = min(_BLOCK_BITS, m)
    rows = np.arange(1 << low, dtype=np.min_scalar_type((1 << low) - 1))
    failed = np.empty((1 << low, m), dtype=bool, order="F")
    for j in range(low):
        failed[:, j] = rows >> j & 1
    low_fails = failed[:, :low].sum(axis=1, dtype=np.uint8)
    counts = np.zeros(m + 1, dtype=np.int64)
    for block in range(1 << (m - low)):
        for j in range(low, m):
            failed[:, j] = block >> (j - low) & 1
        high_fails = block.bit_count()
        counts += np.bincount(
            low_fails[_lost_rows(failed, families)] + high_fails, minlength=m + 1
        )
    return counts


def exhaustive_loss_probability(n: int, p: float, mode: str = "group") -> float:
    """Exact loss probability by enumerating all 2^(7n) failure scenarios.

    `_loss_counts` counts the lost scenarios per number f of failed
    machines; a scenario with f failed machines weighs p^f (1-p)^(7n-f),
    and the final sum is exact (rational).  Cost is exponential -- n <= 4
    (2^28 scenarios, a few seconds) is the intended desk scale.
    """
    check_nodes(n)
    if n > 4:
        raise ValueError(f"exhaustive enumeration is limited to n <= 4, got {n}")
    check_probability(p)
    counts = _loss_counts(n, mode)
    m = MACHINES_PER_NODE * n
    fp = Fraction(p)
    total = sum(
        int(c) * fp**f * (1 - fp) ** (m - f) for f, c in enumerate(counts) if c
    )
    return float(total)
