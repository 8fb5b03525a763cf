"""Monte Carlo and brute-force oracles for the loss combinatorics.

`replication` derives its survival polynomial from a fatal-set family:
within one 7-machine group (4 owner-rack + 3 user-rack), data is lost iff
all four owner machines fail or all three user machines fail.
`verify_coefficients` checks the derived counts by exhaustive enumeration
of one group's hosting sets, and `_loss_counts` counts the lost subsets of
larger clusters per size the same way; neither reads the polynomial.

Each scenario mode is a hosting-set family of n quadruples and n triples
(`_hosting_sets`): the groups, or the hosts of each node's half A and B in
the cyclic placement (`replication.half_host_ids`), which spread across
blocks, so single scenarios may disagree (measured, never assumed away).
Monte Carlo, exhaustive enumeration and the coefficient check feed failure
blocks to one predicate (`_lost_rows`) on bit-sliced uint64 words, one
scenario a lane, random or enumerated: some set failed completely.
`scenario_loss` is its row-by-row reference, a set-inclusion test over the
same family."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import strides
from .replication import (
    MACHINES_PER_NODE,
    check_nodes,
    check_placement_nodes,
    check_probability,
    half_host_ids,
    owner_machine_ids,
    user_machine_ids,
)

SCENARIO_MODES = ("group", "structural")

# Trials are generated in fixed-size chunks; chunk c of a run reads the
# Philox stream `key=seed` from counter c * 2**128, the state `jumped(c)`
# reaches, opened there directly, so trial t's outcome depends only on
# (seed, t // CHUNK, t % CHUNK) -- never on worker count or total trials.
_CHUNK_TRIALS = 4096
# Lane words are drawn in slabs of max(1, this // 7n) word-rows (64 KiB),
# digit-major, so this constant is part of the stream, as the chunk size is.
_SLAB_WORDS = 1 << 13
# A run may draw at most this many machine-trial cells, charging each trial
# max(7n, _MIN_TRIAL_CELLS): about a minute at one worker for every n.  Below
# n = 6 a chunk's fixed numpy calls, not its cells, set a trial's cost: on a
# 2-vCPU host one worker ran 2.3e8 cells/s at n = 1, 2.8e8 at n = 3, 7.1e8 at
# n = 10 and 8.6e8 from n = 30 up.
_MAX_CELLS = 3 * 10**10
_MIN_TRIAL_CELLS = 42
_Z95 = 1.96
# `workers` caps the processes that run strided shares of the chunks; a cap
# above this is refused as a usage error, whatever the usable CPUs.
_MAX_WORKERS = 64
# Exhaustive enumeration walks the 2^(7n) scenarios in blocks of
# 2^_BLOCK_BITS, 64 to a uint64 word, so a block is at least one word
# (_BLOCK_BITS >= 6); the block size bounds memory, never the result.
_BLOCK_BITS = 15
_LANE_BITS = 6
_LANES = np.arange(1 << _LANE_BITS, dtype=np.uint64)
_ALL_LANES = np.uint64(2**64 - 1)


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
                (3 machines), each row ascending, as
                replication.half_host_ids(n) walks them (n >= 3).
    """
    if mode == "group":
        nodes = range(1, n + 1)
        quads = [owner_machine_ids(i) for i in nodes]
        triples = [user_machine_ids(n, i) for i in nodes]
        return np.array(quads), np.array(triples)
    if mode != "structural":
        raise ValueError(f"unknown mode {mode!r}; expected one of {SCENARIO_MODES}")
    quads, triples = half_host_ids(n)
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
    """Per word-row and per set, the lanes in which every member column failed."""
    out = failed[:, columns[0]] & failed[:, columns[1]]
    for col in columns[2:]:
        out &= failed[:, col]
    return out


def _bernoulli_words(p: float, size: int, draw) -> np.ndarray:
    """`size` uint64 words whose lanes are each set iff the lane's uniform U
    is below p, so with probability exactly p.  `draw(k)` returns a fresh
    uint64 array of k random words, which the sampler overwrites in place.

    U's bits meet the digits of p = P / 2^E most significant first (Knuth and
    Yao 1976): an undecided lane is set at a digit 1 over a bit 0, and clear
    at a digit 0 over a bit 1.  Digits 1..7 draw for every word, later ones
    for each word with an undecided lane, in order, until none is left; a
    lane undecided after digit E has U >= p."""
    failed = np.zeros(size, dtype=np.uint64)
    if p == 1:
        return ~failed
    numerator, denominator = p.as_integer_ratio()
    digits = denominator.bit_length()
    undecided = np.full(size, _ALL_LANES)
    # log2(64) + 1: most words hold an undecided lane through digit 7
    for i in range(1, min(8, digits)):
        ones = draw(size)
        ones &= undecided          # undecided lanes whose bit is 1
        undecided ^= ones          # those whose bit is 0
        if (numerator << i) // denominator & 1:   # digit i of p
            failed |= undecided
            undecided = ones
        if not undecided.any():
            return failed
    index = None                   # the words drawn for; None while all are
    for i in range(8, digits):
        keep = undecided.nonzero()[0]
        if keep.size < undecided.size:
            if not keep.size:
                break
            index = keep if index is None else index[keep]
            undecided = undecided[keep]
        ones = draw(keep.size)
        ones &= undecided
        undecided ^= ones
        if (numerator << i) // denominator & 1:
            if index is None:
                failed |= undecided
            else:
                failed[index] |= undecided
            undecided = ones
    return failed


def _failed_slabs(seed: int, chunk: int, rows: int, machines: int, p: float):
    """A chunk's failures: slabs of its ceil(rows / 64) x machines lane words
    from its one Philox stream; callers mask off the lanes at or past rows."""
    source = np.random.Philox(key=seed, counter=chunk << 128)
    words = -(-rows // 64)
    slab = max(1, _SLAB_WORDS // machines)
    for start in range(0, words, slab):
        w = min(slab, words - start)
        yield _bernoulli_words(p, w * machines, source.random_raw).reshape(w, machines)


def _lost_rows(
    failed: np.ndarray, families: list[list[slice | np.ndarray]]
) -> np.ndarray:
    """Per word-row of a bit-sliced failure block, the word whose lane bits
    mark the scenarios in which some set of some family failed whole."""
    lost = _all_failed(failed, families[0])
    for columns in families[1:]:
        lost |= _all_failed(failed, columns)
    return np.bitwise_or.reduce(lost, axis=1)


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
    caps the shares that `strides.imap` spreads the 4096-trial chunks
    over.  A run of more than 3e10 machine-trial cells, each trial charged
    max(7n, 42) of them, or of more than 50 000 nodes, is refused before any
    work.  half_width_95 is the
    95% normal (Wald) half-width; ci95_low and ci95_high are the 95% Wilson
    score interval, which stays open at p_hat 0 and 1.
    """
    check_nodes(n)
    check_placement_nodes(n)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    machines = MACHINES_PER_NODE * n
    cells = trials * max(machines, _MIN_TRIAL_CELLS)
    if cells > _MAX_CELLS:
        raise ValueError(
            f"trials x max(7n, {_MIN_TRIAL_CELLS}) = {cells} machine-trial cells exceed "
            f"the limit of {_MAX_CELLS:.0e} (about a minute at one worker)"
        )
    check_probability(p)
    if not 1 <= workers <= _MAX_WORKERS:
        raise ValueError(f"workers must lie in 1..{_MAX_WORKERS}, got {workers}")
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
    families = [_member_columns(sets) for sets in _hosting_sets(n, mode)]
    n_chunks = (trials + _CHUNK_TRIALS - 1) // _CHUNK_TRIALS

    def chunk_losses(c: int) -> int:
        rows = min(_CHUNK_TRIALS, trials - c * _CHUNK_TRIALS)
        slabs = _failed_slabs(seed, c, rows, machines, p)
        lost = np.concatenate([_lost_rows(f, families) for f in slabs])
        lost[-1] &= _ALL_LANES >> np.uint64(-rows % 64)
        return int(np.bitwise_count(lost).sum())

    losses = sum(strides.imap(chunk_losses, range(n_chunks), min(workers, n_chunks)))
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


def _lane_word(marked: np.ndarray) -> np.uint64:
    """The word whose bit l is set iff marked[l], for each of the 64 lanes."""
    return np.bitwise_or.reduce(marked.astype(np.uint64) << _LANES)


def _word_blocks(m: int, low: int):
    """The 2^m failure scenarios of m machines, bit-sliced, in 2^(m - low)
    blocks of 2^low: yields each block index b with its F-order (2^(low-6),
    m) uint64 block, a view of one reused buffer.  Lane l of word w is
    scenario s = b * 2^low + 64 w + l, and machine j failed in it iff bit j
    of s is set: machines 0..5 are fixed lane patterns (0xAAAA..., 0xCCCC...,
    ...), machines 6..low-1 all-ones or zero per word, the rest all-ones or
    zero per block."""
    words = np.arange(1 << (low - _LANE_BITS), dtype=np.uint64)
    failed = np.empty((words.size, m), dtype=np.uint64, order="F")
    for j in range(_LANE_BITS):
        failed[:, j] = _lane_word(_LANES >> np.uint64(j) & 1)
    for j in range(_LANE_BITS, low):
        failed[:, j] = (words >> np.uint64(j - _LANE_BITS) & 1) * _ALL_LANES
    failed[:, low:] = 0
    for block in range(1 << (m - low)):
        if block:
            # counting up sets the lowest clear bit and clears the bits below
            t = (block & -block).bit_length() - 1
            failed[:, low + t] = _ALL_LANES
            failed[:, low : low + t] = 0
        yield block, failed


def _loss_counts(n: int, mode: str) -> np.ndarray:
    """Per f, how many of the 2^(7n) failure scenarios with f failed
    machines lose data.

    Scenarios stream in bit-sliced blocks of 2^15 (`_word_blocks`), 64 to
    a uint64 word; `_lost_rows`, the Monte Carlo predicate, ANDs and ORs
    the words lane-wise into one lost-lane word per word.  Row k of `masks`
    marks, per word, the lanes with k failures among the block's low
    machines, so a popcount of `masks & lost` counts the block's lost
    scenarios by k, and the block's own failed machines shift k to f.
    """
    families = [_member_columns(sets) for sets in _hosting_sets(n, mode)]
    m = MACHINES_PER_NODE * n
    low = min(_BLOCK_BITS, m)
    words = np.arange(1 << (low - _LANE_BITS))
    masks = np.zeros((low + 1, words.size), dtype=np.uint64)
    for k in range(_LANE_BITS + 1):
        masks[np.bitwise_count(words) + k, words] = _lane_word(np.bitwise_count(_LANES) == k)
    counts = np.zeros(m + 1, dtype=np.int64)
    for block, failed in _word_blocks(m, low):
        lost = _lost_rows(failed, families)
        f = block.bit_count()
        counts[f : f + low + 1] += np.bitwise_count(masks & lost).sum(axis=1, dtype=np.int64)
    return counts


def exhaustive_loss_probability(n: int, p: float, mode: str = "group") -> float:
    """Exact loss probability by enumerating all 2^(7n) failure scenarios.

    `_loss_counts` counts the lost scenarios per number f of failed
    machines; a scenario with f failed machines weighs p^f (1-p)^(7n-f),
    and the final sum is exact (rational).  Cost is exponential -- n <= 4
    (2^28 scenarios, under half a second) is the intended desk scale.
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
