import itertools
import math
import os
import select
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudalloc import failsim
from cloudalloc.failsim import (
    SCENARIO_MODES,
    McEstimate,
    _bernoulli_words,
    _failed_slabs,
    _hosting_sets,
    _loss_counts,
    _lost_rows,
    _member_columns,
    _word_blocks,
    exhaustive_loss_probability,
    mc_estimate,
    scenario_loss,
    verify_coefficients,
)
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
    user_machine_ids,
)
from conftest import assert_no_children, fake_cpus


class TestGroupFatal:
    # one group: owner machines 0-3, user machines 4-6
    def test_user_triple_is_fatal(self):
        assert scenario_loss(1, {4, 5, 6}, "group")

    def test_owner_quadruple_is_fatal(self):
        assert scenario_loss(1, {0, 1, 2, 3}, "group")

    def test_any_two_failures_survive(self):
        for pair in itertools.combinations(range(7), 2):
            assert not scenario_loss(1, pair, "group")

    def test_all_seven_fatal(self):
        assert scenario_loss(1, range(7), "group")

    def test_mixed_triple_survives(self):
        assert not scenario_loss(1, {0, 1, 2}, "group")
        assert not scenario_loss(1, {3, 4, 5}, "group")

    def test_local_id_validation(self):
        with pytest.raises(ValueError, match=r"^machine ids \[7\] outside 0\.\.6$"):
            scenario_loss(1, {7}, "group")


class TestVerifyCoefficients:
    def test_counts_match_survival_coefficients(self):
        counts = verify_coefficients()
        assert counts == (1, 7, 21, 34, 30, 12, 0, 0)
        assert counts[:6] == BASE_COEFFS

    def test_boundary_sizes(self):
        counts = verify_coefficients()
        assert counts[0] == 1     # empty failure set
        assert counts[3] == 34
        assert counts[5] == 12
        assert counts[6] == counts[7] == 0


class TestScenarioLoss:
    def test_empty_failure_set(self):
        assert not scenario_loss(3, (), "group")
        assert not scenario_loss(3, (), "structural")

    def test_one_group_user_triple_lost(self):
        plan = build_placement(3)
        assert scenario_loss(3, plan.user_blocks[1].machine_ids, "group")

    def test_owner_quadruple_lost(self):
        plan = build_placement(3)
        assert scenario_loss(3, plan.owner_blocks[0].machine_ids, "group")

    def test_both_primary_machines_alone_survive_structurally(self):
        plan = build_placement(3)
        hosts = plan.half_hosts()
        primaries = [
            i for i in plan.owner_blocks[0].machine_ids
            if i in hosts[(1, "A")] + hosts[(1, "B")]
        ]
        assert len(primaries) == 2
        assert not scenario_loss(3, primaries, "structural")

    def test_all_hosts_of_one_half_lost_structurally(self):
        plan = build_placement(3)
        assert scenario_loss(3, plan.half_hosts()[(2, "B")], "structural")

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match=r"^machine ids \[21\] outside 0\.\.20$"):
            scenario_loss(3, {21}, "group")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            scenario_loss(3, (), "psychic")

    @pytest.mark.parametrize(
        "n, mode", [(1, "group"), (3, "group"), (3, "structural"), (5, "structural")]
    )
    def test_lost_rows_matches_the_reference_row_by_row(self, n, mode):
        # 4096 random scenarios at a p where both outcomes are common, each
        # unpacked from its lane of the chunk's words
        families = [_member_columns(sets) for sets in _hosting_sets(n, mode)]
        words = _kernel_words(7, 0, 4096, n, 0.4)
        kernel = _lanes(_lost_rows(words, families)).ravel().tolist()
        rows = _lanes(words).transpose(0, 2, 1).reshape(4096, 7 * n)
        reference = [scenario_loss(n, np.flatnonzero(row).tolist(), mode) for row in rows]
        assert len(kernel) == 4096
        assert 0 < sum(reference) < 4096
        assert kernel == reference


class TestRackFailure:
    @pytest.mark.parametrize("n", range(3, 61))
    def test_the_placement_survives_a_whole_rack(self, n):
        # machines 0..4n-1 form the owner rack, 4n..7n-1 the user rack
        owner_rack, user_rack = range(4 * n), range(4 * n, 7 * n)
        for half, ids in build_placement(n).half_hosts().items():
            assert any(i in owner_rack for i in ids), half
            assert any(i in user_rack for i in ids), half
        assert not scenario_loss(n, owner_rack, "structural")
        assert not scenario_loss(n, user_rack, "structural")
        # a group keeps its quadruple on one rack and its triple on the other
        assert scenario_loss(n, owner_rack, "group")
        assert scenario_loss(n, user_rack, "group")


class TestHostingSets:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 60))
    def test_placement_invariants(self, n):
        m = 7 * n
        plan = build_placement(n)
        assert sorted(
            i for b in plan.owner_blocks + plan.user_blocks for i in b.machine_ids
        ) == list(range(m))
        hosts = plan.half_hosts()
        assert set(hosts) == {(node, half) for node in range(1, n + 1) for half in "AB"}
        # each machine hosts one half, so the host lists partition the machines
        assert sorted(i for ids in hosts.values() for i in ids) == list(range(m))
        for node in range(1, n + 1):
            assert len(hosts[(node, "A")]) == 4
            assert len(hosts[(node, "B")]) == 3

        halves = {j: half for half, ids in hosts.items() for j in ids}

        def wrap(i):
            return (i - 1) % n + 1

        for i, (owner, user) in enumerate(zip(plan.owner_blocks, plan.user_blocks), 1):
            assert [str(e) for e in owner.entries] == [
                f"P{i}", f"S1_{wrap(i + 1)}", f"S2_{wrap(i + 2)}"
            ]
            assert [halves[j] for j in owner.machine_ids] == [
                (i, "A"), (i, "B"), (wrap(i + 1), "A"), (wrap(i + 2), "B")
            ]
            assert [str(e) for e in user.entries] == [
                f"S1_{i}", f"S2_{wrap(i + 1)}", f"S1_{wrap(i + 2)}"
            ]
            assert [halves[j] for j in user.machine_ids] == [
                (i, "A"), (wrap(i + 1), "B"), (wrap(i + 2), "A")
            ]

        for mode in ("group", "structural"):
            quads, triples = _hosting_sets(n, mode)
            assert quads.shape == (n, 4) and triples.shape == (n, 3)
            members = np.concatenate([quads.ravel(), triples.ravel()])
            assert sorted(members.tolist()) == list(range(m))

        # row i - 1 of each mode names node i's sets, in the plan's order
        quads, triples = _hosting_sets(n, "structural")
        assert quads.tolist() == [list(hosts[(i, "A")]) for i in range(1, n + 1)]
        assert triples.tolist() == [list(hosts[(i, "B")]) for i in range(1, n + 1)]
        quads, triples = _hosting_sets(n, "group")
        assert quads.tolist() == [list(b.machine_ids) for b in plan.owner_blocks]
        assert triples.tolist() == [list(b.machine_ids) for b in plan.user_blocks]

    @pytest.mark.parametrize("n", [1, 2])
    def test_group_sets_below_the_placement_minimum(self, n):
        # no plan exists for n < 3; the groups are the blocks' machine ids
        quads, triples = _hosting_sets(n, "group")
        nodes = range(1, n + 1)
        assert quads.tolist() == [list(owner_machine_ids(i)) for i in nodes]
        assert triples.tolist() == [list(user_machine_ids(n, i)) for i in nodes]


def _assert_wilson_ends(est):
    # each end of the Wilson score interval solves
    # (p_hat - x)^2 = z^2 x (1 - x) / trials
    z2 = 1.96**2
    for x in (est.ci95_low, est.ci95_high):
        assert (est.p_hat - x) ** 2 == pytest.approx(
            z2 * x * (1 - x) / est.trials, rel=1e-9, abs=1e-18
        )


class TestMcEstimate:
    def test_p_zero_exact(self):
        est = mc_estimate(5, 0.0, 10_000, seed=1)
        assert est.p_hat == 0.0 and est.half_width_95 == 0.0
        # the Wilson interval does not claim certainty the Wald one does
        assert est.ci95_low == 0.0 and est.ci95_high == 1.96**2 / (10_000 + 1.96**2)
        _assert_wilson_ends(est)

    def test_p_one_exact(self):
        est = mc_estimate(5, 1.0, 10_000, seed=1)
        assert est.p_hat == 1.0
        assert est.ci95_high == 1.0 and 0.999 < est.ci95_low < 1.0
        _assert_wilson_ends(est)

    def test_wilson_interval_brackets_the_estimate(self):
        for trials in (1, 7, 20_000):
            est = mc_estimate(4, 0.2, trials, seed=77)
            assert 0.0 <= est.ci95_low <= est.p_hat <= est.ci95_high <= 1.0
            _assert_wilson_ends(est)

    def test_golden_estimate(self):
        # pins the random stream: a change to how the lane sampler draws
        # its words must show up here, never silently
        est = mc_estimate(10, 0.1, 20_000, seed=42)
        assert est.p_hat == 251 / 20_000

    def test_deterministic_for_fixed_seed(self):
        a = mc_estimate(4, 0.2, 50_000, seed=77)
        b = mc_estimate(4, 0.2, 50_000, seed=77)
        assert a == b

    def test_worker_count_does_not_change_result(self):
        a = mc_estimate(4, 0.2, 50_000, seed=77, workers=1)
        b = mc_estimate(4, 0.2, 50_000, seed=77, workers=4)
        assert a == b

    def test_different_seeds_differ(self):
        a = mc_estimate(4, 0.2, 50_000, seed=1)
        b = mc_estimate(4, 0.2, 50_000, seed=2)
        assert a.p_hat != b.p_hat

    def test_group_mode_concords_with_exact(self):
        exact = prob_data_loss(10, 0.1, "closed-form").p_loss
        est = mc_estimate(10, 0.1, 200_000, seed=42)
        sigma = est.half_width_95 / 1.96
        assert abs(est.p_hat - exact) <= 3 * sigma

    @pytest.mark.parametrize("mode", SCENARIO_MODES)
    def test_concords_with_exhaustive_enumeration(self, mode):
        exact = exhaustive_loss_probability(3, 0.3, mode)
        est = mc_estimate(3, 0.3, 400_000, seed=11, mode=mode)
        sigma = math.sqrt(exact * (1.0 - exact) / est.trials)
        assert abs(est.p_hat - exact) <= 4 * sigma

    def test_structural_mode_runs(self):
        est = mc_estimate(5, 0.3, 20_000, seed=9, mode="structural")
        assert 0.0 < est.p_hat < 1.0

    def test_seed_range_ends(self):
        for seed in (0, 2**128 - 1):
            assert mc_estimate(3, 0.5, 100, seed=seed).seed == seed

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_estimate(5, 0.5, 0)
        with pytest.raises(ValueError):
            mc_estimate(5, 0.5, 100, mode="psychic")
        with pytest.raises(ValueError):
            mc_estimate(5, 0.5, 100, workers=0)
        for seed in (-1, 2**128):
            message = rf"seed must lie in \[0, 2\*\*128\), got {seed}"
            with pytest.raises(ValueError, match=message):
                mc_estimate(5, 0.5, 100, seed=seed)

    def test_workers_above_the_bound_are_refused_before_any_fork(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        fake_cpus(monkeypatch, 9)
        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(ValueError, match=r"workers must lie in 1\.\.64, got 65"):
            mc_estimate(5, 0.5, 100, workers=65)

    @pytest.mark.parametrize(
        "workers, chunks, tasks", [(3, 100, 3), (3, 2, 2), (64, 1, 1), (1, 100, 1)]
    )
    def test_one_strided_task_per_worker(self, workers, chunks, tasks, monkeypatch):
        real, forks = os.fork, []

        def counted_fork():
            forks.append(None)
            return real()

        monkeypatch.setattr(os, "fork", counted_fork)
        trials = (chunks - 1) * 4096 + 5
        want = mc_estimate(3, 0.3, trials, seed=4, workers=1)
        assert forks == []
        # the caller runs share 0 itself, a child each other; workers caps
        # the shares, and so do the usable CPUs
        for cpus in (64, 2):
            fake_cpus(monkeypatch, cpus)
            forks.clear()
            assert mc_estimate(3, 0.3, trials, seed=4, workers=workers) == want
            assert len(forks) == min(tasks, cpus) - 1
            assert_no_children()

    @pytest.mark.parametrize("cpus", [1, 2, 3, 9])
    @pytest.mark.parametrize(
        "n, p, mode",
        [(1000, 0.05, "group"), (10, 0.0, "group"), (10, 1.0, "structural"), (4, 0.2, "structural")],
    )
    def test_estimate_does_not_depend_on_the_cpu_count(self, n, p, mode, cpus, monkeypatch):
        # four chunks, the last one short; n = 1000 streams 8-row slabs
        trials = 3 * 4096 + 5
        want = mc_estimate(n, p, trials, seed=5, mode=mode)
        fake_cpus(monkeypatch, cpus)
        assert mc_estimate(n, p, trials, seed=5, mode=mode, workers=9) == want
        assert_no_children()

    def test_a_raising_stride_stops_the_others_within_a_chunk(self, monkeypatch):
        class Interrupt(BaseException):
            """Like KeyboardInterrupt, not an Exception."""

        caller, real = os.getpid(), failsim._failed_slabs
        started, tell = os.pipe()

        def slabs(seed, chunk, rows, machines, p):
            if os.getpid() != caller:  # the child's first chunk never ends
                os.write(tell, b"!")
                time.sleep(60)
            else:  # the caller's first chunk, once the child is in its own
                assert select.select([started], [], [], 30)[0]
                raise Interrupt
            return real(seed, chunk, rows, machines, p)

        monkeypatch.setattr(failsim, "_failed_slabs", slabs)
        fake_cpus(monkeypatch, 2)
        start = time.monotonic()
        try:
            with pytest.raises(Interrupt):
                mc_estimate(1, 0.3, 200 * 4096, workers=2)
        finally:
            os.close(started)
            os.close(tell)
        assert time.monotonic() - start < 30
        assert_no_children()


def _lanes(words):
    """The 64 lanes of each uint64 word as bools: [..., l] is bit l."""
    return np.unpackbits(words.astype("<u8")[..., None].view(np.uint8), axis=-1,
                         bitorder="little") == 1


def _words(lanes):
    """The inverse of `_lanes`: one uint64 word per 64 bools."""
    return np.packbits(lanes, axis=-1, bitorder="little").view("<u8")[..., 0]


def _replay_lanes(p, size, draw):
    """The documented lane rule replayed one bool per lane, with p's digits
    read off the exact rational p: at digit i every word draws while i <= 7,
    after that each word with an undecided lane, in index order, until no
    lane is undecided.  Returns (size, 64) bools, True where U < p."""
    failed = np.zeros((size, 64), dtype=bool)
    if p == 1:
        return ~failed
    undecided = ~failed
    rest, i = Fraction(p), 0
    while rest and undecided.any():
        i += 1
        digit, rest = divmod(2 * rest, 1)
        drawn = np.arange(size) if i <= 7 else np.flatnonzero(undecided.any(axis=1))
        bits = _lanes(draw(drawn.size))
        if digit:
            failed[drawn] |= undecided[drawn] & ~bits
            undecided[drawn] &= bits
        else:
            undecided[drawn] &= ~bits
    return failed


def _replay_chunk(seed, chunk, rows, n, p):
    """A chunk's failures as (ceil(rows / 64), 7n, 64) bools, replayed slab
    by slab from the state `jumped(chunk)` reaches: slabs of max(1, 8192 //
    7n) word-rows, each drawn digit-major."""
    machines = 7 * n
    stream = np.random.Philox(key=seed).jumped(chunk)
    words, slab = -(-rows // 64), max(1, 8192 // machines)
    return np.concatenate([
        _replay_lanes(p, min(slab, words - start) * machines, stream.random_raw)
        for start in range(0, words, slab)
    ]).reshape(words, machines, 64)


def _kernel_words(seed, chunk, rows, n, p):
    return np.concatenate(list(_failed_slabs(seed, chunk, rows, 7 * n, p)))


def _whole_block_losses(failed, n, hosts):
    """Reference classification per row: reshape/.all per group, or the 3-D
    gather of every hosting set of the placement's `hosts` (structural)."""
    rows = failed.shape[0]
    if hosts is None:
        owner_fatal = failed[:, : 4 * n].reshape(rows, n, 4).all(axis=2)
        user_fatal = failed[:, 4 * n :].reshape(rows, n, 3).all(axis=2)
        return (owner_fatal | user_fatal).any(axis=1)
    lost = np.zeros(rows, dtype=bool)
    for half in ("A", "B"):
        idx = np.array([hosts[(node, half)] for node in range(1, n + 1)])
        lost |= failed[:, idx].all(axis=2).any(axis=1)
    return lost


def _replay_losses(lanes, rows, n, hosts):
    """Lost trials among the first `rows` of replayed lanes, one word-row of
    64 trials at a time."""
    return sum(
        int(_whole_block_losses(word_row.T, n, hosts)[: rows - 64 * w].sum())
        for w, word_row in enumerate(lanes)
    )


def _estimated_losses(n, p, rows, seed, mode):
    """Lost trials of chunk 0, as mc_estimate counts them."""
    return round(mc_estimate(n, p, rows, seed=seed, mode=mode).p_hat * rows)


class TestChunkKernel:
    # 0.5 has one binary digit; 2^-16 and 3 * 2^-20 end past the seventh;
    # 1 - 2^-53 has 53, all 1, and 5e-324 has 1074, only the last one 1
    PS = (0.0, 1.0, 0.03, 0.1, 0.5, 5e-324, 1 - 2**-53, 2**-16, 3 * 2**-20)

    @pytest.mark.parametrize(
        "n, rows",
        [
            (n, rows)
            for n in (1, 3, 4, 10, 37, 1000)
            for rows in (1, 7, 63, 64, 65, 4096)
        ]
        # 7n = 65541 > 8192 words: every slab is one word-row
        + [(9363, 1), (9363, 7)],
    )
    def test_row_slabs_match_whole_block(self, n, rows):
        views = [_member_columns(s) for s in _hosting_sets(n, "group")]
        gathers = [list(s.T) for s in _hosting_sets(n, "group")]  # no views
        hosts = build_placement(n).half_hosts() if n >= 3 else None
        for p in self.PS:
            lanes = _replay_chunk(5, 0, rows, n, p)
            words = _kernel_words(5, 0, rows, n, p)
            assert np.array_equal(words, _words(lanes)), (n, rows, p)
            lost = _lost_rows(words, views)
            assert np.array_equal(_lost_rows(words, gathers), lost), (n, rows, p)
            want = _replay_losses(lanes, rows, n, None)
            assert _estimated_losses(n, p, rows, 5, "group") == want, (n, rows, p)
            if hosts:
                want = _replay_losses(lanes, rows, n, hosts)
                assert _estimated_losses(n, p, rows, 5, "structural") == want, (n, rows, p)

    @pytest.mark.parametrize("n", [1, 10, 37])
    def test_short_chunk_masks_the_lanes_past_its_rows(self, n):
        # rows 1..64 draw the same one word-row; a short chunk counts only
        # the lanes below its rows
        full = _kernel_words(8, 0, 64, n, 0.4)
        group = [_member_columns(s) for s in _hosting_sets(n, "group")]
        lost = _lanes(_lost_rows(full, group))[0]
        assert 0 < lost.sum() < 64
        for rows in (1, 7, 63):
            assert np.array_equal(_kernel_words(8, 0, rows, n, 0.4), full)
        counts = [_estimated_losses(n, 0.4, rows, 8, "group") for rows in range(1, 65)]
        assert counts == np.cumsum(lost).tolist()

    # the chunk counter c * 2^128 fills the third of Philox's four 64-bit
    # counter words, and 2^64 carries into the fourth
    @pytest.mark.parametrize("chunk", [0, 1, 2**64 - 1, 2**64, 2**127])
    def test_chunk_streams_start_where_jumps_reach(self, chunk):
        for p in (0.1, 3 * 2**-20, 1 - 2**-53):
            want = _words(_replay_chunk(8, chunk, 4096, 10, p))
            assert np.array_equal(_kernel_words(8, chunk, 4096, 10, p), want), (chunk, p)

    def test_only_undecided_words_draw_after_the_seventh_digit(self):
        # n = 1000 draws in slabs of one word-row, 7000 words; p = 2^-16 has
        # 16 digits
        stream, sizes = np.random.Philox(key=8), []

        def draw(k):
            sizes.append(k)
            return stream.random_raw(k)

        failed = _bernoulli_words(2**-16, 7000, draw)
        assert sizes[:7] == [7000] * 7
        assert all(a > b > 0 for a, b in zip(sizes[6:], sizes[7:]))
        # each digit decides half of the undecided lanes, so at digit i > 7
        # a word draws with probability 1 - (1 - 2^(1-i))^64: 7.85 in all
        expected = 7 + sum(1 - (1 - 2.0 ** (1 - i)) ** 64 for i in range(8, 17))
        assert abs(sum(sizes) / 7000 - expected) < 0.05
        replay = _replay_lanes(2**-16, 7000, np.random.Philox(key=8).random_raw)
        assert np.array_equal(failed, _words(replay))

    def test_evenly_stepped_ids_are_read_as_views(self):
        quads, triples = _hosting_sets(10, "group")
        assert _member_columns(quads) == [slice(k, 40 + k, 4) for k in range(4)]
        assert _member_columns(triples) == [slice(40 + k, 70 + k, 3) for k in range(3)]
        for col in _member_columns(_hosting_sets(10, "structural")[0]):
            assert isinstance(col, np.ndarray)

    def test_memory_is_bounded_by_the_slab(self):
        # a whole 4096 x 7000 float64 block would be 219 MiB
        tracemalloc.start()
        try:
            mc_estimate(1000, 0.05, 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(3, 40),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        trials=st.integers(1, 3 * 4096 + 5),
        workers=st.integers(2, 3),
        mode=st.sampled_from(("group", "structural")),
    )
    def test_worker_count_never_changes_the_estimate(
        self, n, p, seed, trials, workers, mode
    ):
        one = mc_estimate(n, p, trials, seed=seed, mode=mode, workers=1)
        assert mc_estimate(n, p, trials, seed=seed, mode=mode, workers=workers) == one


class TestLaneSampler:
    """`_bernoulli_words` fed known words through its `draw` hook."""

    @staticmethod
    def prefix_draw(word, b):
        """Lane l of `word` of an enumeration of all b-bit prefixes of U,
        prefix 64 word + l, most significant bit first: digit i draws
        bit b - i of the prefix."""
        _, block = next(_word_blocks(b, b))
        digits = iter(range(b - 1, -1, -1))

        def draw(k):
            assert k == 1
            return block[word : word + 1, next(digits)].copy()

        return draw

    @pytest.mark.parametrize("b", [6, 7, 8, 11])
    def test_dyadic_p_fails_exactly_k_of_the_prefixes(self, b):
        # b > 7 reaches the digits that draw only for undecided words
        ks = range(2**b + 1) if b <= 8 else [*range(0, 2**b, 43), 2**b - 1, 2**b]
        for k in ks:
            p = k / 2**b
            failed = sum(
                int(np.bitwise_count(_bernoulli_words(p, 1, self.prefix_draw(w, b)))[0])
                for w in range(2 ** (b - 6))
            )
            assert failed == k, (b, k)

    def test_p_zero_and_one_draw_nothing(self):
        def draw(k):
            raise AssertionError("drew")

        assert not _bernoulli_words(0.0, 3, draw).any()
        assert (_bernoulli_words(1.0, 3, draw) == 2**64 - 1).all()

    @pytest.mark.parametrize(
        "p, before, last",
        [(5e-324, 0, 1074), (1 - 2**-53, 2**64 - 1, 53)],
    )
    def test_the_last_digit_of_p_decides(self, p, before, last):
        # U equal to p on its first `last` bits stays clear (U >= p); at
        # p's last digit, a 1, the lanes whose bit is 0 are set
        pattern, sizes = 0xAAAA_AAAA_AAAA_AAAA, []

        def draw(k):
            sizes.append(k)
            return np.full(k, before if len(sizes) < last else pattern, dtype=np.uint64)

        failed = _bernoulli_words(p, 2, draw)
        assert sizes == [2] * last
        assert failed.tolist() == [pattern ^ (2**64 - 1)] * 2


class TestExhaustive:
    def test_single_group_matches_exact_formula(self):
        for p in (0.2, 0.7):
            assert exhaustive_loss_probability(1, p) == pytest.approx(
                prob_data_loss(1, p, "exact-bigint").p_loss, rel=1e-12
            )

    def test_two_groups_match_exact_formula(self):
        assert exhaustive_loss_probability(2, 0.3) == pytest.approx(
            prob_data_loss(2, 0.3, "exact-bigint").p_loss, rel=1e-12
        )

    def test_modes_classify_scenarios_differently(self):
        # the structural hosting sets cross block boundaries, so individual
        # scenarios flip class between the two modes
        plan = build_placement(3)
        owner_block = plan.owner_blocks[0].machine_ids
        assert scenario_loss(3, owner_block, "group")
        assert not scenario_loss(3, owner_block, "structural")
        half_hosts = plan.half_hosts()[(1, "A")]
        assert not scenario_loss(3, half_hosts, "group")
        assert scenario_loss(3, half_hosts, "structural")

    def test_mode_probabilities_agree_exactly(self):
        # measured, not assumed: each machine hosts exactly one half, so the
        # structural hosting sets partition the machines into n quadruples
        # and n triples -- the same independence profile as the group model,
        # hence identical total loss probability despite the per-scenario
        # disagreements above
        for p in (0.1, 0.3, 0.5):
            group = exhaustive_loss_probability(3, p, "group")
            structural = exhaustive_loss_probability(3, p, "structural")
            assert group == structural

    @pytest.mark.parametrize("mode", SCENARIO_MODES)
    def test_four_nodes_match_both_exact_routes(self, mode):
        # n = 4 is the first n whose placement blocks do not each hold
        # every node
        got = exhaustive_loss_probability(4, 0.3, mode)
        assert got == prob_data_loss(4, 0.3, "closed-form").p_loss
        assert got == prob_data_loss(4, 0.3, "exact-bigint").p_loss

    # structural placements start at n = 3
    @pytest.mark.parametrize(
        "n, mode", [(2, "group"), (3, "group"), (3, "structural"), (4, "structural")]
    )
    def test_counts_match_the_polynomial_coefficient_by_coefficient(self, n, mode):
        # c_f counts the f-machine failure subsets that lose nothing; the
        # enumeration reads the hosting sets, never the polynomial
        lost = _loss_counts(n, mode)
        coeffs = loss_polynomial(n)
        assert len(coeffs) == len(lost) == 7 * n + 1
        for f, c in enumerate(coeffs):
            assert c == math.comb(7 * n, f) - int(lost[f]), (n, mode, f)

    @pytest.mark.parametrize("mode", SCENARIO_MODES)
    def test_a_bit_sliced_block_matches_its_bool_rows(self, mode):
        # block 37 of n = 3 (machines 15, 17 and 20 failed), its 2^15
        # scenarios unpacked lane by lane into one bool row each
        families = [_member_columns(sets) for sets in _hosting_sets(3, mode)]
        block, words = next(itertools.islice(_word_blocks(21, 15), 37, None))

        rows = _lanes(words).transpose(0, 2, 1).reshape(1 << 15, 21)
        scenarios = (block << 15) + np.arange(1 << 15)
        assert np.array_equal(rows, scenarios[:, None] >> np.arange(21) & 1 == 1)
        lost = _lanes(_lost_rows(words, families)).ravel()
        hosts = build_placement(3).half_hosts() if mode == "structural" else None
        assert np.array_equal(lost, _whole_block_losses(rows, 3, hosts))
        assert 0 < lost.sum() < lost.size
        for s in range(0, 1 << 15, 997):
            assert lost[s] == scenario_loss(3, np.flatnonzero(rows[s]).tolist(), mode)

    @pytest.mark.parametrize("bits", [6, 7, None])
    def test_block_size_never_changes_the_result(self, bits, monkeypatch):
        # 6 bits, one word a block, is the smallest block
        cases = [(1, "group"), (2, "group"), (3, "group"), (3, "structural")]
        want = {case: _loss_counts(*case) for case in cases}
        for n, mode in cases:
            # None: one block holds every scenario
            monkeypatch.setattr(failsim, "_BLOCK_BITS", 7 * n if bits is None else bits)
            assert np.array_equal(_loss_counts(n, mode), want[(n, mode)])

    @pytest.mark.parametrize("mode", SCENARIO_MODES)
    def test_memory_is_bounded_by_the_block(self, mode):
        # all 2^21 scenarios as uint32 masks would be 8 MiB alone, and one
        # 2^16 x 21 bool block 1.3 MiB; a bit-sliced block of 2^15
        # scenarios is 512 words x 21 machines, 84 KiB, beside its 64 KiB of
        # lane masks
        tracemalloc.start()
        try:
            exhaustive_loss_probability(3, 0.3, mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_size_guard(self):
        with pytest.raises(ValueError):
            exhaustive_loss_probability(5, 0.1)
        with pytest.raises(ValueError):
            exhaustive_loss_probability(3, 0.1, "psychic")


# Every entry point of the loss engine and its oracles, called with (n, p);
# the first three take no p.
_LOSS_ENTRY_POINTS = {
    "loss_polynomial": lambda n, p: loss_polynomial(n),
    "prob_no_loss": lambda n, p: prob_no_loss(n, 0),
    "scenario_loss": lambda n, p: scenario_loss(n, (), "group"),
    "prob_f_failures": lambda n, p: prob_f_failures(n, 0, p),
    **{
        f"prob_data_loss[{method}]": lambda n, p, method=method: prob_data_loss(n, p, method)
        for method in LOSS_METHODS
    },
    "loss_curve": lambda n, p: loss_curve([n], p),
    "mc_estimate": lambda n, p: mc_estimate(n, p, 100),
    "exhaustive_loss_probability": exhaustive_loss_probability,
}
_TAKES_P = list(_LOSS_ENTRY_POINTS)[3:]


@pytest.mark.parametrize(
    "name, n, p, message",
    [(name, n, 0.1, f"n must be >= 1, got {n}") for name in _LOSS_ENTRY_POINTS for n in (0, -2)]
    + [
        (name, 2, p, f"p must lie in [0, 1], got {p}")
        for name in _TAKES_P
        for p in (-0.1, 1.5, math.nan)
    ],
)
def test_loss_entry_points_share_the_n_and_p_rules(name, n, p, message):
    with pytest.raises(ValueError) as exc:
        _LOSS_ENTRY_POINTS[name](n, p)
    assert str(exc.value) == message
