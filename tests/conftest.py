"""Helpers shared by the test modules: the tests of `strides.imap`'s callers
fake the usable CPUs to choose how many processes the fork driver takes,
and the placement tests hold the library to a hand-written slot table."""

import os

import pytest

from cloudalloc.replication import half_host_ids


def fake_cpus(monkeypatch, n):
    """Make the process look as if it may run on n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def slot_hosts(n):
    """The slot table inverted: (node, half) -> its machine ids, ascending."""
    hosts = {}
    for machine, half in enumerate(slot_table(n)):
        hosts.setdefault(half, []).append(machine)
    return hosts


def placement_hosts(n):
    """`half_host_ids(n)` keyed as the slot table is: (node, half) -> ids."""
    quads, triples = half_host_ids(n)
    return {
        **{(node, "A"): ids for node, ids in enumerate(quads, 1)},
        **{(node, "B"): ids for node, ids in enumerate(triples, 1)},
    }
