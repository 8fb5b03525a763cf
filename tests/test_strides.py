"""The fork driver: `strides.imap(fn, items, shares)` maps fn over items in
order, process w of k = `strides._width(shares)` computing items w, w + k,
...  Each caller's end-to-end check lives with its caller."""

import itertools
import math
import os
import struct
import threading

import pytest

from cloudalloc import strides


def fake_cpus(monkeypatch, n):
    """Make the process look as if it may run on n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_width_follows_usable_cpus(monkeypatch):
    fake_cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert [strides._width(n) for n in (0, 1, 2, 7)] == [1, 1, 2, 3]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert strides._width(400) == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert strides._width(400) == 1


@pytest.mark.parametrize("k", [1, 2, 3, 9])
def test_results_come_back_in_stride_order_bit_for_bit(k, monkeypatch):
    # 2k + 1 items: k divides none of the counts but k = 1's
    fake_cpus(monkeypatch, k)
    caller = os.getpid()

    def fn(i):
        return i, os.getpid() == caller, [math.nan, -0.0, math.inf, 0.1 * i, 2**70 + i]

    pack = struct.Struct("<d").pack
    got = list(strides.imap(fn, range(2 * k + 1), 2 * k + 1))
    assert [(i, here) for i, here, _ in got] == [(i, i % k == 0) for i in range(2 * k + 1)]
    for i, _, values in got:
        assert [pack(v) for v in values[:4]] == [
            pack(v) for v in (math.nan, -0.0, math.inf, 0.1 * i)
        ]
        assert values[4] == 2**70 + i
    assert_no_children()


def test_serial_without_fork_or_with_another_thread(monkeypatch):
    fake_cpus(monkeypatch, 3)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert strides._width(7) == 1
        assert list(strides.imap(str, range(7), 7)) == list("0123456")
    finally:
        release.set()
        other.join()
    monkeypatch.delattr(os, "fork")
    assert strides._width(7) == 1
    assert list(strides.imap(str, range(7), 7)) == list("0123456")


def test_child_exception_is_raised_in_the_caller(monkeypatch):
    fake_cpus(monkeypatch, 3)
    caller = os.getpid()

    def fn(i):
        if os.getpid() != caller:
            raise ZeroDivisionError(os.getpid())
        return i

    with pytest.raises(ZeroDivisionError) as err:
        list(strides.imap(fn, range(3), 3))
    assert err.value.args[0] != caller   # it was raised in a child
    assert_no_children()


def test_a_child_that_sends_nothing_is_an_error(monkeypatch):
    fake_cpus(monkeypatch, 2)
    caller = os.getpid()

    def fn(i):
        if os.getpid() != caller:
            os._exit(0)
        return i

    with pytest.raises(RuntimeError, match=r"worker \d+ exited without a result"):
        list(strides.imap(fn, range(2), 2))
    assert_no_children()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_each_process_computes_every_kth_item(cpus, monkeypatch):
    # 6 items over 3 shares: process w of k = cpus computes items w, w + k, ...
    fake_cpus(monkeypatch, cpus)
    assert strides._width(3) == cpus
    pids = list(strides.imap(lambda i: os.getpid(), range(6), 3))
    assert pids[0] == os.getpid()
    assert pids == pids[:cpus] * (6 // cpus)
    assert len(set(pids)) == cpus
    assert_no_children()


def test_a_childs_exception_is_raised_in_its_turn(monkeypatch):
    fake_cpus(monkeypatch, 3)

    def fn(i):
        if i == 5:   # child 2's second item
            raise ZeroDivisionError(os.getpid())
        return i

    got = []
    with pytest.raises(ZeroDivisionError) as err:
        for result in strides.imap(fn, range(9), 3):
            got.append(result)
    assert got == [0, 1, 2, 3, 4]
    assert err.value.args[0] != os.getpid()   # it was raised in a child
    assert_no_children()


def test_generator_items_are_stepped_in_each_process_from_their_fork_time_state(monkeypatch):
    # each process steps its own copy of the generator from the item it had
    # reached at the fork, so every item is made once per process
    fake_cpus(monkeypatch, 3)
    made = []

    def items():
        for i in range(7):
            made.append(i)
            yield os.getpid(), i

    gen = items()
    assert next(gen)[1] == 0   # stepped once before imap sees it
    got = list(strides.imap(lambda item: (item[0] == os.getpid(), item[1] ** 2), gen, 3))
    assert [square for _, square in got] == [i * i for i in range(1, 7)]
    assert all(own for own, _ in got)   # every item was made in the process that mapped it
    assert made == list(range(7))       # this process made each item once
    assert_no_children()


def test_closing_imap_early_ends_every_child(monkeypatch):
    # the items are endless: only closing the generator ends the children
    fake_cpus(monkeypatch, 3)
    results = strides.imap(lambda i: i, itertools.count(), 3)
    assert next(results) == 0
    results.close()
    assert_no_children()
