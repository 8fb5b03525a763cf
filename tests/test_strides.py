"""The fork driver: `strides.width` picks the process count,
`strides.interleave` streams the shares and `strides.deal` runs one round
of it.  Each caller's end-to-end check lives with its caller."""

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
    assert [strides.width(n) for n in (0, 1, 2, 7)] == [1, 1, 2, 3]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert strides.width(400) == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert strides.width(400) == 1


@pytest.mark.parametrize("k", [1, 2, 3, 9])
def test_results_come_back_in_stride_order_bit_for_bit(k):
    caller = os.getpid()

    def stride(w):
        here = os.getpid() == caller
        return w, here, [math.nan, -0.0, math.inf, 0.1 * w, 2**70 + w]

    pack = struct.Struct("<d").pack
    got = strides.deal(stride, k)
    assert [(w, here) for w, here, _ in got] == [(w, w == 0) for w in range(k)]
    for w, _, values in got:
        assert [pack(v) for v in values[:4]] == [
            pack(v) for v in (math.nan, -0.0, math.inf, 0.1 * w)
        ]
        assert values[4] == 2**70 + w
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
        assert strides.width(7) == 1
    finally:
        release.set()
        other.join()
    assert strides.deal(lambda w: [w], 1) == [[0]]
    monkeypatch.delattr(os, "fork")
    assert strides.width(7) == 1


def test_child_exception_is_raised_in_the_caller():
    caller = os.getpid()

    def stride(w):
        if os.getpid() != caller:
            raise ZeroDivisionError(os.getpid())
        return w

    with pytest.raises(ZeroDivisionError) as err:
        strides.deal(stride, 3)
    assert err.value.args[0] != caller   # it was raised in a child
    assert_no_children()


def test_a_child_that_sends_nothing_is_an_error():
    caller = os.getpid()

    def stride(w):
        if os.getpid() != caller:
            os._exit(0)
        return w

    with pytest.raises(RuntimeError, match=r"worker \d+ exited without a result"):
        strides.deal(stride, 2)
    assert_no_children()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_interleave_yields_round_robin_up_to_the_first_empty_share(cpus, monkeypatch):
    fake_cpus(monkeypatch, cpus)
    k = strides.width(3)
    assert k == cpus
    caller = os.getpid()

    def share(w):
        # shares 0, 1, 2 have 3, 1 and 2 items
        for i in range((3, 1, 2)[w]):
            yield w, i, os.getpid() == caller

    got = list(strides.interleave(share, k))
    want = {1: [(0, 0), (0, 1), (0, 2)], 2: [(0, 0), (1, 0), (0, 1)],
            3: [(0, 0), (1, 0), (2, 0), (0, 1)]}[k]
    assert [(w, i) for w, i, _ in got] == want
    assert [here for w, _, here in got] == [w == 0 for w, _ in want]
    assert_no_children()


def test_interleave_raises_a_childs_exception_in_its_turn():
    def share(w):
        yield w, 0
        if w == 2:
            raise ZeroDivisionError(os.getpid())
        yield w, 1

    got = []
    with pytest.raises(ZeroDivisionError) as err:
        for item in strides.interleave(share, 3):
            got.append(item)
    assert got == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
    assert err.value.args[0] != os.getpid()   # it was raised in a child
    assert_no_children()


def test_closing_interleave_early_ends_every_child():
    # every share is endless: only closing the generator ends the children
    items = strides.interleave(lambda w: itertools.count(w, 3), 3)
    assert next(items) == 0
    items.close()
    assert_no_children()
