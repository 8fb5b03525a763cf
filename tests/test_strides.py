"""The fork driver: `strides.width` picks the process count, `strides.deal`
runs the shares.  Each caller's end-to-end check lives with its caller."""

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
    assert [strides.width(n) for n in (1, 2, 7)] == [1, 2, 3]
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
