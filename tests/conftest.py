"""Helpers for the tests of `strides.imap`'s callers, which fake the usable
CPUs to choose how many processes the fork driver takes."""

import os

import pytest


def fake_cpus(monkeypatch, n):
    """Make the process look as if it may run on n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
