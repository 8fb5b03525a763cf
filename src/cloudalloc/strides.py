"""Strided shares of independent work, dealt to forked processes.

A caller splits its independent items -- bifurcation grid points, Monte
Carlo trial chunks -- into k strided shares, share w taking items w,
w + k, w + 2k, ...; `width` picks k, and `deal` runs share 0 in this
process and each other share in a child made by `os.fork`, which sends
its result back pickled through a pipe.  Pickle carries floats and ints
bit for bit, so where an item does not depend on the process that
computes it, every k gives the same result.

A forked child keeps only the forking thread, hence k = 1 (no fork)
while another Python thread runs.  numpy's OpenBLAS keeps a native
thread pool that `threading` does not count; OpenBLAS's own fork handler
stops that pool before the fork (the caller has one thread again when
`os.fork` returns), and no share calls a BLAS routine: the sweep kernel
is plain floats, and a Monte Carlo share uses only numpy's Philox and
elementwise operations.  A child also runs a watcher thread that ends it
as soon as the caller's end of a "lifeline" pipe closes, so a child
outlives its caller, or the caller's exception, by no more than a thread
switch.
"""

from __future__ import annotations

import os
import pickle
import threading


def width(shares: int) -> int:
    """The number of processes to deal `shares` shares to: 1 where
    `os.fork` is missing or another Python thread is running, else the
    smaller of `shares` and the usable CPUs (`os.sched_getaffinity`, else
    `os.cpu_count`)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(shares, cpus)


def _exit_when_closed(fd: int) -> None:
    """Block until every write end of the pipe `fd` reads from is closed,
    then end the process."""
    os.read(fd, 1)
    os._exit(1)


def _run_child(stride, w: int, fd: int, lifeline: int, alive: int) -> None:
    """In a forked child: send stride(w)'s result, or the exception it
    raised, pickled through `fd`, and leave by os._exit.  The caller holds
    the only other write end of the `lifeline` pipe (`alive`): when the
    caller closes it or dies, a watcher thread sees the pipe close and
    ends the child."""
    status = 1
    try:
        os.close(alive)
        threading.Thread(target=_exit_when_closed, args=(lifeline,), daemon=True).start()
        try:
            got = stride(w)
        except BaseException as exc:  # the caller raises it
            got = exc
        with open(fd, "wb") as out:
            pickle.dump(got, out)
        status = 0
    finally:
        os._exit(status)


def deal(stride, k: int) -> list:
    """[stride(0), ..., stride(k-1)]: stride(0) runs in this process and
    each other share in a child made by `os.fork` (none at k = 1).

    An exception a child's share raises is raised here once stride(0)
    has returned.  Every child is reaped before this returns or raises:
    on any exception, Ctrl-C included, this process first closes the
    lifeline, which ends the children still running; if it dies without
    raising (SIGKILL, say), the kernel closes it.
    """
    parent = os.getpid()
    pids, fds = [], []  # fds: the lifeline's two ends, then each child's result pipe
    try:
        if k > 1:
            lifeline, alive = os.pipe()
            fds += [lifeline, alive]
        for w in range(1, k):
            rfd, wfd = os.pipe()
            fds.append(rfd)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(stride, w, wfd, lifeline, alive)
            finally:
                os.close(wfd)
            pids.append(pid)
        results = [stride(0)]
        for pid, rfd in zip(pids, fds[2:]):
            with open(rfd, "rb", closefd=False) as pipe:
                try:
                    got = pickle.load(pipe)
                except EOFError:
                    raise RuntimeError(f"worker {pid} exited without a result") from None
            if isinstance(got, BaseException):
                raise got
            results.append(got)
    except BaseException:
        if os.getpid() != parent:  # interrupted in a child before _run_child
            os._exit(1)
        raise
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
    return results
