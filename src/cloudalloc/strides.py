"""An ordered map over independent items, computed by forked processes.

`imap(fn, items, shares)` yields fn(item) for each item, in order, as
`map` does; its callers' items are bifurcation grid points, Monte Carlo
trial chunks and the row blocks of a long output.  It takes k processes,
the smaller of `shares` and the usable CPUs: this process computes items
0, k, 2k, ... and child w, made by `os.fork`, items w, w + k, ...; each
process steps past the other items of its own fork-time copy of
`items`.  A child streams its results back pickled through a pipe, and
the caller takes them in turn, so it takes each child's result for
item i before it computes its own next one.  A child's write blocks
while its pipe is full, so it runs ahead of the caller by at most one
item and a pipe buffer (64 KiB on Linux).  Pickle carries floats and
ints bit for bit, so where fn(item) does not depend on the process that
computes it, every k gives the same results.

A forked child keeps only the forking thread, hence k = 1 (no fork)
while another Python thread runs.  numpy's OpenBLAS keeps a native
thread pool that `threading` does not count; OpenBLAS's own fork handler
stops that pool before the fork (the caller has one thread again when
`os.fork` returns), and no item calls a BLAS routine: the sweep kernel
is plain floats, a Monte Carlo chunk uses only numpy's Philox and
elementwise operations, and a row block formats floats.  A child also
runs a watcher thread that ends it as soon as the caller's end of a
"lifeline" pipe closes, so a child outlives its caller, or the caller's
exception, by no more than a thread switch.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading


def _width(shares: int) -> int:
    """The number of processes `imap` spreads `shares` shares over: 1 where
    `os.fork` is missing or another Python thread is running, else the
    smaller of `shares` and the usable CPUs (`os.sched_getaffinity`, else
    `os.cpu_count`), and at least 1."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(shares, cpus))


def _exit_when_closed(fd: int) -> None:
    """Block until every write end of the pipe `fd` reads from is closed,
    then end the process."""
    os.read(fd, 1)
    os._exit(1)


def _run_child(results, fd: int, lifeline: int, alive: int) -> None:
    """In a forked child: send each item of the iterable `results` through
    `fd` as a pickled ("item", item) record, then ("end", None), or
    ("raise", exc) for the exception computing them raised, and leave by
    os._exit.  The caller holds the only other write end of the `lifeline`
    pipe (`alive`): when the caller closes it or dies, a watcher thread
    sees the pipe close and ends the child."""
    status = 1
    try:
        os.close(alive)
        threading.Thread(target=_exit_when_closed, args=(lifeline,), daemon=True).start()
        with open(fd, "wb") as out:
            try:
                for item in results:
                    pickle.dump(("item", item), out)
                    out.flush()
                record = ("end", None)
            except BaseException as exc:  # the caller raises it
                record = ("raise", exc)
            pickle.dump(record, out)
        status = 0
    finally:
        os._exit(status)


def _received(pid: int, pipe):
    """The items child `pid` streams through `pipe`, ending at its end
    record or raising the exception it sent."""
    while True:
        try:
            tag, got = pickle.load(pipe)
        except EOFError:
            raise RuntimeError(f"worker {pid} exited without a result") from None
        if tag == "end":
            return
        if tag == "raise":
            raise got
        yield got


def imap(fn, items, shares: int):
    """Yield fn(item) for each item of the iterable `items`, in order.
    Process w of k = `_width(shares)` computes fn on items w, w + k, ...
    of its own fork-time copy of `items`: this process is w = 0, and each
    other w is a child made by `os.fork` (none at k = 1).

    An exception that fn or `items` raises in a child is raised here in
    its item's turn.  Every child is reaped before this returns, raises or
    is closed: on any exception, Ctrl-C included, and on an early close,
    this process first closes the lifeline, which ends the children still
    running; if it dies without raising (SIGKILL, say), the kernel closes
    it.
    """
    k = _width(shares)
    parent = os.getpid()
    pids, fds = [], []  # fds: the lifeline's two ends, then each child's item pipe
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
                    _run_child(map(fn, itertools.islice(items, w, None, k)), wfd, lifeline, alive)
            finally:
                os.close(wfd)
            pids.append(pid)
        streams = [map(fn, itertools.islice(items, 0, None, k))] + [
            _received(pid, open(rfd, "rb", closefd=False)) for pid, rfd in zip(pids, fds[2:])
        ]
        for stream in itertools.cycle(streams):
            try:
                item = next(stream)
            except StopIteration:
                return
            yield item
    except BaseException:
        if os.getpid() != parent:  # interrupted in a child before _run_child
            os._exit(1)
        raise
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
