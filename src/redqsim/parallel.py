"""Ordered parallel map over one-shot forked children.

``ordered_map(fn, items, jobs)`` returns ``[fn(item) for item in items]``.
With more than one job it runs each item in its own child, forked from
this process, so ``fn`` and the items are never pickled; only the result
is, on its way back up a one-way pipe.  At most ``jobs`` children are
alive at once, and the next item starts when one finishes.

No child can outlive the call:

- a child runs exactly one item, sends its result and exits through
  ``os._exit``; no worker ever waits for more work;
- a child closes the read ends it inherited, so a write to a dead parent
  fails;
- on Linux a child asks for SIGKILL when the thread that forked it dies
  (``PR_SET_PDEATHSIG``), then exits at once if that parent is already
  gone;
- on any exception, the parent kills and joins every live child before
  the exception leaves this module.

A child that raises sends back its traceback text, and the parent raises
``WorkerError`` with it.  Where ``os.fork`` does not exist, every item
runs in-process.  ``multiprocessing`` is imported only for a parallel map,
so a serial run does not pay for its modules.
"""

from __future__ import annotations

import functools
import os
import signal
import sys
import traceback

PR_SET_PDEATHSIG = 1


class WorkerError(RuntimeError):
    """An item failed in its child: it raised, or the child died silently."""


def effective_jobs(jobs: int, item_count: int) -> int:
    """The number of children a map over item_count items runs at once."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(jobs, os.cpu_count() or 1, item_count))


@functools.cache
def _prctl():
    """libc's prctl on Linux, else None."""
    if not sys.platform.startswith("linux"):
        return None
    import ctypes
    try:
        return ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return None


def _child(fn, item, parent_pid, inherited, writer) -> None:
    for reader in inherited:
        reader.close()
    prctl = _prctl()
    if prctl is not None:
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent_pid:
        os._exit(1)
    try:
        message = (True, fn(item))
    except BaseException:
        message = (False, traceback.format_exc())
    writer.send(message)


def start_child(fn, item, inherited):
    """Fork one child that runs fn(item); return (process, read end)."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    child = context.Process(
        target=_child, args=(fn, item, os.getpid(), inherited + [reader], writer))
    try:
        child.start()
    except BaseException:
        reader.close()
        raise
    finally:
        writer.close()
    return child, reader


def ordered_map(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], over at most `jobs` forked children.

    At an effective job count of 1 (see effective_jobs) fn runs in this
    process, with no fork.
    """
    items = list(items)
    jobs = effective_jobs(jobs, len(items))
    if jobs == 1:
        return [fn(item) for item in items]
    from multiprocessing.connection import wait

    _prctl()  # resolve once, before the first fork
    results = [None] * len(items)
    pending = iter(enumerate(items))
    live: dict = {}  # read end -> (item index, process)

    def start_next() -> None:
        entry = next(pending, None)
        if entry is not None:
            child, reader = start_child(fn, entry[1], list(live))
            live[reader] = (entry[0], child)

    try:
        for _ in range(jobs):
            start_next()
        while live:
            for reader in wait(list(live)):
                index, child = live.pop(reader)
                try:
                    ok, payload = reader.recv()
                except EOFError:
                    child.join()
                    raise WorkerError(
                        f"item {index}: child exited with code {child.exitcode} "
                        "before sending a result") from None
                finally:
                    reader.close()
                child.join()
                if not ok:
                    raise WorkerError(f"item {index} raised in its child:\n{payload}")
                results[index] = payload
                start_next()
    finally:
        for reader, (_index, child) in live.items():
            child.kill()
            child.join()
            reader.close()
    return results
