"""Ordered parallel map over one-shot forked children.

``ordered_map(fn, items, jobs)`` returns ``[fn(item) for item in items]``.
With more than one job each item runs in its own child, made by
``os.fork``, so ``fn`` and the items are never pickled; only the result
is, on its way back up the child's one-way ``os.pipe``.  At most ``jobs``
children are alive at once, and the next item starts when one finishes.

No child can outlive the call:

- a child runs one item, sends its result and leaves through
  ``os._exit``, never back into the caller's stack;
- a child closes the read ends it inherited, so its write to a dead
  parent fails;
- on Linux a child loads ``ctypes`` and asks libc's ``prctl`` for SIGKILL
  when the thread that forked it dies (``PR_SET_PDEATHSIG``), then exits
  at once if that parent is gone;
- on any exception, the parent kills and reaps every live child.

A child that raises, or cannot set that guard, sends back its traceback
text, and the parent raises ``WorkerError`` with it.  Where ``os.fork``
does not exist, every item runs in-process.  ``pickle`` and ``select``
are imported only for a parallel map, so a serial run does not load
them; ``ctypes`` is imported only in the children, so the parent never
loads it.
"""

from __future__ import annotations

import functools
import itertools
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


def _child(fn, item, parent_pid, inherited, writer):
    """Run fn(item) in a forked child and send the pickled outcome; never returns.

    The child resolves prctl itself, so the parent never loads ctypes.
    Setting the death signal runs where an error in fn(item) would, so a
    guard that cannot be set goes up as a traceback too.
    """
    try:
        for reader in inherited:
            os.close(reader)
        import pickle
        try:
            if sys.platform.startswith("linux"):
                import ctypes
                prctl = ctypes.CDLL(None, use_errno=True).prctl
                prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
                prctl.restype = ctypes.c_int
                if prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0):
                    raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
            if os.getppid() != parent_pid:
                os._exit(1)  # the parent died before the guard was set
            message = pickle.dumps((True, fn(item)), pickle.HIGHEST_PROTOCOL)
        except BaseException:
            message = pickle.dumps((False, traceback.format_exc()))
        with open(writer, "wb") as pipe:
            pipe.write(message)
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(0)
    finally:
        os._exit(1)


def start_child(fn, item, inherited):
    """Fork a child that runs fn(item) and closes `inherited`; return (pid, read fd)."""
    parent_pid = os.getpid()
    reader, writer = os.pipe()
    try:
        sys.stdout.flush()  # else a child flushes its copy of unwritten output
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            _child(fn, item, parent_pid, inherited + [reader], writer)
    except BaseException:
        os.close(reader)
        raise
    finally:
        os.close(writer)
    return pid, reader


def ordered_map(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], over at most `jobs` forked children.

    At an effective job count of 1 (see effective_jobs) fn runs in this
    process, with no fork.  The parent waits for a child with no time
    bound: a child that hangs holds the call until an exception in the
    parent, such as Ctrl-C, kills and reaps every live child and leaves.
    """
    items = list(items)
    jobs = effective_jobs(jobs, len(items))
    if jobs == 1:
        return [fn(item) for item in items]
    import pickle
    import select
    results = [None] * len(items)
    pending = enumerate(items)
    live: dict = {}  # read fd -> (item index, pid)
    poller = select.poll()
    try:
        while True:
            for index, item in itertools.islice(pending, jobs - len(live)):
                pid, reader = start_child(fn, item, list(live))
                live[reader] = (index, pid)
                poller.register(reader, select.POLLIN)
            if not live:
                return results
            for reader, _event in poller.poll():
                index, pid = live[reader]
                data = b"".join(iter(functools.partial(os.read, reader, 1 << 16), b""))
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del live[reader]
                poller.unregister(reader)
                os.close(reader)
                if not data:
                    raise WorkerError(
                        f"item {index}: child exited with code {code} before sending a result")
                ok, payload = pickle.loads(data)
                if not ok:
                    raise WorkerError(f"item {index} raised in its child:\n{payload}")
                results[index] = payload
    finally:
        for reader, (_index, pid) in live.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(reader)
