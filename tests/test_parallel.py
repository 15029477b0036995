"""Tests for the ordered parallel map and the parallel sweep built on it.

A parallel sweep must print the same bytes as a serial one, and no child
it forks may outlive it: not after it returns, not after it raises, and
not after its own process is killed.
"""

import contextlib
import dataclasses
import errno
import glob
import io
import os
import pathlib
import re
import signal
import subprocess
import sys
import time
import types

import pytest

from redqsim import cli, parallel
from redqsim.engine import run_scenario

SRC = pathlib.Path(__file__).parents[1] / "src"
DEFAULTS_SCN = pathlib.Path(__file__).parents[1] / "scenarios" / "defaults.scn"

SMALL_TEXT = """\
schema = 1
name = par
red_variant = RED_1
tcp = reno
w_q = 0.002
min_th = 40
max_th = 120
max_p = 0.1
buffer_cap = 200
max_packet_size = 1500
duration_s = 3
warmup_s = 1
seed = 5

[group large]
flows = 3
mtu = 1500

[group small]
flows = 3
mtu = 375
"""

needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                                reason="process table read from Linux /proc")
linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="the parent-death guard is Linux prctl")

PR_GET_PDEATHSIG = 2


def child_pids(pid: int) -> set[int]:
    """Every process whose parent is pid, zombies included."""
    kids = set()
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError:
            continue
        if int(text.rsplit(")", 1)[1].split()[1]) == pid:
            kids.add(int(path.split("/")[2]))
    return kids


def is_running(pid: int) -> bool:
    """True while pid exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.fixture
def two_cpus(monkeypatch):
    """Let two children run at once, whatever the host's core count."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.fixture
def forks(monkeypatch):
    """Counts the children started through parallel.start_child."""
    started = []
    real = parallel.start_child

    def counting(fn, item, inherited):
        started.append(item)
        return real(fn, item, inherited)

    monkeypatch.setattr(parallel, "start_child", counting)
    return started


@contextlib.contextmanager
def raising_after(seconds: float):
    """Raise TimeoutError in this process once `seconds` have passed."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reap_children() -> set[int]:
    """Kill and reap every child of this process; return their pids."""
    kids = child_pids(os.getpid())
    for pid in kids:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    return kids


def _slow_square(n):
    time.sleep(0.05 * (4 - n))  # later items finish first
    return n * n


def _fail_on_two(n):
    if n == 2:
        raise ZeroDivisionError("cell two")
    return n


# ---------------------------------------------------------------
# the helper
# ---------------------------------------------------------------

class TestOrderedMap:
    def test_results_come_back_in_item_order(self, two_cpus, forks):
        assert parallel.ordered_map(_slow_square, range(5), jobs=2) == [0, 1, 4, 9, 16]
        assert forks == [0, 1, 2, 3, 4]

    def test_effective_jobs_is_capped_by_cpus_and_items(self, two_cpus):
        assert parallel.effective_jobs(8, 5) == 2
        assert parallel.effective_jobs(8, 1) == 1
        assert parallel.effective_jobs(1, 5) == 1

    def test_no_fork_runs_every_item_in_process(self, two_cpus, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert parallel.effective_jobs(8, 5) == 1

    @needs_proc
    def test_refused_fork_closes_the_pipe(self, monkeypatch):
        def refused():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", refused)
        fds = set(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            parallel.start_child(_slow_square, 1, [])
        assert set(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_bad_jobs_rejected_before_any_fork(self, monkeypatch, jobs):
        monkeypatch.setattr(parallel, "start_child", _no_fork)
        with pytest.raises(ValueError, match="jobs"):
            parallel.ordered_map(_slow_square, range(3), jobs=jobs)

    @needs_proc
    def test_child_error_is_raised_with_its_traceback(self, two_cpus):
        with pytest.raises(parallel.WorkerError) as err:
            parallel.ordered_map(_fail_on_two, range(6), jobs=2)
        assert "item 2 raised" in str(err.value)
        assert "ZeroDivisionError: cell two" in str(err.value)
        assert child_pids(os.getpid()) == set()

    @needs_proc
    def test_silent_child_death_is_an_error(self, two_cpus):
        with pytest.raises(parallel.WorkerError, match="code 7"):
            parallel.ordered_map(os._exit, [7, 7, 7], jobs=2)
        assert child_pids(os.getpid()) == set()


def _two_mib(n):
    return bytes([n]) * (2 << 20)


def _print_square(n):
    print(f"child {n}")
    return n * n


def _death_signal(_item):
    """The signal this process is sent when its parent dies, 0 for none."""
    import ctypes
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    signum = ctypes.c_int(-1)
    if prctl(PR_GET_PDEATHSIG, ctypes.byref(signum), 0, 0, 0):
        raise OSError(ctypes.get_errno(), "prctl(PR_GET_PDEATHSIG) failed")
    return signum.value


def _no_libc(*_args, **_kwargs):
    raise OSError("stub: libc cannot be loaded")


def _refusing_libc(*_args, **_kwargs):
    """A libc whose prctl fails with EINVAL."""
    return types.SimpleNamespace(prctl=lambda *_args: -1)


class TestForkProtocol:
    @needs_proc
    def test_result_larger_than_the_pipe_buffer_comes_back_intact(self, two_cpus):
        with raising_after(30):
            results = parallel.ordered_map(_two_mib, range(3), jobs=2)
        assert results == [_two_mib(n) for n in range(3)]
        assert child_pids(os.getpid()) == set()

    def test_output_is_written_once_through_a_piped_stdout(self, monkeypatch, two_cpus):
        # A pipe is block-buffered, so a line the parent has not flushed
        # when it forks is copied into every child.
        reader, writer = os.pipe()
        piped = os.fdopen(writer, "w")
        monkeypatch.setattr(sys, "stdout", piped)
        print("before")
        assert parallel.ordered_map(_print_square, range(3), jobs=2) == [0, 1, 4]
        print("after")
        piped.close()
        with os.fdopen(reader) as pipe:
            lines = pipe.read().splitlines()
        assert lines[0] == "before" and lines[-1] == "after"
        assert sorted(lines[1:-1]) == ["child 0", "child 1", "child 2"]

    @needs_proc
    def test_hung_children_are_killed_and_reaped_when_the_parent_raises(self, two_cpus):
        start = time.monotonic()
        with pytest.raises(TimeoutError), raising_after(0.5):
            parallel.ordered_map(time.sleep, [30, 30, 30], jobs=2)
        assert time.monotonic() - start < 5
        assert reap_children() == set()  # zombies count as left behind

    @linux_only
    def test_every_child_asks_for_sigkill_on_parent_death(self, two_cpus):
        # fork clears the setting, so each child must ask for it itself.
        assert parallel.ordered_map(_death_signal, range(3), jobs=2) == [signal.SIGKILL] * 3

    @linux_only
    @needs_proc
    # ctypes stand-ins for the child: libc does not load, or prctl fails.
    @pytest.mark.parametrize("stub, error", [
        (types.SimpleNamespace(CDLL=_no_libc), "OSError: stub: libc cannot be loaded"),
        (types.SimpleNamespace(CDLL=_refusing_libc, c_int=None, c_ulong=None,
                               get_errno=lambda: errno.EINVAL),
         "OSError: [Errno 22] prctl(PR_SET_PDEATHSIG) failed"),
    ], ids=["no-libc", "prctl-fails"])
    def test_guard_that_cannot_be_set_is_raised_with_its_traceback(self, monkeypatch,
                                                                   two_cpus, stub, error):
        monkeypatch.setitem(sys.modules, "ctypes", stub)
        with pytest.raises(parallel.WorkerError) as err:
            parallel.ordered_map(abs, range(3), jobs=2)
        assert re.match(r"item [01] raised in its child:", str(err.value))
        assert error in str(err.value)
        assert child_pids(os.getpid()) == set()

    @pytest.mark.parametrize("argv, loaded", [
        ("sweep --base {scn} --variants RED_1,RED_3 --tcp reno --delays-ms 15 "
         "--jobs 2 --out {out}", ["pickle", "select"]),
        ("run --scenario {scn} --out {out}", []),
    ], ids=["parallel-sweep", "serial-run"])
    def test_fresh_interpreter_prints_once_and_loads_no_multiprocessing(self, tmp_path,
                                                                          argv, loaded):
        path = tmp_path / "par.scn"
        path.write_text(SMALL_TEXT)
        argv = argv.format(scn=path, out=tmp_path / "out.csv").split()
        # stdout is a pipe and buffering is left on, so "before" sits
        # unflushed in the buffer when the sweep forks, and must still be
        # written once.
        code = ("import os, sys; os.cpu_count = lambda: 2\n"
                "from redqsim.cli import main\n"
                "print('before')\n"
                "rc = main(sys.argv[1:])\n"
                "print(rc, *[m for m in ('ctypes', 'multiprocessing', 'pickle', 'select')"
                " if m in sys.modules])")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, timeout=60, env=dict(env, PYTHONPATH=str(SRC)))
        assert done.stdout.split() == ["before", "0", *loaded], done.stderr


def _no_fork(*_args, **_kwargs):
    raise AssertionError("a child was forked")


# ---------------------------------------------------------------
# the parallel sweep
# ---------------------------------------------------------------

def _sweep(path, jobs):
    out, err = io.StringIO(), io.StringIO()
    rc = cli.cmd_sweep(path, "RED_4", "reno,sack", "15,80", None, None, jobs,
                       env={}, stdout=out, stderr=err)
    return rc, out.getvalue(), err.getvalue()


class TestParallelSweep:
    @needs_proc
    def test_serial_and_parallel_print_the_same_bytes(self, tmp_path, monkeypatch,
                                                      two_cpus, forks):
        path = tmp_path / "par.scn"
        path.write_text(SMALL_TEXT)

        # One cell is starved of access bandwidth, so it stalls (exit 3).
        def starve_one(scenario):
            if scenario.name == "par/RED_4-sack-15ms":
                scenario = dataclasses.replace(scenario, access_rate_bps=1e-3)
            return run_scenario(scenario)

        monkeypatch.setattr(cli, "run_scenario", starve_one)
        serial = _sweep(str(path), 1)
        assert forks == []
        parallel_run = _sweep(str(path), 2)
        assert len(forks) == 4
        assert child_pids(os.getpid()) == set()

        assert parallel_run == serial
        rc, out, err = serial
        assert rc == cli.EXIT_RUNTIME
        assert len(out.splitlines()) == 1 + 4 * 2
        assert [line.split(": ")[:2] for line in err.splitlines()] == [
            ["runtime diagnostic", "scenario 'par/RED_4-sack-15ms'"]] * 3
        assert "stalled: no packet reached the bottleneck in 3 s" in err

    @needs_proc
    def test_killed_sweep_leaves_no_child_running(self, tmp_path):
        path = tmp_path / "long.scn"
        path.write_text(DEFAULTS_SCN.read_text())
        code = ("import sys; from redqsim.cli import main; sys.exit(main(sys.argv[1:]))")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "sweep", "--base", str(path),
             "--variants", "RED_1,RED_5", "--tcp", "reno", "--delays-ms", "15",
             "--jobs", "2"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        kids: set[int] = set()
        try:
            deadline = time.monotonic() + 30
            while len(kids) < 2 and time.monotonic() < deadline:
                assert proc.poll() is None, "the sweep ended before both children existed"
                kids = child_pids(proc.pid)
                time.sleep(0.02)
            assert len(kids) == 2
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            deadline = time.monotonic() + 5
            while any(map(is_running, kids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in kids if is_running(pid)] == []
        finally:
            proc.kill()
            proc.wait()
            for pid in kids:
                if is_running(pid):
                    os.kill(pid, signal.SIGKILL)
