"""Tier-1 watchdog: a test that runs longer than BOUND_S ends the session.

faulthandler dumps every thread's stack to the terminal and exits with
status 1, so a hang names where it is stuck instead of running until an
outside timeout.  The bound is armed around each test's whole protocol,
setup and teardown included, so it also covers the module fixture that
the first test of a module builds: the slowest, test_acceptance's
simulations, takes about 34 s on two cores, and a whole Tier-1 run about
a minute.  A forked child has no watchdog thread; the parent waiting on
it does.
"""

import contextlib
import faulthandler
import io
import os

import pytest

BOUND_S = 300.0

_TERMINAL = pytest.StashKey[io.TextIOWrapper]()  # stderr, duplicated


def pytest_configure(config):
    # Under capture, fd 2 is a temporary file that an exit throws away.
    capture = config.pluginmanager.getplugin("capturemanager")
    with capture.global_and_fixture_disabled() if capture else contextlib.nullcontext():
        config.stash[_TERMINAL] = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    config.stash[_TERMINAL].close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(BOUND_S, exit=True,
                                      file=item.config.stash[_TERMINAL])
    yield
    faulthandler.cancel_dump_traceback_later()
