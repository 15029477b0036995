"""A deterministic budget for the Python frames on the per-packet path.

Every Python function call the engine and TCP make while a short run
dispatches its events is counted under sys.setprofile and divided by the
run's bottleneck arrivals.  The count does not depend on how fast the
host is, so a frame that comes back to the hot path fails here, where a
wall-clock benchmark could miss it in its noise.  Each budget is the
count this code reaches plus 5 %; the code before the hot-path rewrite
made 31.4 calls per arrival on the Reno run and 41.6 on the SACK run
(CPython 3.11).
"""

import sys

import pytest

from redqsim.engine import DumbbellSim, FlowGroup, Scenario
from redqsim.red import RedParams, RedVariant
from redqsim.tcp import TcpVariant

REACHED = {"reno": 17.96, "sack": 19.77}


def calls_per_arrival(tcp: str) -> float:
    sim = DumbbellSim(Scenario(
        name="budget", red_variant=RedVariant.RED_4, tcp_variant=TcpVariant(tcp),
        red=RedParams(),
        groups=(FlowGroup("large", 4, 1500), FlowGroup("medium", 4, 750),
                FlowGroup("small", 4, 375)),
        duration_s=3.0, warmup_s=1.0, seed=1))
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        report = sim.run()
    finally:
        sys.setprofile(previous)
    return calls / report.bottleneck.arrivals


@pytest.mark.parametrize("tcp", sorted(REACHED))
def test_calls_per_bottleneck_arrival_within_budget(tcp):
    measured = calls_per_arrival(tcp)
    assert measured <= REACHED[tcp] * 1.05, f"{measured:.2f} calls per arrival"
