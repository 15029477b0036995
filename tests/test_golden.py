"""Byte-level lock on the CSV rows of short three-group runs.

Each digest is the sha256 of ``cli.report_rows`` joined by newlines for
the 60-flow, three-MTU dumbbell at 15 ms, 5 s simulated with a 1 s
warmup and seed 1.  The digests were taken before the variant table,
the shared queue counters and the tuple event heap replaced the code
they pin, so a refactor that changes one CSV byte fails here in
seconds rather than in the acceptance run.  RED_2 is the only variant
whose denominator scales count by s, and no benchmark workload runs it
through the engine, so this is its only byte-level guard.
"""

import hashlib

import pytest

from redqsim.cli import report_rows
from redqsim.engine import FlowGroup, Scenario, run_scenario
from redqsim.red import RedParams, RedVariant
from redqsim.tcp import TcpVariant

THREE_GROUPS = (
    FlowGroup("large", 20, 1500),
    FlowGroup("medium", 20, 750),
    FlowGroup("small", 20, 375),
)

GOLDEN = {
    ("RED_1", "reno"): "502f278049718db1da17eddc6597698e5492de39156b5aa1d4a09aa411d9c7e8",
    ("RED_2", "reno"): "f9e2476e6cd049a086d21075f2fc35605740ca2eba0944c6ff0b2a95b3456787",
    ("RED_3", "reno"): "9a2e9719957131e4aac4de670babfa122b4f5f95ac77f4c18d1f8095b2fc9746",
    ("RED_4", "reno"): "82946e75cd4cb89c7e5ab48d1cf351bb7fe5ac220b8462d4654e031bda2968f0",
    ("RED_5", "reno"): "d03fe63cb81edc2fb66c40f81897efec4db6f09a03e640e7371d747f2270f944",
    ("RED_5", "sack"): "46cd4867ec25ce2a4865afe2b7aebcbc8f23dcc900a39ccf097c21a2f722739b",
}


@pytest.mark.parametrize("variant, tcp", list(GOLDEN),
                         ids=[f"{v}-{t}" for v, t in GOLDEN])
def test_csv_rows_match_pinned_digest(variant, tcp):
    scenario = Scenario(
        name="golden",
        red_variant=RedVariant(variant),
        tcp_variant=TcpVariant(tcp),
        red=RedParams(),
        groups=THREE_GROUPS,
        duration_s=5.0,
        warmup_s=1.0,
        seed=1,
        bottleneck_delay_s=0.015,
    )
    rows = report_rows(run_scenario(scenario))
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == GOLDEN[(variant, tcp)], "\n".join(rows)
