"""Byte-level lock on the CSV rows of short three-group runs.

Each digest is the sha256 of ``cli.report_rows`` joined by newlines for
the 60-flow, three-MTU dumbbell at 15 ms, 5 s simulated with a 1 s
warmup and seed 1.  The digests were taken before the variant table,
the shared queue counters and the tuple event heap replaced the code
they pin, so a refactor that changes one CSV byte fails here in
seconds rather than in the acceptance run.  RED_2 is the only variant
whose denominator scales count by s, and no benchmark workload runs it
through the engine, so this is its only byte-level guard.

Two more digests lock the regimes where same-time ties between router
events decide the order: a 0.1 ms access delay, shorter than the
0.41 ms bottleneck serialization of a 1540-byte packet, and zero
propagation delay on every hop.  They were taken before the lazy RTO
timer, the per-flow receive clocks and the plain-delay ACK hops
replaced the per-ACK timer entries, the receive links and the ACK
wires.

The last digest locks the regime where the acknowledgment queue itself
overflows: a two-packet buffer, 400 flows behind 5 Mbit/s access links
and zero delay on every hop, where ACK arrivals and departures at that
queue can share an instant.  The run drops ACKs.  The digest was taken
before the return queue moved from a link with its own service events
into the receiver event, and was not re-pinned after.

Beside the digests of the GOLDEN and TIE_FRAGILE runs sit their
RunReport.event_count values, which pin the event structure as well as
the bytes.  They were first taken before the per-event cost cuts
(partial and bound-method handlers, the slotted segment with a stored
wire size, the receiver's in-order fast path) landed, so a change that
makes an event cheaper must also leave every event in place.  They were
re-pinned once, when the bottleneck's far-end arrival event went and a
departing packet started going straight to its receive clock: each
value is the old one minus the far-end events that run fired before,
counted by wrapping the far-end handler, while every digest stayed.
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

GOLDEN_EVENTS = {
    ("RED_1", "reno"): 98192,
    ("RED_2", "reno"): 156279,
    ("RED_3", "reno"): 112626,
    ("RED_4", "reno"): 128236,
    ("RED_5", "reno"): 156331,
    ("RED_5", "sack"): 161115,
}


# (variant, tcp, bottleneck delay s, access delay s) -> digest
TIE_FRAGILE = {
    ("RED_4", "reno", 0.015, 0.0001): "008b6ff8fc00dde4760a35d27dfa06bf3cc463e1d24c9ddca96a6c2c0df16b46",
    ("RED_5", "sack", 0.0, 0.0): "88183fdbb534406814c574bd5849f51a0f418441b937822897b15baccc0dddf5",
}

TIE_FRAGILE_EVENTS = {
    ("RED_4", "reno", 0.015, 0.0001): 134355,
    ("RED_5", "sack", 0.0, 0.0): 174716,
}


def rows_digest(variant, tcp, bottleneck_delay_s, access_delay_s=0.001):
    scenario = Scenario(
        name="golden",
        red_variant=RedVariant(variant),
        tcp_variant=TcpVariant(tcp),
        red=RedParams(),
        groups=THREE_GROUPS,
        duration_s=5.0,
        warmup_s=1.0,
        seed=1,
        bottleneck_delay_s=bottleneck_delay_s,
        access_delay_s=access_delay_s,
    )
    report = run_scenario(scenario)
    rows = report_rows(report)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest(), rows, report.event_count


@pytest.mark.parametrize("variant, tcp", list(GOLDEN),
                         ids=[f"{v}-{t}" for v, t in GOLDEN])
def test_csv_rows_match_pinned_digest(variant, tcp):
    digest, rows, events = rows_digest(variant, tcp, 0.015)
    assert digest == GOLDEN[(variant, tcp)], "\n".join(rows)
    assert events == GOLDEN_EVENTS[(variant, tcp)]


@pytest.mark.parametrize("case", list(TIE_FRAGILE),
                         ids=[f"{v}-{t}-d{d}-a{a}" for v, t, d, a in TIE_FRAGILE])
def test_tie_fragile_rows_match_pinned_digest(case):
    digest, rows, events = rows_digest(*case)
    assert digest == TIE_FRAGILE[case], "\n".join(rows)
    assert events == TIE_FRAGILE_EVENTS[case]


REVERSE_DROP_DIGEST = "72da17546466f31980a81521eb8f76bac2b60cbdbf35615f5e2b3ef7d1b14c47"


def test_reverse_drop_rows_match_pinned_digest():
    scenario = Scenario(
        name="rev",
        red_variant=RedVariant.RED_5,
        tcp_variant=TcpVariant.SACK,
        red=RedParams(min_th=1, max_th=2, buffer_cap=2),
        groups=(FlowGroup("large", 200, 1500), FlowGroup("tiny", 200, 41)),
        duration_s=3.0,
        warmup_s=0.5,
        seed=3,
        access_rate_bps=5e6,
        bottleneck_delay_s=0.0,
        access_delay_s=0.0,
    )
    report = run_scenario(scenario)
    rows = report_rows(report)
    assert report.reverse_drops > 0
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == \
        REVERSE_DROP_DIGEST, "\n".join(rows)
