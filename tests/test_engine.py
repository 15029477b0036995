"""Tests for the discrete-event core and the dumbbell simulation."""

import contextlib
import dataclasses
import gc
import io
import math
import random
import weakref

import pytest

from redqsim import cli
from redqsim.cli import report_rows
from redqsim.engine import (
    Bottleneck,
    EventKind,
    ConfigError,
    DumbbellSim,
    EventQueue,
    FlowGroup,
    Scenario,
    run_scenario,
)
from redqsim.red import RedParams, RedVariant, Verdict
from redqsim.tcp import Segment, TcpSender, TcpVariant

THREE_GROUPS = (
    FlowGroup("large", 20, 1500),
    FlowGroup("medium", 20, 750),
    FlowGroup("small", 20, 375),
)


def make_scenario(**overrides):
    defaults = dict(
        name="test",
        red_variant=RedVariant.RED_1,
        tcp_variant=TcpVariant.RENO,
        red=RedParams(),
        groups=THREE_GROUPS,
        duration_s=10.0,
        warmup_s=2.0,
        seed=1,
        bottleneck_delay_s=0.015,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def bernoulli_judge(loss_prob, cap):
    """Size-blind independent dropper, for calibration runs.

    A constant drop probability and an occupancy cap, as a bottleneck
    judge: (q, packet_len, u) -> Verdict.
    """
    if not 0.0 <= loss_prob < 1.0:
        raise ValueError("loss_prob must be in [0, 1)")

    def judge(q, _packet_len, u):
        if q >= cap:
            return Verdict.FORCED_DROP_BUFFER
        return Verdict.RANDOM_DROP if u < loss_prob else Verdict.ACCEPT

    return judge


# ---------------------------------------------------------------
# event queue
# ---------------------------------------------------------------

class TestEventQueue:
    def test_dispatch_orders_by_time_then_sequence(self):
        eq = EventQueue()
        order = []
        eq.schedule_at(eq.now + 0.5, EventKind.TIMER, lambda: order.append("late"))
        eq.schedule_at(eq.now + 0.1, EventKind.TIMER, lambda: order.append("early"))
        eq.schedule_at(eq.now + 0.1, EventKind.TIMER,
                       lambda: order.append("early-second"))
        eq.run(until=1.0)
        assert order == ["early", "early-second", "late"]

    def test_scheduling_in_the_past_rejected(self):
        eq = EventQueue()
        eq.schedule_at(eq.now + 0.2, EventKind.TIMER,
                       lambda: eq.schedule_at(0.1, EventKind.TIMER, lambda: None))
        with pytest.raises(RuntimeError):
            eq.run(until=1.0)

    def test_run_returns_drained_flag(self):
        eq = EventQueue()
        eq.schedule_at(eq.now + 0.1, EventKind.TIMER, lambda: None)
        assert eq.run(until=1.0) is True
        assert eq.now == 1.0

    def test_run_stops_at_horizon_with_pending_events(self):
        eq = EventQueue()
        fired = []
        eq.schedule_at(eq.now + 0.5, EventKind.TIMER, lambda: fired.append(1))
        eq.schedule_at(eq.now + 2.0, EventKind.TIMER, lambda: fired.append(2))
        assert eq.run(until=1.0) is False
        assert fired == [1]

    def test_events_within_nested_scheduling_keep_causality(self):
        eq = EventQueue()
        times = []

        def chain():
            times.append(eq.now)
            if len(times) < 5:
                eq.schedule_at(eq.now + 0.1, EventKind.TIMER, chain)

        eq.schedule_at(eq.now + 0.1, EventKind.TIMER, chain)
        eq.run(until=10.0)
        assert times == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])

    def test_nan_time_rejected(self):
        eq = EventQueue()
        with pytest.raises(RuntimeError):
            eq.schedule_at(math.nan, EventKind.TIMER, lambda: None)
        times = []
        for when in (0.5, 0.2):
            eq.schedule_at(when, EventKind.TIMER, lambda: times.append(eq.now))
        assert eq.run(until=1.0) is True
        assert times == [0.2, 0.5]

    @pytest.mark.parametrize("until", [math.nan, 0.5])
    def test_horizon_before_now_or_nan_rejected(self, until):
        eq = EventQueue()
        eq.schedule_at(0.2, EventKind.TIMER, lambda: None)
        eq.run(until=1.0)
        eq.schedule_at(1.5, EventKind.TIMER, lambda: None)
        with pytest.raises(RuntimeError):
            eq.run(until=until)
        assert (eq.now, eq.event_count) == (1.0, 1)
        assert eq.run(until=2.0) is True

    def test_event_at_until_fires_even_when_scheduled_during_the_run(self):
        eq = EventQueue()
        fired = []
        eq.schedule_at(0.5, EventKind.TIMER, lambda: eq.schedule_at(
            1.0, EventKind.TIMER, lambda: fired.append("scheduled at 0.5")))
        eq.schedule_at(1.0, EventKind.TIMER, lambda: fired.append("pending"))
        eq.schedule_at(math.nextafter(1.0, 2.0), EventKind.TIMER,
                       lambda: fired.append("after until"))
        assert eq.run(until=1.0) is False
        assert fired == ["pending", "scheduled at 0.5"]
        assert (eq.now, eq.event_count) == (1.0, 3)

    def test_event_count_accumulates_over_runs(self):
        eq = EventQueue()

        def spawn(when):
            return lambda: eq.schedule_at(when, EventKind.TIMER, lambda: None)

        eq.schedule_at(0.1, EventKind.TIMER, spawn(0.2))
        eq.schedule_at(1.5, EventKind.TIMER, spawn(1.6))
        eq.run(until=1.0)
        assert eq.event_count == 2
        eq.schedule_at(1.2, EventKind.TIMER, spawn(1.3))
        eq.run(until=2.0)
        assert eq.event_count == 6
        # Cleared events were never dispatched, so they are not counted.
        eq.schedule_at(2.5, EventKind.TIMER, lambda: None)
        eq.clear()
        assert eq.run(until=3.0) is True
        assert eq.event_count == 6

    def test_raising_handler_is_counted_and_the_queue_runs_again(self):
        eq = EventQueue()
        fired = []

        def boom():
            raise ValueError("boom")

        eq.schedule_at(0.1, EventKind.TIMER, boom)
        eq.schedule_at(0.2, EventKind.TIMER, lambda: fired.append(eq.now))
        with pytest.raises(ValueError, match="boom"):
            eq.run(until=1.0)
        assert (eq.now, eq.event_count, fired) == (0.1, 1, [])
        # A stop entry left at 1.0 would end the next run there, before 1.5.
        eq.schedule_at(1.5, EventKind.TIMER, lambda: fired.append(eq.now))
        assert eq.run(until=2.0) is True
        assert (eq.event_count, fired) == (3, [0.2, 1.5])

    @pytest.mark.parametrize("last, drained", [(None, True), (0.5, True),
                                               (1.0, False), (1.5, False)])
    def test_drained_only_when_the_heap_empties_before_until(self, last, drained):
        eq = EventQueue()
        if last is not None:
            eq.schedule_at(last, EventKind.TIMER, lambda: None)
        assert eq.run(until=1.0) is drained
        assert eq.now == 1.0


# ---------------------------------------------------------------
# scenario validation
# ---------------------------------------------------------------

class TestScenarioValidation:
    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(duration_s=0.0), "duration_s"),
            (dict(warmup_s=10.0), "warmup_s"),
            (dict(seed=-1), "seed"),
            (dict(bottleneck_rate_bps=0.0), "bottleneck_rate_mbps"),
            (dict(bottleneck_delay_s=-0.001), "bottleneck_delay_ms"),
            (dict(groups=(FlowGroup("g", 0, 1500),)), "flows"),
            (dict(groups=(FlowGroup("g", 1, 40),)), "mtu"),
            (dict(groups=(FlowGroup("g", 1, 3000),)), "mtu"),
            (dict(groups=(FlowGroup("a", 1, 750), FlowGroup("a", 1, 375))), "group"),
            (dict(duration_s=float("inf")), "duration_s"),
            (dict(bottleneck_rate_bps=float("inf")), "bottleneck_rate_mbps"),
            (dict(access_rate_bps=float("nan")), "access_rate_mbps"),
            (dict(bottleneck_delay_s=float("nan")), "bottleneck_delay_ms"),
            (dict(access_delay_s=float("nan")), "access_delay_ms"),
        ],
    )
    def test_invalid_fields_named(self, overrides, field):
        with pytest.raises(ConfigError) as err:
            make_scenario(**overrides)
        assert err.value.field == field

    def test_flow_count_sums_groups(self):
        assert make_scenario().flow_count == 60


# ---------------------------------------------------------------
# topology shape
# ---------------------------------------------------------------

class TestTopology:
    def test_lone_flow_first_ack_crosses_every_hop_once(self, monkeypatch):
        # A 1540-byte data packet (the mtu counts the 40-byte header)
        # crosses the sender access, bottleneck and receive access links,
        # each serializing it and adding its delay.  The acknowledgment
        # takes the access delay twice with no serialization, and the
        # reverse bottleneck's 40-byte serialization plus its delay.
        d, a = 0.007, 0.0013
        ack_times = []
        on_ack = TcpSender.on_ack

        def recording_on_ack(sender, seg, now):
            ack_times.append(now)
            return on_ack(sender, seg, now)

        monkeypatch.setattr(TcpSender, "on_ack", recording_on_ack)
        sim = DumbbellSim(make_scenario(
            red=RedParams(max_packet_size=1540),
            groups=(FlowGroup("solo", 1, 1540),), duration_s=2.0,
            warmup_s=1.0, bottleneck_delay_s=d, access_delay_s=a))
        sim.run()
        expected = (sim.start_times[0] + 2 * (1540 * 8 / 100e6)
                    + 1540 * 8 / 30e6 + 40 * 8 / 30e6 + 2 * d + 4 * a)
        assert abs(ack_times[0] - expected) <= 1e-12

    def test_receive_clock_queues_back_to_back_departures(self):
        # A receive access link slower than the bottleneck: the second
        # packet of a flow waits for the first to finish serializing, and
        # a packet of another flow does not.  Each delivery time is the
        # receive clock plus the access delay.
        eq = EventQueue()
        rate, prop, recv_rate, recv_delay = 30e6, 0.002, 1e6, 0.0005
        got = {}
        link = Bottleneck(eq, rate, prop, lambda seg: got.setdefault(seg.seq, eq.now),
                          bernoulli_judge(0.0, 10), random.Random(1), lambda _f: 0, 1,
                          recv_rate, recv_delay, 2)
        for seq, flow_id in ((0, 0), (1, 0), (2, 1)):
            link.send(Segment(flow_id, seq=seq, payload=1460))
        eq.run(until=1.0)
        tx, recv_tx = 1500 * 8.0 / rate, 1500 * 8.0 / recv_rate
        clock_0 = tx + prop + recv_tx
        clock_1 = tx + tx + tx + prop + recv_tx
        assert got == {0: clock_0 + recv_delay, 1: clock_0 + recv_tx + recv_delay,
                       2: clock_1 + recv_delay}
        assert link.recv_free_at == [clock_0 + recv_tx, clock_1]
        assert link.departed == 3

    def test_ack_queue_departure_leaves_before_a_same_time_arrival(self, monkeypatch):
        # A one-ACK return queue with no access delay: the first ACK
        # departs at `done`; an ACK just before then finds the queue full,
        # and one at `done` itself finds it empty.  The flow never starts,
        # and the run ends before any ACK reaches the sender.
        monkeypatch.setattr(DumbbellSim, "_start_flow", lambda _sim, _flow: None)
        sim = DumbbellSim(make_scenario(
            red=RedParams(min_th=0.0, max_th=1.0, buffer_cap=1),
            groups=(FlowGroup("solo", 1, 1500),), access_delay_s=0.0,
            duration_s=0.01, warmup_s=0.0))
        done = 40 * 8.0 / 30e6
        seg = Segment(0, seq=0, payload=1460)
        for when in (0.0, math.nextafter(done, 0.0), done):
            sim.eq.schedule_at(when, EventKind.ARRIVAL,
                               lambda: sim._data_reaches_receiver(seg))
        sim.run()
        assert (sim.reverse_arrivals, sim.reverse_drops) == (3, 1)


# ---------------------------------------------------------------
# determinism and conservation
# ---------------------------------------------------------------

class TestDeterminism:
    def test_same_seed_gives_identical_reports_and_csv(self):
        sc = make_scenario()
        first = run_scenario(sc)
        second = run_scenario(sc)
        assert first == second
        assert report_rows(first) == report_rows(second)

    def test_different_seeds_differ(self):
        first = run_scenario(make_scenario(seed=1))
        second = run_scenario(make_scenario(seed=2))
        assert first.bottleneck.arrivals != second.bottleneck.arrivals


class TestConservation:
    @pytest.mark.parametrize("variant", list(RedVariant), ids=lambda v: v.value)
    def test_bottleneck_audit_conserves_packets(self, variant):
        report = run_scenario(make_scenario(red_variant=variant, duration_s=6.0,
                                            warmup_s=1.0))
        audit = report.bottleneck
        assert audit.arrivals == audit.accepted + audit.drops_total
        assert audit.accepted == audit.departed + audit.residual_q
        assert audit.conserved

    def test_audit_catches_arrivals_without_a_verdict(self, monkeypatch):
        # Every arrival is counted, but every 50th is discarded unjudged.
        send = Bottleneck.send
        seen = [0]

        def leaky_send(link, seg):
            seen[0] += 1
            if seen[0] % 50:
                send(link, seg)
            else:
                link.arrivals[link.group_of(seg.flow_id)] += 1

        monkeypatch.setattr(Bottleneck, "send", leaky_send)
        report = run_scenario(make_scenario(duration_s=6.0, warmup_s=1.0))
        audit = report.bottleneck
        assert audit.arrivals != audit.accepted + audit.drops_total
        assert audit.accepted == audit.departed + audit.residual_q
        assert not audit.conserved

    def test_admission_judges_the_link_backlog(self):
        # The backlog is the only copy of the queue length: a burst into a
        # cap-3 queue is judged at q = 0, 1, 2, 3, 3 and leaves 3 queued.
        eq = EventQueue()
        link = Bottleneck(eq, 1e6, 0.0, lambda _seg: None,
                          bernoulli_judge(0.0, 3), random.Random(1), lambda _f: 0, 1,
                          100e6, 0.0, 1)
        for _ in range(5):
            link.send(Segment(0, seq=0, payload=1460))
        assert (link.arrivals, link.accepted, link.drops_buffer, link.max_q) == (
            [5], [3], [2], 3)
        assert len(link.backlog) == 3
        eq.run(until=1.0)
        assert (link.departed, len(link.backlog)) == (3, 0)

    def test_occupancy_never_exceeds_buffer_cap(self):
        report = run_scenario(make_scenario(duration_s=6.0, warmup_s=1.0))
        assert report.bottleneck.max_q <= report.bottleneck.arrivals
        assert report.bottleneck.max_q <= 200


# ---------------------------------------------------------------
# behavior checks
# ---------------------------------------------------------------

class TestBehavior:
    def test_zero_groups_gives_empty_report(self):
        report = run_scenario(make_scenario(groups=()))
        assert report.groups == ()
        assert report.total_goodput_bps == 0.0
        assert report.bottleneck.arrivals == 0
        assert not report.stalled

    def test_single_flow_fills_bottleneck_when_red_is_idle(self):
        # Thresholds pushed to the buffer ceiling keep RED out of the way, so
        # one greedy flow should hold the bottleneck near its payload rate.
        sc = make_scenario(
            groups=(FlowGroup("solo", 1, 1500),),
            red=RedParams(min_th=150.0, max_th=190.0, buffer_cap=200),
            duration_s=20.0,
            warmup_s=4.0,
        )
        report = run_scenario(sc)
        payload_rate = 30e6 * (1460 / 1500)
        assert report.total_goodput_bps == pytest.approx(payload_rate, rel=0.05)

    def test_goodput_counts_only_unique_payload(self):
        # Under forced random loss, goodput must stay below the capacity share
        # even though retransmissions add to wire throughput.
        sc = make_scenario(duration_s=8.0, warmup_s=2.0)
        lossy = run_scenario(sc, judge=bernoulli_judge(0.05, 200))
        assert lossy.bottleneck.drops_random > 0
        assert lossy.total_goodput_bps < 30e6

    def test_timeouts_fire_at_the_deadline_and_none_is_skipped(self, monkeypatch):
        calls = []
        on_timeout = TcpSender.on_timeout

        def recording_on_timeout(sender, now):
            calls.append((now, sender.rto_deadline))
            return on_timeout(sender, now)

        monkeypatch.setattr(TcpSender, "on_timeout", recording_on_timeout)
        sc = make_scenario(duration_s=6.0, warmup_s=1.0)
        sim = DumbbellSim(sc, judge=bernoulli_judge(0.05, 200))
        sim.run()
        assert calls
        assert all(now == deadline for now, deadline in calls)
        assert all(f.sender.rto_deadline is None
                   or f.sender.rto_deadline > sc.duration_s
                   for f in sim.flows)

    def test_group_tcp_health_sums_sender_counters_over_the_window(self, monkeypatch):
        # Every windowed group figure is its end value minus its value at
        # warmup: the bottleneck's arrivals and drops by cause, and the
        # senders' timeouts, fast retransmits and retransmits.  Goodput is
        # the receivers' delivered bytes in the window over the window.
        # The RED_1 gatekeeper leaves every one of them nonzero at warmup.
        tallies = ("arrivals", "drops_random", "drops_forced_avg", "drops_buffer")
        names = ("timeouts", "fast_retransmits", "retransmits")
        marks, delivered_marks, link_marks = [], [], {}
        take = DumbbellSim._take_warmup_mark

        def recording_take(sim):
            marks.extend([getattr(f.sender, n) for n in names] for f in sim.flows)
            delivered_marks.extend(f.receiver.delivered_bytes for f in sim.flows)
            link_marks.update((n, list(getattr(sim.bottleneck_link, n))) for n in tallies)
            take(sim)

        monkeypatch.setattr(DumbbellSim, "_take_warmup_mark", recording_take)
        sc = make_scenario(duration_s=6.0, warmup_s=2.0)
        sim = DumbbellSim(sc)
        report = sim.run()
        want = [[0, 0, 0] for _ in report.groups]
        delivered = [0] * len(report.groups)
        for idx, (flow, mark, base) in enumerate(zip(sim.flows, marks, delivered_marks)):
            g_idx = sim.group_of(idx)
            delivered[g_idx] += flow.receiver.delivered_bytes - base
            for k, name in enumerate(names):
                want[g_idx][k] += getattr(flow.sender, name) - mark[k]
        got = [[getattr(g, n) for n in names] for g in report.groups]
        assert got == want
        assert all(g.timeouts > 0 and g.fast_retransmits > 0 for g in report.groups)
        assert any(m != [0, 0, 0] for m in marks)
        link = sim.bottleneck_link
        for name in tallies:
            assert all(link_marks[name]), name
            assert [getattr(g, name) for g in report.groups] == [
                end - base for end, base in zip(getattr(link, name), link_marks[name])]
        interval_s = sc.duration_s - sc.warmup_s
        assert all(delivered_marks)
        assert [g.goodput_bps for g in report.groups] == [
            d * 8.0 / interval_s for d in delivered]
        # The CSV does not read them.
        blank = dataclasses.replace(report, groups=tuple(
            dataclasses.replace(g, timeouts=0, fast_retransmits=0, retransmits=0)
            for g in report.groups))
        assert report_rows(blank) == report_rows(report)

    def test_stalled_run_is_reported(self, monkeypatch):
        # A sender that never emits anything drains the event queue early;
        # the report must flag the stall rather than staying silent.
        monkeypatch.setattr(TcpSender, "start", lambda self, now: [])
        report = run_scenario(make_scenario(duration_s=10.0, warmup_s=2.0))
        assert report.stalled


# ---------------------------------------------------------------
# memory: a dropped simulator is freed by reference counting
# ---------------------------------------------------------------

SWEEP_BASE = """\
schema = 1
name = gc-sweep
red_variant = RED_1
tcp = reno
w_q = 0.002
min_th = 40
max_th = 120
max_p = 0.1
buffer_cap = 200
max_packet_size = 1500
duration_s = 2
warmup_s = 1
seed = 5

[group large]
flows = 2
mtu = 1500

[group small]
flows = 2
mtu = 375
"""


@contextlib.contextmanager
def cyclic_collector_off():
    """Disable gc, after collecting what is already garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        yield
    finally:
        if enabled:
            gc.enable()


def short_sim():
    return DumbbellSim(make_scenario(duration_s=2.0, warmup_s=1.0))


def unrun_sim(_monkeypatch):
    return short_sim()


def ran_sim(_monkeypatch):
    sim = short_sim()
    sim.run()
    return sim


def raised_sim(monkeypatch):
    on_ack = TcpSender.on_ack
    calls = [0]

    def failing_on_ack(sender, seg, now):
        calls[0] += 1
        if calls[0] > 5:
            raise RuntimeError("planted on_ack failure")
        return on_ack(sender, seg, now)

    monkeypatch.setattr(TcpSender, "on_ack", failing_on_ack)
    sim = short_sim()
    with pytest.raises(RuntimeError, match="planted"):
        sim.run()
    return sim


class TestNoReferenceCycles:
    @pytest.mark.parametrize("build", [unrun_sim, ran_sim, raised_sim],
                             ids=["unrun", "ran", "raised"])
    def test_dropped_simulator_is_freed_at_once(self, build, monkeypatch):
        with cyclic_collector_off():
            sim = build(monkeypatch)
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
            assert gc.collect() == 0

    def test_serial_sweep_leaves_no_cyclic_garbage(self, tmp_path):
        path = tmp_path / "base.scn"
        path.write_text(SWEEP_BASE)
        out = io.StringIO()
        with cyclic_collector_off():
            rc = cli.cmd_sweep(str(path), "RED_1", "reno", "15,80", None, None,
                               jobs=1, stdout=out, stderr=io.StringIO())
            assert gc.collect() == 0
        assert rc == 0
        assert out.getvalue().count("\n") == 1 + 2 * 2  # header, 2 cells x 2 groups
