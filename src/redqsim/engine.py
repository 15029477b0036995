"""Deterministic discrete-event core and the shared-bottleneck topology.

Events are ordered by (time, insertion sequence), so simultaneous
events fire in the order they were scheduled and a run is a pure
function of its scenario.  A single seeded generator supplies all
randomness: per-flow start jitter is drawn first, in flow order, then
one uniform draw per data arrival at the guarded bottleneck queue, in
event order.  Every event goes through EventQueue.schedule_at, looked
up on the queue at each call so that a wrapper installed on the class
sees it, with a bound method or a functools.partial of one as its
zero-argument handler, never a per-event closure.  schedule_at refuses
any time before now, so the clock never runs backwards.
EventQueue.run(until) ends at a stop entry that sorts after every event
at until, so the loop makes no horizon test and keeps no count per
event; event_count is derived from the pushes, the entries left and
those dropped by clear().

The topology is a dumbbell: every sender reaches the first router over
its own access link, the two routers exchange traffic over a pair of
one-way bottleneck links (data direction guarded by the drop
gatekeeper, whose judge answers each arrival with a red.Verdict or
the run raises; return direction a plain bounded FIFO), and every
receiver hangs off the second router on its own access link, so the
round-trip floor is twice the bottleneck delay plus four access delays.
Receive access links are per-flow clocks; sender access links and the data
bottleneck keep their service events, whose same-time ties with
gatekeeper arrivals fix the event order.  The data bottleneck's far
end has no event: Bottleneck owns the receive clocks, a departing
packet goes straight to its flow's clock with the time a far-end
arrival event would have had, and Bottleneck schedules the receiver
event.  That keeps the bytes, because one server departs packets one at
a time, so each flow's far-end times reach its receive clock in
departure order, with the same operands, and every receiver event keeps
its time.  Each flow keeps at most one pending retransmission-timer
entry.  The return queue is a deque of departure times: every ACK
reaches it one access delay after its receiver event, in receiver-event
order, so that event serves it and schedules only its arrival at the
sender.  Tie rule: a departure at the instant an ACK arrives leaves
first, which matters only when the queue is full then.  Departure times
never decrease and every ACK reaches its sender a fixed delay after its
departure, so the ACK events fire in the order they were scheduled: the
receiver event appends the ACK to one FIFO and schedules a bound method
that pops the oldest, with no functools.partial per ACK.

The report reads a per-group ledger (DumbbellSim.ledger) whose rows
count, from the start of the run, the bottleneck's arrivals, accepts and
drops by cause, then the group's delivered bytes, timeouts, fast
retransmits and retransmits.  The warmup event stores one as the mark
and run() takes another: the window is end minus mark, row by row.

A simulator connects the bottleneck's receiver events and its ACK
handler to itself only inside run(), and drops the events still pending
past the horizon when run() returns or raises.  Outside run() it
therefore holds no reference cycle, and it is freed as soon as its last
reference goes, with no work left for the cyclic garbage collector.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import random
from collections import deque
from dataclasses import dataclass
from functools import partial
from heapq import heapify, heappop, heappush
from typing import Callable

from .config import ConfigError, Field, check_fields
from .red import (ACCEPT, FORCED_DROP_AVG, FORCED_DROP_BUFFER, RANDOM_DROP,
                  VARIANT_EXPONENTS, RedParams, RedState, RedVariant, Verdict, decide)
from .tcp import HEADER_BYTES, MAX_MSS, Segment, TcpReceiver, TcpSender, TcpVariant
from . import metrics


# ---------------------------------------------------------------
# event core
# ---------------------------------------------------------------

class EventKind(enum.Enum):
    FLOW_START = "flow_start"
    ARRIVAL = "arrival_at_node"
    LINK_DONE = "link_service_complete"
    TIMER = "timer_expiry"
    MEASUREMENT = "measurement_boundary"


ARRIVAL, LINK_DONE, TIMER = EventKind.ARRIVAL, EventKind.LINK_DONE, EventKind.TIMER


class EventQueue:
    """Binary-heap scheduler with stable same-time ordering.

    Heap entries are (time, sequence, callback) tuples; the sequence
    number is unique, so ties never reach the callback.  Callers pass
    the absolute time, now + delay for a delay.  schedule_at(when,
    kind, fn) keeps that signature, and the kind is accepted but not
    stored, because instrumentation wraps it to count the events of
    each kind.

    run(until) pushes one stop entry, (until, inf, None), which sorts
    after every event at until, those scheduled during the run
    included, and before every later one; popping it ends the run, so
    the loop tests nothing else per event.  Nothing counts events as
    they fire: every entry schedule_at pushed has fired, is still
    pending or was dropped by clear(), and run() derives event_count
    from those three.
    """

    def __init__(self):
        self.now = 0.0
        self._heap: list[tuple[float, float, Callable[[], None] | None]] = []
        self._seq = 0
        self._cleared = 0
        self.event_count = 0

    def schedule_at(self, when: float, kind: EventKind, fn: Callable[[], None]) -> None:
        # Written so that a NaN time fails too.
        if not when >= self.now:
            raise RuntimeError(f"cannot schedule an event at {when!r} (now {self.now!r})")
        heappush(self._heap, (when, self._seq, fn))
        self._seq += 1

    def clear(self) -> None:
        """Drop every pending event, releasing its handler."""
        self._cleared += len(self._heap)
        self._heap.clear()

    def run(self, until: float) -> bool:
        """Dispatch events up to and including time `until`.

        Returns True if the queue drained before reaching `until`.  A
        handler that raises is counted, and its exception propagates
        with the stop entry taken back out, so the queue can run again.
        """
        # The stop entry is an event at until: one before now would move
        # the clock back, and a NaN one would break the heap order.
        if not until >= self.now:
            raise RuntimeError(f"cannot run until {until!r} (now {self.now!r})")
        heap = self._heap
        stop = (until, math.inf, None)
        heappush(heap, stop)
        try:
            while True:
                when, _seq, fn = heappop(heap)
                if fn is None:
                    break
                self.now = when
                fn()
        except BaseException:
            heap.remove(stop)
            heapify(heap)
            raise
        finally:
            self.event_count = self._seq - self._cleared - len(heap)
        drained = not heap and self.now < until
        self.now = until
        return drained


# ---------------------------------------------------------------
# router queues and links
# ---------------------------------------------------------------

class Link:
    """One-way FIFO link: serialization, then propagation.

    The backlog holds the waiting packets and, at its head, the one in
    service, so a non-empty backlog means busy.  The head's service ends
    wire_bytes * 8.0 / rate_bps after it reaches the head, and the packet
    reaches the far end prop_delay_s after that, as one ARRIVAL event
    that calls deliver(seg).
    """

    def __init__(
        self,
        eq: EventQueue,
        rate_bps: float,
        prop_delay_s: float,
        deliver: Callable[[Segment], None],
    ):
        self.eq = eq
        self.rate_bps = rate_bps
        self.prop_delay_s = prop_delay_s
        self.deliver = deliver
        self.backlog: deque[Segment] = deque()

    def send(self, seg: Segment) -> None:
        backlog = self.backlog
        backlog.append(seg)
        if len(backlog) == 1:
            eq = self.eq
            eq.schedule_at(eq.now + seg.wire_bytes * 8.0 / self.rate_bps, LINK_DONE,
                           self._finish_service)

    def _finish_service(self) -> None:
        backlog = self.backlog
        seg = backlog.popleft()
        eq = self.eq
        now = eq.now
        eq.schedule_at(now + self.prop_delay_s, ARRIVAL, partial(self.deliver, seg))
        if backlog:
            eq.schedule_at(now + backlog[0].wire_bytes * 8.0 / self.rate_bps,
                           LINK_DONE, self._finish_service)


class Bottleneck(Link):
    """The guarded router queue: judges, tallies, departs and delivers.

    Every arrival takes exactly one uniform draw, whatever the verdict,
    so the random stream depends only on the arrival order.  A packet
    that finds q packets in the backlog (the only copy of the queue
    length) is judged by judge(q, packet_len, u) -> Verdict, as a bound
    red.decide is, and tallied by group with its verdict.

    Whole-run tallies: arrivals, accepted, drops_random, drops_forced_avg
    and drops_buffer hold one count per group, the ledger's first five
    columns; departed counts departures and max_q is the peak occupancy.
    Accepts are counted, so the audit sees a packet that got no verdict.

    The far end has no event.  A departure is tallied and goes straight
    to its flow's receive clock, the receive access link's next idle
    time: with arrive = now + prop_delay_s, the clock moves to
    max(arrive, clock) + wire_bytes * 8.0 / recv_rate_bps, and deliver(seg)
    runs as the ARRIVAL event recv_delay_s after that.  That gives the
    bytes of a far-end arrival event, because one server departs packets
    one at a time, so each flow's far-end times reach its clock in
    departure order, with the same operands.  A simulator builds it with
    deliver None and connects it only inside run(), because that callback
    is an edge of the simulator's reference ring.
    """

    def __init__(
        self,
        eq: EventQueue,
        rate_bps: float,
        prop_delay_s: float,
        deliver: Callable[[Segment], None] | None,
        judge: Callable[[int, int, float], Verdict],
        rng: random.Random,
        group_of: Callable[[int], int],
        n_groups: int,
        recv_rate_bps: float,
        recv_delay_s: float,
        n_flows: int,
    ):
        super().__init__(eq, rate_bps, prop_delay_s, deliver)
        self.judge = judge
        self.rng = rng
        self.group_of = group_of
        self.arrivals = [0] * n_groups
        self.accepted = [0] * n_groups
        self.drops_random = [0] * n_groups
        self.drops_forced_avg = [0] * n_groups
        self.drops_buffer = [0] * n_groups
        self.departed = 0
        self.max_q = 0
        self.recv_rate_bps = recv_rate_bps
        self.recv_delay_s = recv_delay_s
        self.recv_free_at = [0.0] * n_flows

    def send(self, seg: Segment) -> None:
        g = self.group_of(seg.flow_id)
        backlog = self.backlog
        q = len(backlog)
        self.arrivals[g] += 1
        verdict = self.judge(q, seg.wire_bytes, self.rng.random())
        if verdict is ACCEPT:
            self.accepted[g] += 1
            if q >= self.max_q:
                self.max_q = q + 1
            backlog.append(seg)
            if not q:
                eq = self.eq
                eq.schedule_at(eq.now + seg.wire_bytes * 8.0 / self.rate_bps,
                               LINK_DONE, self._finish_service)
        elif verdict is RANDOM_DROP:
            self.drops_random[g] += 1
        elif verdict is FORCED_DROP_AVG:
            self.drops_forced_avg[g] += 1
        elif verdict is FORCED_DROP_BUFFER:
            self.drops_buffer[g] += 1
        else:
            raise TypeError(f"judge answered {verdict!r}, which is not a red.Verdict")

    def _finish_service(self) -> None:
        backlog = self.backlog
        seg = backlog.popleft()
        eq = self.eq
        now = eq.now
        self.departed += 1
        arrive = now + self.prop_delay_s
        clocks = self.recv_free_at
        free = clocks[seg.flow_id]
        if arrive >= free:
            free = arrive
        free += seg.wire_bytes * 8.0 / self.recv_rate_bps
        clocks[seg.flow_id] = free
        eq.schedule_at(free + self.recv_delay_s, ARRIVAL, partial(self.deliver, seg))
        if backlog:
            eq.schedule_at(now + backlog[0].wire_bytes * 8.0 / self.rate_bps,
                           LINK_DONE, self._finish_service)


# ---------------------------------------------------------------
# scenario
# ---------------------------------------------------------------

@dataclass(frozen=True)
class FlowGroup:
    """flow_count flows sending mtu-byte packets; Scenario checks it."""

    name: str
    flow_count: int
    mtu: int


# Key, type, conversion from file text, rule and what it requires.  The
# name comes from the file's [group NAME] header, not from a key.
GROUP_FIELDS = (
    Field("group", str, None, bool, "name must be non-empty", name="name"),
    Field("flows", int, int, lambda v: v >= 1, "must be >= 1", name="flow_count"),
    Field("mtu", int, int, lambda v: v > HEADER_BYTES,
          f"must exceed the {HEADER_BYTES}-byte header"),
)


@dataclass(frozen=True)
class Scenario:
    """One run's inputs, checked whole: a Scenario that constructs also runs.

    Each field is checked by its SCENARIO_FIELDS row, and each group by
    GROUP_FIELDS.
    """

    name: str
    red_variant: RedVariant
    tcp_variant: TcpVariant
    red: RedParams
    groups: tuple[FlowGroup, ...]
    duration_s: float = 60.0
    warmup_s: float = 10.0
    seed: int = 1
    bottleneck_rate_bps: float = 30e6
    access_rate_bps: float = 100e6
    bottleneck_delay_s: float = 0.015
    access_delay_s: float = 0.001

    def __post_init__(self) -> None:
        check_fields(self, SCENARIO_FIELDS)
        if not 0.0 <= self.warmup_s < self.duration_s:
            raise ConfigError("warmup_s", "must satisfy 0 <= warmup_s < duration_s")
        # Two segments of mtu - HEADER_BYTES must fit the senders' receive window.
        mtu_cap = min(self.red.max_packet_size, MAX_MSS + HEADER_BYTES)
        names = set()
        for g in self.groups:
            if not isinstance(g, FlowGroup):
                raise ConfigError("group", f"must be a FlowGroup, got {g!r}")
            check_fields(g, GROUP_FIELDS, f" in group {g.name!r}")
            if g.name in names:
                raise ConfigError("group", f"duplicate group name {g.name!r}")
            names.add(g.name)
            if g.mtu > mtu_cap:
                raise ConfigError("mtu", f"group {g.name!r} mtu exceeds {mtu_cap}, the lesser of "
                                         f"max_packet_size and {MAX_MSS + HEADER_BYTES}")

    def with_seed(self, seed: int) -> "Scenario":
        return dataclasses.replace(self, seed=seed)

    def with_cell(self, *, name: str, red_variant: RedVariant,
                  tcp_variant: TcpVariant, bottleneck_delay_s: float,
                  seed: int) -> "Scenario":
        """One sweep cell: the base scenario with grid axes overridden."""
        return dataclasses.replace(
            self,
            name=name,
            red_variant=red_variant,
            tcp_variant=tcp_variant,
            bottleneck_delay_s=bottleneck_delay_s,
            seed=seed,
        )


def mbps_to_bps(mbps: str | float) -> float:
    """A rate given in Mbit/s, as file text or a number, in bit/s."""
    return float(mbps) * 1e6


def ms_to_s(ms: str | float) -> float:
    """A time given in ms, as file text or a number, in seconds."""
    return float(ms) / 1e3


_CSV_SPECIALS = frozenset(',"\r\n')
# Key, type, conversion from file text, rule and what it requires; a key
# absent from a file that need not give it leaves the field's default.
SCENARIO_FIELDS = (
    Field("name", str, str, lambda v: v and _CSV_SPECIALS.isdisjoint(v),
          "must be non-empty and hold no comma, double quote or line break "
          "(it is an unquoted CSV field)"),
    Field("red_variant", RedVariant, lambda raw: RedVariant(raw.strip().upper())),
    Field("tcp", TcpVariant, lambda raw: TcpVariant(raw.strip().lower()), name="tcp_variant"),
    Field("red", RedParams, None),
    Field("group", tuple, None, bool, "at least one flow group required", name="groups"),
    Field("duration_s", float, float, lambda v: v > 0.0, "must be > 0", required=False),
    Field("warmup_s", float, float, required=False),
    Field("seed", int, int, lambda v: v >= 0, "must be >= 0", required=False),
    Field("bottleneck_rate_mbps", float, mbps_to_bps, lambda v: v > 0.0,
          "must be > 0", name="bottleneck_rate_bps", required=False),
    Field("access_rate_mbps", float, mbps_to_bps, lambda v: v > 0.0,
          "must be > 0", name="access_rate_bps", required=False),
    Field("bottleneck_delay_ms", float, ms_to_s, lambda v: v >= 0.0,
          "must be >= 0", name="bottleneck_delay_s", required=False),
    Field("access_delay_ms", float, ms_to_s, lambda v: v >= 0.0,
          "must be >= 0", name="access_delay_s", required=False),
)


# ---------------------------------------------------------------
# dumbbell simulation
# ---------------------------------------------------------------

class _Flow:
    # timer_at: time of the one pending timer entry, or None.
    __slots__ = ("sender", "receiver", "access_link", "timer_at")

    def __init__(self, sender: TcpSender, receiver: TcpReceiver):
        self.sender = sender
        self.receiver = receiver
        self.access_link: Link | None = None
        self.timer_at: float | None = None


class DumbbellSim:
    """One configured experiment, ready to run.

    judge(q, packet_len, u) -> Verdict overrides the bottleneck's verdict
    rule, by default red.decide with the scenario's gatekeeper bound.  A
    departure from the bottleneck goes straight to its flow's receive
    clock inside Bottleneck, which schedules the receiver event.

    The bottleneck's far end and the ACK handler are connected only while
    run() dispatches events, and run() drops the events still pending past
    the horizon when it returns or raises; run() refuses a second call, so
    none of them could fire.  Outside run() the simulator holds no reference
    cycle, so it is freed as soon as it is dropped.
    """

    def __init__(self, scenario: Scenario, judge=None):
        self.scenario = scenario
        self.eq = EventQueue()
        self.rng = random.Random(scenario.seed)
        self.flows: list[_Flow] = []
        group_index: list[int] = []
        variant = scenario.tcp_variant
        for g_idx, group in enumerate(scenario.groups):
            for _ in range(group.flow_count):
                idx = len(self.flows)
                self.flows.append(_Flow(TcpSender(idx, variant, group.mtu - HEADER_BYTES),
                                        TcpReceiver(idx, variant)))
                group_index.append(g_idx)
        self.group_of = group_index.__getitem__
        # Start jitter is drawn before any other randomness, in flow order.
        self.start_times = [self.rng.random() for _ in self.flows]

        if judge is None:
            # Scenario bounds every mtu by max_packet_size: a valid length.
            # The state's q is unused: the bottleneck's backlog owns it.
            judge = partial(decide, RedState(), scenario.red,
                            VARIANT_EXPONENTS[scenario.red_variant])
        # Return-queue departure times (the length is the occupancy).
        self._ack_departures: deque[float] = deque()
        self.reverse_arrivals = 0
        self.reverse_drops = 0

        eq = self.eq
        self.bottleneck_link = Bottleneck(
            eq, scenario.bottleneck_rate_bps, scenario.bottleneck_delay_s,
            None, judge, self.rng, self.group_of, len(scenario.groups),
            scenario.access_rate_bps, scenario.access_delay_s, len(self.flows),
        )
        for flow in self.flows:
            flow.access_link = Link(
                eq, scenario.access_rate_bps, scenario.access_delay_s,
                self.bottleneck_link.send)
        self._finished = False

    # -------------------- wiring callbacks --------------------

    def _transmit(self, flow: _Flow, segments: list[Segment]) -> None:
        # Then push a timer entry if the sender's deadline moved earlier
        # than the pending one; a later deadline is re-pushed on expiry.
        send = flow.access_link.send
        for seg in segments:
            send(seg)
        deadline = flow.sender.rto_deadline
        if deadline is not None and (flow.timer_at is None or deadline < flow.timer_at):
            flow.timer_at = deadline
            self.eq.schedule_at(deadline, TIMER, partial(self._on_timer, flow))

    def _data_reaches_receiver(self, seg: Segment) -> None:
        # The ACK reaches the return queue one access delay from now, in
        # receiver-event order, so it is judged here after every departure
        # up to that instant, with a Link's float operations in its order.
        sc = self.scenario
        eq = self.eq
        now = eq.now
        ack = self.flows[seg.flow_id].receiver.on_data(seg)
        arrive = now + sc.access_delay_s
        departures = self._ack_departures
        while departures and departures[0] <= arrive:
            departures.popleft()
        self.reverse_arrivals += 1
        if len(departures) >= sc.red.buffer_cap:
            self.reverse_drops += 1
            return
        start = departures[-1] if departures else arrive
        done = start + ack.wire_bytes * 8.0 / sc.bottleneck_rate_bps
        departures.append(done)
        self._acks.append(ack)
        eq.schedule_at(
            (done + sc.bottleneck_delay_s) + sc.access_delay_s,
            ARRIVAL, self._deliver_ack,
        )

    def _ack_reaches_sender(self) -> None:
        # ACK events fire in the order they were scheduled (see the module
        # docstring), so this one's ACK is the oldest in the FIFO.  The body
        # is _transmit written out, which saves a frame per ACK.
        ack = self._acks.popleft()
        flow = self.flows[ack.flow_id]
        sender = flow.sender
        eq = self.eq
        send = flow.access_link.send
        for seg in sender.on_ack(ack, eq.now):
            send(seg)
        deadline = sender.rto_deadline
        if deadline is not None and (flow.timer_at is None or deadline < flow.timer_at):
            flow.timer_at = deadline
            eq.schedule_at(deadline, TIMER, partial(self._on_timer, flow))

    # -------------------- timers --------------------

    def _on_timer(self, flow: _Flow) -> None:
        now = self.eq.now
        if now != flow.timer_at:
            return  # superseded by an earlier entry
        flow.timer_at = None
        if flow.sender.rto_deadline == now:
            self._transmit(flow, flow.sender.on_timeout(now))
        else:
            self._transmit(flow, ())  # cleared, or moved later

    # -------------------- run --------------------

    def _start_flow(self, flow: _Flow) -> None:
        out = flow.sender.start(self.eq.now)
        self._transmit(flow, out)

    def ledger(self) -> list[list[int]]:
        """One row per group: the bottleneck's five tallies, then the sums of
        its flows' delivered bytes, timeouts, fast retransmits and retransmits."""
        link = self.bottleneck_link
        rows = [[*tallies, 0, 0, 0, 0] for tallies in zip(
            link.arrivals, link.accepted, link.drops_random,
            link.drops_forced_avg, link.drops_buffer)]
        for idx, flow in enumerate(self.flows):
            row = rows[self.group_of(idx)]
            row[5] += flow.receiver.delivered_bytes
            row[6] += flow.sender.timeouts
            row[7] += flow.sender.fast_retransmits
            row[8] += flow.sender.retransmits
        return rows

    def _take_warmup_mark(self) -> None:
        self._mark = self.ledger()

    def run(self) -> metrics.RunReport:
        if self._finished:
            raise RuntimeError("simulation already ran")
        self._finished = True
        sc = self.scenario
        for flow, start in zip(self.flows, self.start_times):
            self.eq.schedule_at(
                start, EventKind.FLOW_START, partial(self._start_flow, flow)
            )
        # warmup_s < duration_s, so this always fires before the run ends.
        self.eq.schedule_at(
            sc.warmup_s, EventKind.MEASUREMENT, self._take_warmup_mark
        )
        self._acks: deque[Segment] = deque()  # ACKs due at the senders
        # The far-end callback, the ACK handler and the pending events are
        # the only edges back to self, so they live only while events are
        # dispatched.
        self.bottleneck_link.deliver = self._data_reaches_receiver
        self._deliver_ack = self._ack_reaches_sender
        try:
            drained = self.eq.run(sc.duration_s)
        finally:
            self.bottleneck_link.deliver = None
            self._deliver_ack = None
            self.eq.clear()
            self._acks.clear()
        link = self.bottleneck_link
        return metrics.build_run_report(
            sc, self._mark, self.ledger(), link.departed, len(link.backlog),
            link.max_q, self.reverse_arrivals, self.reverse_drops,
            self.eq.event_count, drained)


def run_scenario(scenario: Scenario, judge=None) -> metrics.RunReport:
    return DumbbellSim(scenario, judge=judge).run()
