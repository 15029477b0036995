"""Deterministic discrete-event core and the shared-bottleneck topology.

Events are ordered by (time, insertion sequence), so simultaneous
events fire in the order they were scheduled and a run is a pure
function of its scenario.  A single seeded generator supplies all
randomness: per-flow start jitter is drawn first, in flow order, then
one uniform draw per data arrival at the guarded bottleneck queue, in
event order.

The topology is a dumbbell: every sender reaches the first router over
its own access link, the two routers exchange traffic over a pair of
one-way bottleneck links (data direction guarded by the drop
gatekeeper, return direction a plain bounded FIFO), and every receiver
hangs off the second router on its own access link, so the round-trip
floor is twice the bottleneck delay plus four access delays.  Receive
access links are per-flow clocks; sender access links and the data
bottleneck keep their service events, whose same-time ties with
gatekeeper arrivals fix the event order.  Each flow keeps at most one
pending retransmission-timer entry.  The return queue is a deque of
departure times: every ACK reaches it one access delay after its
receiver event, in receiver-event order, so that event serves it and
schedules only its arrival at the sender.  Tie rule: a departure at the
instant an ACK arrives leaves first, which matters only when the queue
is full then.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .red import VARIANT_EXPONENTS, RedParams, RedState, RedVariant, Verdict, decide
from .tcp import Segment, TcpConfig, TcpReceiver, TcpSender, TcpVariant
from . import metrics


class ConfigError(ValueError):
    """Invalid scenario input; names the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


# ---------------------------------------------------------------
# event core
# ---------------------------------------------------------------

class EventKind(enum.Enum):
    FLOW_START = "flow_start"
    ARRIVAL = "arrival_at_node"
    LINK_DONE = "link_service_complete"
    TIMER = "timer_expiry"
    MEASUREMENT = "measurement_boundary"


class EventQueue:
    """Binary-heap scheduler with stable same-time ordering.

    Heap entries are (time, sequence, callback) tuples; the sequence
    number is unique, so ties never reach the callback.  The kind is
    accepted for instrumentation that wraps schedule_at, not stored.
    """

    def __init__(self):
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.event_count = 0

    def schedule(self, delay: float, kind: EventKind, fn: Callable[[], None]) -> None:
        self.schedule_at(self.now + delay, kind, fn)

    def schedule_at(self, when: float, kind: EventKind, fn: Callable[[], None]) -> None:
        if when < self.now - 1e-12:
            raise RuntimeError("cannot schedule into the past")
        heapq.heappush(self._heap, (when, self._seq, fn))
        self._seq += 1

    def run(self, until: float) -> bool:
        """Dispatch events up to and including time `until`.

        Returns True if the queue drained before reaching `until`.
        """
        heap = self._heap
        while heap and heap[0][0] <= until:
            when, _seq, fn = heapq.heappop(heap)
            self.now = when
            self.event_count += 1
            fn()
        drained = not heap and self.now < until
        self.now = until
        return drained


# ---------------------------------------------------------------
# admission policies for router queues
# ---------------------------------------------------------------

PER_GROUP_TALLIES = ("arrivals", "accepted", "drops_random",
                     "drops_forced_avg", "drops_buffer")


class QueueCounters:
    """Per-group arrival and verdict tallies at one queue, plus totals.

    Accepts are counted, not inferred from arrivals minus drops, so the
    conservation audit can see a packet that arrived and got no verdict.
    Subtracting the copy taken at the warmup boundary from the final
    counters gives the measurement window, which keeps the final max_q.
    """

    def __init__(self, n_groups: int):
        self.arrivals = [0] * n_groups
        self.accepted = [0] * n_groups
        self.drops_random = [0] * n_groups
        self.drops_forced_avg = [0] * n_groups
        self.drops_buffer = [0] * n_groups
        self.departed = 0
        self.max_q = 0

    def copy(self) -> "QueueCounters":
        return copy.deepcopy(self)

    def __sub__(self, mark: "QueueCounters") -> "QueueCounters":
        out = self.copy()
        for name in PER_GROUP_TALLIES:
            getattr(out, name)[:] = [
                x - y for x, y in zip(getattr(self, name), getattr(mark, name))
            ]
        out.departed -= mark.departed
        return out


class Admission:
    """Admission control for a router queue: one verdict rule per subclass.

    admit() judges a packet that finds q packets at the queue (the
    link's backlog, which owns the length) and tallies the arrival and
    its verdict by traffic group.
    """

    def __init__(self, group_of: Callable[[int], int], n_groups: int):
        self.group_of = group_of
        self.counters = QueueCounters(n_groups)

    def verdict(self, seg: Segment, q: int) -> Verdict:
        raise NotImplementedError

    def admit(self, seg: Segment, q: int) -> bool:
        c = self.counters
        g = self.group_of(seg.flow_id)
        c.arrivals[g] += 1
        verdict = self.verdict(seg, q)
        if verdict is Verdict.ACCEPT:
            c.accepted[g] += 1
            c.max_q = max(c.max_q, q + 1)
            return True
        if verdict is Verdict.RANDOM_DROP:
            c.drops_random[g] += 1
        elif verdict is Verdict.FORCED_DROP_AVG:
            c.drops_forced_avg[g] += 1
        else:
            c.drops_buffer[g] += 1
        return False


class RedAdmission(Admission):
    """Drop gatekeeper in front of a router queue.

    Consumes exactly one uniform draw per arriving packet, whatever
    branch the decision takes, so the random stream depends only on the
    arrival order.
    """

    def __init__(
        self,
        params: RedParams,
        variant: RedVariant,
        rng: random.Random,
        group_of: Callable[[int], int],
        n_groups: int,
    ):
        super().__init__(group_of, n_groups)
        self.params = params
        self.rng = rng
        self.state = RedState()  # its q is unused: the link owns the length
        self.row = VARIANT_EXPONENTS[variant]

    def verdict(self, seg: Segment, q: int) -> Verdict:
        # Scenario bounds every mtu by max_packet_size: a valid length.
        return decide(self.state, self.params, self.row, q, seg.wire_bytes,
                      self.rng.random())[0]


class BernoulliAdmission(Admission):
    """Size-blind independent dropper, for calibration runs.

    Same draw discipline as the gatekeeper, with a constant drop
    probability and an occupancy cap.
    """

    def __init__(
        self,
        loss_prob: float,
        cap: int,
        rng: random.Random,
        group_of: Callable[[int], int],
        n_groups: int,
    ):
        if not 0.0 <= loss_prob < 1.0:
            raise ValueError("loss_prob must be in [0, 1)")
        super().__init__(group_of, n_groups)
        self.loss_prob = loss_prob
        self.cap = cap
        self.rng = rng

    def verdict(self, seg: Segment, q: int) -> Verdict:
        u = self.rng.random()
        if q >= self.cap:
            return Verdict.FORCED_DROP_BUFFER
        if u < self.loss_prob:
            return Verdict.RANDOM_DROP
        return Verdict.ACCEPT


# ---------------------------------------------------------------
# links
# ---------------------------------------------------------------

class Link:
    """One-way link: optional admission, serialization, propagation.

    The backlog holds the waiting packets and, at its head, the one in
    service, so a non-empty backlog means busy.  Its length is the queue
    length that the admission judges.
    """

    def __init__(
        self,
        eq: EventQueue,
        rate_bps: float,
        prop_delay_s: float,
        deliver: Callable[[Segment], None],
        admission=None,
    ):
        self.eq = eq
        self.rate_bps = rate_bps
        self.prop_delay_s = prop_delay_s
        self.deliver = deliver
        self.admission = admission
        self.backlog: deque[Segment] = deque()

    def send(self, seg: Segment) -> None:
        if self.admission is not None and not self.admission.admit(seg, len(self.backlog)):
            return
        self.backlog.append(seg)
        if len(self.backlog) == 1:
            self._start_service()

    def _start_service(self) -> None:
        seg = self.backlog[0]
        tx_time = seg.wire_bytes * 8.0 / self.rate_bps
        self.eq.schedule(tx_time, EventKind.LINK_DONE, self._finish_service)

    def _finish_service(self) -> None:
        seg = self.backlog.popleft()
        if self.admission is not None:
            self.admission.counters.departed += 1
        self.eq.schedule(
            self.prop_delay_s, EventKind.ARRIVAL, lambda s=seg: self.deliver(s)
        )
        if self.backlog:
            self._start_service()


# ---------------------------------------------------------------
# scenario
# ---------------------------------------------------------------

@dataclass(frozen=True)
class FlowGroup:
    name: str
    flow_count: int
    mtu: int


@dataclass(frozen=True)
class Scenario:
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
        if not self.name:
            raise ConfigError("name", "must be non-empty")
        for field_name, value in (
            ("duration_s", self.duration_s),
            ("warmup_s", self.warmup_s),
            ("bottleneck_rate_mbps", self.bottleneck_rate_bps),
            ("access_rate_mbps", self.access_rate_bps),
            ("bottleneck_delay_ms", self.bottleneck_delay_s),
            ("access_delay_ms", self.access_delay_s),
        ):
            if not math.isfinite(value):
                raise ConfigError(field_name, "must be finite")
        if self.duration_s <= 0.0:
            raise ConfigError("duration_s", "must be > 0")
        if not 0.0 <= self.warmup_s < self.duration_s:
            raise ConfigError("warmup_s", "must satisfy 0 <= warmup_s < duration_s")
        if self.seed < 0:
            raise ConfigError("seed", "must be >= 0")
        if self.bottleneck_rate_bps <= 0.0:
            raise ConfigError("bottleneck_rate_mbps", "must be > 0")
        if self.access_rate_bps <= 0.0:
            raise ConfigError("access_rate_mbps", "must be > 0")
        if self.bottleneck_delay_s < 0.0:
            raise ConfigError("bottleneck_delay_ms", "must be >= 0")
        if self.access_delay_s < 0.0:
            raise ConfigError("access_delay_ms", "must be >= 0")
        seen = set()
        for g in self.groups:
            if not g.name:
                raise ConfigError("group", "group name must be non-empty")
            if g.name in seen:
                raise ConfigError("group", f"duplicate group name {g.name!r}")
            seen.add(g.name)
            if g.flow_count < 1:
                raise ConfigError("flows", f"group {g.name!r} needs flows >= 1")
            if g.mtu <= 40:
                raise ConfigError("mtu", f"group {g.name!r} mtu must exceed the 40-byte header")
            if g.mtu > self.red.max_packet_size:
                raise ConfigError(
                    "mtu",
                    f"group {g.name!r} mtu exceeds max_packet_size "
                    f"{self.red.max_packet_size}",
                )

    @property
    def flow_count(self) -> int:
        return sum(g.flow_count for g in self.groups)

    def rtt_floor_s(self) -> float:
        return 2.0 * (self.bottleneck_delay_s + 2.0 * self.access_delay_s)

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


# ---------------------------------------------------------------
# dumbbell simulation
# ---------------------------------------------------------------

class _Flow:
    # recv_free_at: when the receive access link is next idle;
    # timer_at: time of the one pending timer entry, or None.
    __slots__ = ("sender", "receiver", "access_link", "recv_free_at",
                 "timer_at")

    def __init__(self, sender: TcpSender, receiver: TcpReceiver):
        self.sender = sender
        self.receiver = receiver
        self.access_link: Link | None = None
        self.recv_free_at = 0.0
        self.timer_at: float | None = None


class DumbbellSim:
    """One configured experiment, ready to run.

    bottleneck_admission_factory overrides the data-direction queue policy:
    it receives the partially built simulation (rng and group_of are ready)
    and returns the admission object.  By default the scenario's drop
    gatekeeper guards the bottleneck.
    """

    def __init__(self, scenario: Scenario, bottleneck_admission_factory=None):
        self.scenario = scenario
        self.eq = EventQueue()
        self.rng = random.Random(scenario.seed)
        self.flows: list[_Flow] = []
        group_index: list[int] = []
        for g_idx, group in enumerate(scenario.groups):
            config = TcpConfig(variant=scenario.tcp_variant, mss=group.mtu - 40)
            for _ in range(group.flow_count):
                idx = len(self.flows)
                self.flows.append(
                    _Flow(TcpSender(idx, config), TcpReceiver(idx, config)))
                group_index.append(g_idx)
        self.group_of = group_index.__getitem__
        # Start jitter is drawn before any other randomness, in flow order.
        self.start_times = [self.rng.random() for _ in self.flows]

        if bottleneck_admission_factory is None:
            admission = RedAdmission(scenario.red, scenario.red_variant,
                                     self.rng, self.group_of, len(scenario.groups))
        else:
            admission = bottleneck_admission_factory(self)
        # Return-queue departure times (the length is the occupancy).
        self._ack_departures: deque[float] = deque()
        self.reverse_arrivals = 0
        self.reverse_drops = 0

        eq = self.eq
        self.bottleneck_link = Link(
            eq, scenario.bottleneck_rate_bps, scenario.bottleneck_delay_s,
            self._deliver_to_receiver_side, admission=admission,
        )
        for flow in self.flows:
            flow.access_link = Link(
                eq, scenario.access_rate_bps, scenario.access_delay_s,
                self.bottleneck_link.send)
        self._finished = False

    # -------------------- wiring callbacks --------------------

    def _transmit(self, flow: _Flow, segments: list[Segment]) -> None:
        for seg in segments:
            flow.access_link.send(seg)
        self._sync_timer(flow)

    def _deliver_to_receiver_side(self, seg: Segment) -> None:
        # Same float operations, in the same order, as a Link's service.
        sc = self.scenario
        flow = self.flows[seg.flow_id]
        flow.recv_free_at = (max(self.eq.now, flow.recv_free_at)
                             + seg.wire_bytes * 8.0 / sc.access_rate_bps)
        self.eq.schedule_at(
            flow.recv_free_at + sc.access_delay_s, EventKind.ARRIVAL,
            lambda: self._data_reaches_receiver(seg),
        )

    def _data_reaches_receiver(self, seg: Segment) -> None:
        # The ACK reaches the return queue one access delay from now, in
        # receiver-event order, so it is judged here after every departure
        # up to that instant, with a Link's float operations in its order.
        sc = self.scenario
        flow = self.flows[seg.flow_id]
        ack = flow.receiver.on_data(seg, self.eq.now)
        arrive = self.eq.now + sc.access_delay_s
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
        self.eq.schedule_at(
            (done + sc.bottleneck_delay_s) + sc.access_delay_s,
            EventKind.ARRIVAL, lambda: self._ack_reaches_sender(ack),
        )

    def _ack_reaches_sender(self, seg: Segment) -> None:
        flow = self.flows[seg.flow_id]
        out = flow.sender.on_ack(seg, self.eq.now)
        self._transmit(flow, out)

    # -------------------- timers --------------------

    def _sync_timer(self, flow: _Flow) -> None:
        deadline = flow.sender.rto_deadline
        if deadline is None:
            return
        if flow.timer_at is None or deadline < flow.timer_at:
            flow.timer_at = deadline
            self.eq.schedule_at(deadline, EventKind.TIMER,
                                lambda: self._on_timer(flow))

    def _on_timer(self, flow: _Flow) -> None:
        now = self.eq.now
        if now != flow.timer_at:
            return  # superseded by an earlier entry
        flow.timer_at = None
        if flow.sender.rto_deadline == now:
            self._transmit(flow, flow.sender.on_timeout(now))
        else:
            self._sync_timer(flow)  # cleared, or moved later

    # -------------------- run --------------------

    def _start_flow(self, flow: _Flow) -> None:
        out = flow.sender.start(self.eq.now)
        self._transmit(flow, out)

    def _take_warmup_marks(self) -> None:
        self._warmup_counters = self.bottleneck_link.admission.counters.copy()
        self._warmup_delivered = [f.receiver.delivered_bytes for f in self.flows]

    def run(self) -> metrics.RunReport:
        if self._finished:
            raise RuntimeError("simulation already ran")
        self._finished = True
        sc = self.scenario
        for flow, start in zip(self.flows, self.start_times):
            self.eq.schedule_at(
                start, EventKind.FLOW_START, lambda f=flow: self._start_flow(f)
            )
        # warmup_s < duration_s, so this always fires before the run ends.
        self.eq.schedule_at(
            sc.warmup_s, EventKind.MEASUREMENT, self._take_warmup_marks
        )
        drained = self.eq.run(sc.duration_s)
        counters = self.bottleneck_link.admission.counters
        return metrics.build_run_report(
            scenario=sc,
            group_of=self.group_of,
            delivered_delta=[
                f.receiver.delivered_bytes - base
                for f, base in zip(self.flows, self._warmup_delivered)
            ],
            window=counters - self._warmup_counters,
            whole_run=counters,
            reverse_arrivals=self.reverse_arrivals,
            reverse_drops=self.reverse_drops,
            residual_q=len(self.bottleneck_link.backlog),
            event_count=self.eq.event_count,
            drained=drained,
        )


def run_scenario(scenario: Scenario,
                 bottleneck_admission_factory=None) -> metrics.RunReport:
    sim = DumbbellSim(
        scenario, bottleneck_admission_factory=bottleneck_admission_factory)
    return sim.run()
