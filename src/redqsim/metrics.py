"""Measurement-window accounting: goodput, loss ratios, conservation.

Goodput counts each payload byte once, at first in-order delivery,
over the post-warmup window.  Loss ratios are per traffic group at the
guarded bottleneck queue, drops of every cause over arrivals, within
the same window.  The conservation audit covers the whole run: every
arrival is either accepted or dropped, and every accepted packet either
departed or still sits in the queue.  Arrivals, accepts, drops and
departures are each counted where they happen, so either identity can
fail when the queue loses track of a packet.

Each group's timeouts, fast_retransmits and retransmits are the sums of
its senders' counters over the same window, from marks taken at warmup;
they are read only when the report is built and do not reach the CSV.

RunReport.reverse_arrivals and reverse_drops tally the acknowledgment
queue over the whole run, in the receiver event one access delay before
each ACK reaches it, so ACKs due there less than one access delay after
duration_s count too.  Neither reaches the CSV.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GroupStats:
    name: str
    mtu: int
    flow_count: int
    goodput_bps: float
    plr: float | None
    arrivals: int
    drops_random: int
    drops_forced_avg: int
    drops_buffer: int
    timeouts: int
    fast_retransmits: int
    retransmits: int

    @property
    def drops_total(self) -> int:
        return self.drops_random + self.drops_forced_avg + self.drops_buffer


@dataclass(frozen=True)
class BottleneckAudit:
    """Whole-run packet conservation at the guarded queue."""

    arrivals: int
    accepted: int
    drops_random: int
    drops_forced_avg: int
    drops_buffer: int
    departed: int
    residual_q: int
    max_q: int

    @property
    def drops_total(self) -> int:
        return self.drops_random + self.drops_forced_avg + self.drops_buffer

    @property
    def violations(self) -> tuple[str, ...]:
        """One line per broken conservation identity."""
        broken = []
        if self.arrivals != self.accepted + self.drops_total:
            broken.append(f"arrivals {self.arrivals} != accepted {self.accepted}"
                          f" + drops {self.drops_total}")
        if self.accepted != self.departed + self.residual_q:
            broken.append(f"accepted {self.accepted} != departed {self.departed}"
                          f" + residual_q {self.residual_q}")
        return tuple(broken)

    @property
    def conserved(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class RunReport:
    scenario_name: str
    red_variant: str
    tcp_variant: str
    bottleneck_delay_s: float
    seed: int
    duration_s: float
    warmup_s: float
    groups: tuple[GroupStats, ...]
    total_goodput_bps: float
    bottleneck: BottleneckAudit
    reverse_arrivals: int
    reverse_drops: int
    event_count: int
    stalled: bool
    diagnostics: tuple[str, ...]


def goodput_bps(delivered_bytes: int, interval_s: float) -> float:
    """Unique-delivery payload rate over a measurement window."""
    if interval_s <= 0.0:
        raise ValueError("interval_s must be > 0")
    if delivered_bytes < 0:
        raise ValueError("delivered_bytes must be >= 0")
    return delivered_bytes * 8.0 / interval_s


def loss_ratio(drops: int, arrivals: int) -> float | None:
    """Drops over arrivals; None when nothing arrived."""
    if drops < 0 or arrivals < 0 or drops > arrivals:
        raise ValueError("need 0 <= drops <= arrivals")
    if arrivals == 0:
        return None
    return drops / arrivals


def build_run_report(
    scenario,
    group_of,
    delivered_delta: list[int],
    health_delta: list[tuple[int, int, int]],
    window,
    whole_run,
    reverse_arrivals: int,
    reverse_drops: int,
    residual_q: int,
    event_count: int,
    drained: bool,
) -> RunReport:
    """Assemble a run's report from its queue counters.

    window holds the bottleneck tallies of the measurement window (final
    counters minus the warmup copy), whole_run the final ones, reverse_*
    the acknowledgment-direction queue's tallies; delivered_delta is the
    per-flow unique payload delivered in the window, health_delta each
    flow's (timeouts, fast_retransmits, retransmits) in it, and drained tells
    whether the event queue ran dry before the configured duration.
    A run with flows is stalled if it drained or if no packet ever
    reached the bottleneck.
    """
    interval_s = scenario.duration_s - scenario.warmup_s
    group_delivered = [0] * len(scenario.groups)
    group_health = [[0, 0, 0] for _ in scenario.groups]
    for idx, (delta, health) in enumerate(zip(delivered_delta, health_delta)):
        g_idx = group_of(idx)
        group_delivered[g_idx] += delta
        group_health[g_idx] = [x + y for x, y in zip(group_health[g_idx], health)]

    diagnostics = []
    if delivered_delta and drained:
        diagnostics.append(
            "stalled: event queue drained before the configured duration")
    if delivered_delta and sum(whole_run.arrivals) == 0:
        diagnostics.append("stalled: no packet reached the bottleneck in "
                           f"{scenario.duration_s:g} s")
    stalled = bool(diagnostics)
    groups = []
    for g_idx, group in enumerate(scenario.groups):
        d_rand = window.drops_random[g_idx]
        d_avg = window.drops_forced_avg[g_idx]
        d_buf = window.drops_buffer[g_idx]
        plr = loss_ratio(d_rand + d_avg + d_buf, window.arrivals[g_idx])
        if plr is None:
            diagnostics.append(
                f"group {group.name!r}: no bottleneck arrivals in the "
                "measurement window, loss ratio omitted"
            )
        groups.append(
            GroupStats(
                name=group.name,
                mtu=group.mtu,
                flow_count=group.flow_count,
                goodput_bps=goodput_bps(group_delivered[g_idx], interval_s),
                plr=plr,
                arrivals=window.arrivals[g_idx],
                drops_random=d_rand,
                drops_forced_avg=d_avg,
                drops_buffer=d_buf,
                timeouts=group_health[g_idx][0],
                fast_retransmits=group_health[g_idx][1],
                retransmits=group_health[g_idx][2],
            )
        )

    audit = BottleneckAudit(
        arrivals=sum(whole_run.arrivals),
        accepted=sum(whole_run.accepted),
        drops_random=sum(whole_run.drops_random),
        drops_forced_avg=sum(whole_run.drops_forced_avg),
        drops_buffer=sum(whole_run.drops_buffer),
        departed=whole_run.departed,
        residual_q=residual_q,
        max_q=whole_run.max_q,
    )
    return RunReport(
        scenario_name=scenario.name,
        red_variant=scenario.red_variant.value,
        tcp_variant=scenario.tcp_variant.value,
        bottleneck_delay_s=scenario.bottleneck_delay_s,
        seed=scenario.seed,
        duration_s=scenario.duration_s,
        warmup_s=scenario.warmup_s,
        groups=tuple(groups),
        total_goodput_bps=sum(goodput_bps(delta, interval_s)
                              for delta in delivered_delta),
        bottleneck=audit,
        reverse_arrivals=reverse_arrivals,
        reverse_drops=reverse_drops,
        event_count=event_count,
        stalled=stalled,
        diagnostics=tuple(diagnostics),
    )
