"""Measurement-window accounting: goodput, loss ratios, conservation.

Goodput counts each payload byte once, at first in-order delivery,
over the post-warmup window.  Loss ratios are per traffic group at the
guarded bottleneck queue, drops of every cause over arrivals, within
the same window.  The conservation audit covers the whole run: every
arrival is either accepted or dropped, and every accepted packet either
departed or still sits in the queue.  Arrivals, accepts, drops and
departures are each counted where they happen, so either identity can
fail when the queue loses track of a packet.

All of it comes from one per-group ledger taken at warmup (the mark)
and at the end: a row per group of the bottleneck's arrivals, accepted,
drops_random, drops_forced_avg and drops_buffer, then the group's
delivered bytes, timeouts, fast_retransmits and retransmits, each
counted from the start of the run.  The window is end minus mark; the
audit reads the end.  The TCP health columns do not reach the CSV, and
total_goodput_bps sums the group goodputs.

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


def build_run_report(scenario, mark: list[list[int]], end: list[list[int]],
                     departed: int, residual_q: int, max_q: int,
                     reverse_arrivals: int, reverse_drops: int, event_count: int,
                     drained: bool) -> RunReport:
    """Assemble a run's report from its warmup and end ledgers.

    The window is end minus mark, row by row; the audit sums end's five
    bottleneck columns, in BottleneckAudit's field order, and takes the
    bottleneck's departed, residual_q and max_q.  reverse_* are the
    acknowledgment queue's tallies, and drained tells whether the event
    queue ran dry before the configured duration.  A run is stalled if
    it drained or if no packet ever reached the bottleneck.
    """
    interval_s = scenario.duration_s - scenario.warmup_s
    audit = BottleneckAudit(*(sum(row[k] for row in end) for k in range(5)),
                            departed, residual_q, max_q)
    diagnostics = []
    if drained:
        diagnostics.append(
            "stalled: event queue drained before the configured duration")
    if audit.arrivals == 0:
        diagnostics.append("stalled: no packet reached the bottleneck in "
                           f"{scenario.duration_s:g} s")
    stalled = bool(diagnostics)
    groups = []
    for group, end_row, mark_row in zip(scenario.groups, end, mark):
        (arrivals, _accepted, d_rand, d_avg, d_buf, delivered, timeouts,
         fast_retransmits, retransmits) = (e - m for e, m in zip(end_row, mark_row))
        plr = loss_ratio(d_rand + d_avg + d_buf, arrivals)
        if plr is None:
            diagnostics.append(
                f"group {group.name!r}: no bottleneck arrivals in the "
                "measurement window, loss ratio omitted"
            )
        groups.append(GroupStats(
            group.name, group.mtu, group.flow_count,
            goodput_bps(delivered, interval_s), plr, arrivals, d_rand, d_avg,
            d_buf, timeouts, fast_retransmits, retransmits))

    return RunReport(
        scenario_name=scenario.name,
        red_variant=scenario.red_variant.value,
        tcp_variant=scenario.tcp_variant.value,
        bottleneck_delay_s=scenario.bottleneck_delay_s,
        seed=scenario.seed,
        duration_s=scenario.duration_s,
        warmup_s=scenario.warmup_s,
        groups=tuple(groups),
        total_goodput_bps=sum(g.goodput_bps for g in groups),
        bottleneck=audit,
        reverse_arrivals=reverse_arrivals,
        reverse_drops=reverse_drops,
        event_count=event_count,
        stalled=stalled,
        diagnostics=tuple(diagnostics),
    )
