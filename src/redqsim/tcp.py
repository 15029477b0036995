"""Byte-stream transport endpoints with window-halving congestion control.

The sender models an infinite-backlog bulk transfer: slow start doubles
the window once per round trip, congestion avoidance adds one segment
per round trip, three duplicate acknowledgments trigger a fast
retransmit with window halving, and a coarse-grained retransmission
timer collapses the window to one segment.  Two recovery flavors are
provided: plain (blind retransmission of the oldest hole, exit on the
first advancing acknowledgment) and selective (receiver reports gap
blocks, sender fills holes one by one under a pipe limit and leaves
recovery only once the pre-loss frontier is acknowledged).

The retransmission timer estimate follows the usual smoothed-mean plus
four-deviations rule with gains 1/8 and 1/4, rounded up to a coarse
tick and backed off exponentially, capped at 64 seconds.  Timing
samples are only taken from segments sent exactly once.  After a
timeout the sender rewinds its send frontier to the oldest
unacknowledged byte and streams forward again; the receiver discards
whatever it already holds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

HEADER_BYTES = 40
RTT_GAIN = 0.125
RTTVAR_GAIN = 0.25
MAX_RTO_S = 64.0
INITIAL_RTO_S = 1.0
MAX_SACK_BLOCKS = 3


class TcpVariant(enum.Enum):
    RENO = "reno"
    SACK = "sack"

    def __str__(self) -> str:
        return self.value


class Segment:
    """One wire unit: payload bytes plus a fixed 40-byte header.

    wire_bytes is stored at construction, since every hop reads it.
    Segments are never mutated once built.
    """

    __slots__ = ("flow_id", "seq", "payload", "is_ack", "ack_no", "sack_blocks",
                 "wire_bytes")

    def __init__(self, flow_id: int, seq: int = 0, payload: int = 0,
                 is_ack: bool = False, ack_no: int = 0,
                 sack_blocks: tuple[tuple[int, int], ...] = ()):
        self.flow_id = flow_id
        self.seq = seq
        self.payload = payload
        self.is_ack = is_ack
        self.ack_no = ack_no
        self.sack_blocks = sack_blocks
        self.wire_bytes = payload + HEADER_BYTES


@dataclass(frozen=True)
class TcpConfig:
    variant: TcpVariant = TcpVariant.RENO
    mss: int = 1460
    rcv_wnd: int = 1_048_576
    timer_granularity: float = 0.2
    min_rto_ticks: int = 1

    def __post_init__(self) -> None:
        for field_name in ("mss", "rcv_wnd", "min_rto_ticks"):
            if not isinstance(getattr(self, field_name), int):
                raise ValueError(f"{field_name} must be an integer")
        if not math.isfinite(self.timer_granularity):
            raise ValueError("timer_granularity must be finite")
        if self.mss < 1:
            raise ValueError("mss must be >= 1")
        if self.rcv_wnd < 2 * self.mss:
            raise ValueError("rcv_wnd must hold at least two segments")
        if self.timer_granularity <= 0.0:
            raise ValueError("timer_granularity must be > 0")
        if self.min_rto_ticks < 1:
            raise ValueError("min_rto_ticks must be >= 1")


def _merge_ranges(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    if not ranges:
        return []
    ranges.sort()
    merged = [ranges[0]]
    for start, end in ranges[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


class TcpSender:
    """Congestion-controlled bulk sender for one flow.

    All public entry points return the segments to put on the wire.
    The caller owns the clock and the timer: after every entry point it
    reads rto_deadline, and while that is set it calls on_timeout with
    the clock at exactly rto_deadline (None means no timer is running).
    Any entry point may move the deadline earlier or later.
    """

    def __init__(self, flow_id: int, config: TcpConfig):
        self.flow_id = flow_id
        self.config = config
        mss = config.mss
        self.cwnd: float = float(mss)
        self.ssthresh: float = float(config.rcv_wnd)
        self.snd_una = 0
        self.snd_nxt = 0
        self.max_sent = 0
        self.dupacks = 0
        self.in_recovery = False
        self.recovery_point = 0
        # RTO estimator state; srtt is None until the first sample.
        self.srtt: float | None = None
        self.rttvar = 0.0
        self.rto = INITIAL_RTO_S
        self.backoff = 1
        self.rto_deadline: float | None = None
        # (seq, end, sent_at) of the one segment currently being timed.
        self._timing: tuple[int, int, float] | None = None
        self.sack_scoreboard: list[tuple[int, int]] = []
        self._retx_ranges: list[tuple[int, int]] = []
        self.segments_sent = 0
        self.retransmits = 0
        self.fast_retransmits = 0
        self.timeouts = 0
        self.started = False

    # ------------------------------------------------------------
    # window bookkeeping
    # ------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return self.snd_nxt - self.snd_una

    def _window(self) -> float:
        return min(self.cwnd, float(self.config.rcv_wnd))

    def _sacked_bytes(self) -> int:
        return sum(end - start for start, end in self.sack_scoreboard)

    def _pipe(self) -> float:
        # Bytes believed in flight: outstanding, minus what the peer
        # already holds, plus hole retransmissions not yet covered.
        retx = sum(
            end - max(start, self.snd_una)
            for start, end in self._retx_ranges
            if end > self.snd_una
        )
        return self.outstanding - self._sacked_bytes() + retx

    def effective_rto(self) -> float:
        return min(self.rto * self.backoff, MAX_RTO_S)

    # ------------------------------------------------------------
    # timer and timing samples
    # ------------------------------------------------------------

    def _arm_timer(self, now: float) -> None:
        self.rto_deadline = now + self.effective_rto()

    def _rto_update(self, sample: float) -> None:
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = (1.0 - RTTVAR_GAIN) * self.rttvar + RTTVAR_GAIN * abs(
                self.srtt - sample
            )
            self.srtt = (1.0 - RTT_GAIN) * self.srtt + RTT_GAIN * sample
        raw = self.srtt + 4.0 * self.rttvar
        g = self.config.timer_granularity
        ticks = max(self.config.min_rto_ticks, math.ceil(raw / g - 1e-9))
        self.rto = ticks * g

    def _take_sample(self, ack_no: int, now: float) -> None:
        if self._timing is None:
            return
        _seq, end, sent_at = self._timing
        if ack_no >= end:
            self._rto_update(now - sent_at)
            self.backoff = 1
            self._timing = None

    def _invalidate_sample_if_hit(self, start: int, end: int) -> None:
        # A retransmission overlapping the timed segment poisons the
        # sample: the eventual acknowledgment would be ambiguous.
        if self._timing is None:
            return
        t_start, t_end, _ = self._timing
        if start < t_end and end > t_start:
            self._timing = None

    # ------------------------------------------------------------
    # segment emission
    # ------------------------------------------------------------

    def _make_segment(self, seq: int, length: int, now: float) -> Segment:
        if seq >= self.max_sent and self._timing is None:
            self._timing = (seq, seq + length, now)
        self.max_sent = max(self.max_sent, seq + length)
        self.segments_sent += 1
        return Segment(self.flow_id, seq=seq, payload=length)

    def _fill_window(self, now: float) -> list[Segment]:
        mss = self.config.mss
        window = self._window()
        out = []
        while self.outstanding + mss <= window:
            out.append(self._make_segment(self.snd_nxt, mss, now))
            self.snd_nxt += mss
        return out

    def _next_hole(self) -> int | None:
        # Oldest unacknowledged, unreported, not-yet-refilled byte.
        # Only bytes with reported blocks above them count as holes;
        # anything past the highest report is presumed still in flight.
        if not self.sack_scoreboard:
            return None
        high_sack = self.sack_scoreboard[-1][1]
        pos = self.snd_una
        blocks = sorted(self.sack_scoreboard + self._retx_ranges)
        for start, end in blocks:
            if pos < start:
                break
            pos = max(pos, end)
        if pos < min(self.recovery_point, high_sack):
            return pos
        return None

    def _retransmit(self, seq: int, now: float) -> Segment:
        length = min(self.config.mss, self.recovery_point - seq)
        self._invalidate_sample_if_hit(seq, seq + length)
        self._retx_ranges.append((seq, seq + length))
        self._retx_ranges = _merge_ranges(self._retx_ranges)
        self.retransmits += 1
        self.segments_sent += 1
        return Segment(self.flow_id, seq=seq, payload=length)

    def _emit_recovery(self, now: float) -> list[Segment]:
        # Selective recovery: refill holes first, then new data, while
        # the estimated in-flight volume stays under the window.
        mss = self.config.mss
        out = []
        while self._pipe() + mss <= self._window():
            hole = self._next_hole()
            if hole is not None:
                out.append(self._retransmit(hole, now))
            elif self.outstanding + mss <= self.config.rcv_wnd:
                out.append(self._make_segment(self.snd_nxt, mss, now))
                self.snd_nxt += mss
            else:
                break
        return out

    # ------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------

    def start(self, now: float) -> list[Segment]:
        if self.started:
            raise RuntimeError("sender already started")
        self.started = True
        out = self._fill_window(now)
        if out:
            self._arm_timer(now)
        return out

    def on_ack(self, seg: Segment, now: float) -> list[Segment]:
        if not seg.is_ack:
            raise ValueError("sender expects acknowledgment segments")
        if self.config.variant is TcpVariant.SACK and seg.sack_blocks:
            usable = [
                (max(s, self.snd_una), e)
                for s, e in seg.sack_blocks
                if e > self.snd_una
            ]
            self.sack_scoreboard = _merge_ranges(self.sack_scoreboard + usable)
        if seg.ack_no > self.snd_una:
            return self._on_new_ack(seg.ack_no, now)
        if seg.ack_no == self.snd_una and self.outstanding > 0:
            return self._on_duplicate_ack(now)
        return []

    def _on_new_ack(self, ack_no: int, now: float) -> list[Segment]:
        mss = self.config.mss
        self._take_sample(ack_no, now)
        self.snd_una = ack_no
        if self.snd_nxt < ack_no:
            # The peer held buffered data past a rewound frontier; jump
            # forward rather than resending what it already has.
            self.snd_nxt = ack_no
        if self.sack_scoreboard:
            self.sack_scoreboard = [
                (max(s, ack_no), e) for s, e in self.sack_scoreboard if e > ack_no
            ]
        if self.in_recovery:
            # Plain recovery ends on any advance, selective at the frontier.
            if (self.config.variant is TcpVariant.RENO
                    or ack_no >= self.recovery_point):
                self.cwnd = self.ssthresh
                self.in_recovery = False
                self.dupacks = 0
                self._retx_ranges = []  # always empty under plain recovery
        else:
            self.dupacks = 0
            if self.cwnd < self.ssthresh:
                self.cwnd += mss
            else:
                self.cwnd += mss * mss / self.cwnd
        if self.in_recovery:
            out = self._emit_recovery(now)
        else:
            out = self._fill_window(now)
        if self.outstanding > 0:
            self._arm_timer(now)
        else:
            self.rto_deadline = None
        return out

    def _on_duplicate_ack(self, now: float) -> list[Segment]:
        mss = self.config.mss
        self.dupacks += 1
        if self.in_recovery:
            if self.config.variant is TcpVariant.RENO:
                self.cwnd += mss  # inflate per extra duplicate
                return self._fill_window(now)
            return self._emit_recovery(now)
        if self.dupacks < 3:
            return []
        # Third duplicate: halve and retransmit the oldest hole.
        self.ssthresh = max(self.cwnd / 2.0, 2.0 * mss)
        self.in_recovery = True
        self.recovery_point = self.snd_nxt
        self.fast_retransmits += 1
        out = [self._retransmit(self.snd_una, now)]
        if self.config.variant is TcpVariant.RENO:
            self.cwnd = self.ssthresh + 3.0 * mss
            self._retx_ranges = []  # plain recovery does not track refills
        else:
            self.cwnd = self.ssthresh
            out.extend(self._emit_recovery(now))
        self._arm_timer(now)
        return out

    def on_timeout(self, now: float) -> list[Segment]:
        if self.outstanding == 0:
            self.rto_deadline = None
            return []
        mss = self.config.mss
        self.timeouts += 1
        self.ssthresh = max(self.cwnd / 2.0, 2.0 * mss)
        self.cwnd = float(mss)
        self.backoff = min(self.backoff * 2, 256)
        self.in_recovery = False
        self.dupacks = 0
        self.sack_scoreboard = []
        self._retx_ranges = []
        self._timing = None
        # Rewind the frontier and stream forward again; the receiver
        # drops duplicates of anything it already buffered.
        self.snd_nxt = self.snd_una
        self.retransmits += 1
        seg = Segment(self.flow_id, seq=self.snd_nxt, payload=mss)
        self.segments_sent += 1
        self.snd_nxt += mss
        self._arm_timer(now)
        return [seg]


class TcpReceiver:
    """Reassembling receiver: cumulative ACK per segment, gap reports.

    delivered_bytes counts each payload byte once, at the moment the
    in-order frontier first covers it.
    """

    def __init__(self, flow_id: int, config: TcpConfig):
        self.flow_id = flow_id
        self.config = config
        self.rcv_nxt = 0
        self.delivered_bytes = 0
        self.duplicates = 0
        self._ooo: list[tuple[int, int]] = []
        self._recent: list[tuple[int, int]] = []

    def _touch_block(self, start: int, end: int) -> None:
        containing = None
        for block in self._ooo:
            if block[0] <= start and end <= block[1]:
                containing = block
                break
        if containing is None:
            return
        self._recent = [containing] + [
            b for b in self._recent if b in self._ooo and b != containing
        ]
        del self._recent[MAX_SACK_BLOCKS:]

    def on_data(self, seg: Segment, now: float) -> Segment:
        if seg.is_ack:
            raise ValueError("receiver expects data segments")
        start, end = seg.seq, seg.seq + seg.payload
        if not self._ooo and start <= self.rcv_nxt < end:
            # In order with nothing buffered, so nothing to report either.
            self.delivered_bytes += end - self.rcv_nxt
            self.rcv_nxt = end
            return Segment(self.flow_id, is_ack=True, ack_no=end)
        if end <= self.rcv_nxt:
            self.duplicates += 1
        elif start <= self.rcv_nxt:
            frontier = end
            keep = []
            for b_start, b_end in self._ooo:
                if b_start <= frontier:
                    frontier = max(frontier, b_end)
                else:
                    keep.append((b_start, b_end))
            self._ooo = keep
            self.delivered_bytes += frontier - self.rcv_nxt
            self.rcv_nxt = frontier
            self._recent = [b for b in self._recent if b in self._ooo]
        else:
            before = list(self._ooo)
            self._ooo = _merge_ranges(self._ooo + [(start, end)])
            if self._ooo == before:
                self.duplicates += 1
            self._touch_block(start, end)
        blocks: tuple[tuple[int, int], ...] = ()
        if self.config.variant is TcpVariant.SACK:
            blocks = tuple(self._recent[:MAX_SACK_BLOCKS])
        return Segment(
            self.flow_id, is_ack=True, ack_no=self.rcv_nxt, sack_blocks=blocks
        )
