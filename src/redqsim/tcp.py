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


# Bound once: reading a member off an Enum class is an attribute lookup
# through its metaclass, slow enough to show on a per-flow path.
_SACK = TcpVariant.SACK


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

    The segment size, the receiver window as a float and the recovery
    flavor are read from the config once, at construction.
    """

    __slots__ = ("flow_id", "config", "_mss", "_rcv_wnd", "_sack", "cwnd",
                 "ssthresh", "snd_una", "snd_nxt", "max_sent", "dupacks",
                 "in_recovery", "recovery_point", "srtt", "rttvar", "rto",
                 "backoff", "rto_deadline", "_timing", "sack_scoreboard",
                 "_retx_ranges", "segments_sent", "retransmits",
                 "fast_retransmits", "timeouts", "started")

    def __init__(self, flow_id: int, config: TcpConfig):
        self.flow_id = flow_id
        self.config = config
        mss = self._mss = config.mss
        self._rcv_wnd = float(config.rcv_wnd)
        self._sack = config.variant is _SACK
        self.cwnd: float = float(mss)
        self.ssthresh: float = self._rcv_wnd
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

    def _pipe(self) -> float:
        # Bytes believed in flight: outstanding, minus what the peer
        # already holds, plus hole retransmissions not yet covered.
        una = self.snd_una
        pipe = self.snd_nxt - una
        for start, end in self.sack_scoreboard:
            pipe -= end - start
        for start, end in self._retx_ranges:
            if end > una:
                pipe += end - (start if start > una else una)
        return pipe

    def effective_rto(self) -> float:
        return min(self.rto * self.backoff, MAX_RTO_S)

    # ------------------------------------------------------------
    # timer and timing samples
    # ------------------------------------------------------------

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
        # New data is timed when no other segment is.
        if seq >= self.max_sent and self._timing is None:
            self._timing = (seq, seq + length, now)
        self.max_sent = max(self.max_sent, seq + length)
        self.segments_sent += 1
        return Segment(self.flow_id, seq, length)

    def _fill_window(self, now: float) -> list[Segment]:
        # _make_segment's rule for a whole burst, kept in locals: segment
        # k starts at snd_nxt + k*mss, and max_sent before it is the
        # larger of the old max_sent and its start, so it is timed iff it
        # starts at or past the old max_sent and nothing is timed yet.
        mss = self._mss
        una = self.snd_una
        seq = self.snd_nxt
        cwnd = self.cwnd
        window = self._rcv_wnd if self._rcv_wnd < cwnd else cwnd
        if seq - una + mss > window:
            return []
        flow_id = self.flow_id
        max_sent = self.max_sent
        timed = self._timing is not None
        out = []
        while seq - una + mss <= window:
            if not timed and seq >= max_sent:
                self._timing = (seq, seq + mss, now)
                timed = True
            out.append(Segment(flow_id, seq, mss))
            seq += mss
        self.snd_nxt = seq
        if seq > max_sent:
            self.max_sent = seq
        self.segments_sent += len(out)
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
        length = min(self._mss, self.recovery_point - seq)
        if length <= 0:
            raise RuntimeError(f"flow {self.flow_id}: empty retransmission at seq {seq}")
        self._invalidate_sample_if_hit(seq, seq + length)
        self._retx_ranges.append((seq, seq + length))
        self._retx_ranges = _merge_ranges(self._retx_ranges)
        self.retransmits += 1
        self.segments_sent += 1
        return Segment(self.flow_id, seq, length)

    def _emit_recovery(self, now: float) -> list[Segment]:
        # Selective recovery: refill holes first, then new data, while
        # the estimated in-flight volume stays under the window.
        mss = self._mss
        window = min(self.cwnd, self._rcv_wnd)
        out = []
        while self._pipe() + mss <= window:
            hole = self._next_hole()
            if hole is not None:
                out.append(self._retransmit(hole, now))
            elif self.snd_nxt - self.snd_una + mss <= self.config.rcv_wnd:
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
            self.rto_deadline = now + self.effective_rto()
        return out

    def on_ack(self, seg: Segment, now: float) -> list[Segment]:
        if not seg.is_ack:
            raise ValueError("sender expects acknowledgment segments")
        if self._sack and seg.sack_blocks:
            usable = [
                (max(s, self.snd_una), e)
                for s, e in seg.sack_blocks
                if e > self.snd_una
            ]
            self.sack_scoreboard = _merge_ranges(self.sack_scoreboard + usable)
        ack_no = seg.ack_no
        una = self.snd_una
        if ack_no > una:
            return self._on_new_ack(ack_no, now)
        if ack_no == una and self.snd_nxt > una:
            return self._on_duplicate_ack(now)
        return []

    def _on_new_ack(self, ack_no: int, now: float) -> list[Segment]:
        timing = self._timing
        if timing is not None and ack_no >= timing[1]:
            self._rto_update(now - timing[2])
            self.backoff = 1
            self._timing = None
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
            if not self._sack or ack_no >= self.recovery_point:
                self.cwnd = self.ssthresh
                self.in_recovery = False
                self.dupacks = 0
                self._retx_ranges = []  # always empty under plain recovery
        else:
            self.dupacks = 0
            mss = self._mss
            cwnd = self.cwnd
            if cwnd < self.ssthresh:
                self.cwnd = cwnd + mss
            else:
                self.cwnd = cwnd + mss * mss / cwnd
        if self.in_recovery:
            out = self._emit_recovery(now)
        else:
            out = self._fill_window(now)
        if self.snd_nxt > ack_no:
            # effective_rto(), spelled out on the per-ACK path.
            rto = self.rto * self.backoff
            self.rto_deadline = now + (rto if rto < MAX_RTO_S else MAX_RTO_S)
        else:
            self.rto_deadline = None
        return out

    def _on_duplicate_ack(self, now: float) -> list[Segment]:
        mss = self._mss
        self.dupacks += 1
        if self.in_recovery:
            if not self._sack:
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
        if not self._sack:
            self.cwnd = self.ssthresh + 3.0 * mss
            self._retx_ranges = []  # plain recovery does not track refills
        else:
            self.cwnd = self.ssthresh
            out.extend(self._emit_recovery(now))
        self.rto_deadline = now + self.effective_rto()
        return out

    def on_timeout(self, now: float) -> list[Segment]:
        if self.snd_nxt == self.snd_una:
            self.rto_deadline = None
            return []
        mss = self._mss
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
        seg = Segment(self.flow_id, self.snd_nxt, mss)
        self.segments_sent += 1
        self.snd_nxt += mss
        self.rto_deadline = now + self.effective_rto()
        return [seg]


class TcpReceiver:
    """Reassembling receiver: cumulative ACK per segment, gap reports.

    delivered_bytes counts each payload byte once, at the moment the
    in-order frontier first covers it.
    """

    __slots__ = ("flow_id", "config", "_sack", "rcv_nxt", "delivered_bytes",
                 "_ooo", "_recent")

    def __init__(self, flow_id: int, config: TcpConfig):
        self.flow_id = flow_id
        self.config = config
        self._sack = config.variant is _SACK
        self.rcv_nxt = 0
        self.delivered_bytes = 0
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
            return Segment(self.flow_id, 0, 0, True, end)
        # A segment of delivered data only repeats the ACK below.
        if start <= self.rcv_nxt < end:
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
            if self._recent:
                self._recent = [b for b in self._recent if b in self._ooo]
        elif start > self.rcv_nxt:
            ooo = self._ooo
            if ooo and ooo[-1][1] == start < end:
                # Extends the highest block, which is all the merge does.
                ooo[-1] = (ooo[-1][0], end)
            else:
                self._ooo = _merge_ranges(ooo + [(start, end)])
            if self._sack:
                self._touch_block(start, end)  # only the gap report reads it
        blocks: tuple[tuple[int, int], ...] = ()
        if self._sack:
            blocks = tuple(self._recent[:MAX_SACK_BLOCKS])
        return Segment(self.flow_id, 0, 0, True, self.rcv_nxt, blocks)
