"""The sender's batched per-ACK path against a second model of the sender.

ReferenceSender is TcpSender as it was before its per-ACK path was cut
down: _on_new_ack takes the RTT sample through _take_sample and re-arms
the timer through _arm_timer, _fill_window asks _make_segment for one
segment at a time, and every window test reads the outstanding property
and the rcv_wnd it was built with.  Random runs of deliveries, losses, reordering and timeouts
go to both senders with one clock, and after every call their segments
and their state must be identical.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from redqsim.tcp import (
    INITIAL_RTO_S,
    MAX_RTO_S,
    MIN_RTO_TICKS,
    RTT_GAIN,
    RTTVAR_GAIN,
    TIMER_GRANULARITY_S,
    Segment,
    TcpReceiver,
    TcpSender,
    TcpVariant,
    _merge_ranges,
)

MSS = 100


class ReferenceSender:
    """TcpSender as it was before the per-ACK path was batched."""

    def __init__(self, flow_id: int, variant: TcpVariant, mss: int, rcv_wnd: int):
        self.flow_id = flow_id
        self.variant, self.mss, self.rcv_wnd = variant, mss, rcv_wnd
        self.cwnd: float = float(mss)
        self.ssthresh: float = float(rcv_wnd)
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
        return min(self.cwnd, float(self.rcv_wnd))

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
        g = TIMER_GRANULARITY_S
        ticks = max(MIN_RTO_TICKS, math.ceil(raw / g - 1e-9))
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
        mss = self.mss
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
        length = min(self.mss, self.recovery_point - seq)
        self._invalidate_sample_if_hit(seq, seq + length)
        self._retx_ranges.append((seq, seq + length))
        self._retx_ranges = _merge_ranges(self._retx_ranges)
        self.retransmits += 1
        self.segments_sent += 1
        return Segment(self.flow_id, seq=seq, payload=length)

    def _emit_recovery(self, now: float) -> list[Segment]:
        # Selective recovery: refill holes first, then new data, while
        # the estimated in-flight volume stays under the window.
        mss = self.mss
        out = []
        while self._pipe() + mss <= self._window():
            hole = self._next_hole()
            if hole is not None:
                out.append(self._retransmit(hole, now))
            elif self.outstanding + mss <= self.rcv_wnd:
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
        if self.variant is TcpVariant.SACK and seg.sack_blocks:
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
        mss = self.mss
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
            if (self.variant is TcpVariant.RENO
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
        mss = self.mss
        self.dupacks += 1
        if self.in_recovery:
            if self.variant is TcpVariant.RENO:
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
        if self.variant is TcpVariant.RENO:
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
        mss = self.mss
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


STATE = ("cwnd", "ssthresh", "snd_una", "snd_nxt", "max_sent", "dupacks",
         "in_recovery", "recovery_point", "srtt", "rttvar", "rto", "backoff",
         "rto_deadline", "_timing", "sack_scoreboard", "_retx_ranges",
         "segments_sent", "retransmits", "fast_retransmits", "timeouts")


def wire(segments):
    return [(s.flow_id, s.seq, s.payload, s.is_ack, s.ack_no, s.sack_blocks,
             s.wire_bytes) for s in segments]


@settings(max_examples=200, deadline=None)
@given(
    variant=st.sampled_from(list(TcpVariant)),
    wnd_segments=st.integers(min_value=2, max_value=40),
    loss=st.sampled_from([0.0, 0.02, 0.1, 0.3]),
    reorder=st.sampled_from([0.0, 0.2, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batched_sender_matches_the_reference_sender(variant, wnd_segments, loss,
                                                     reorder, seed):
    # Each step advances the clock by up to 20 ms and delivers or loses
    # one data segment or ACK, picked out of order with probability
    # reorder; a step that would reach the retransmission deadline fires
    # the timer at exactly that time instead, as the timer contract asks.
    rng = random.Random(seed)
    fast = TcpSender(0, variant, MSS, wnd_segments * MSS)
    ref = ReferenceSender(0, variant, MSS, wnd_segments * MSS)
    receiver = TcpReceiver(0, variant)
    data, acks = [], []
    now = 0.0

    def call(entry, *args):
        got, want = getattr(fast, entry)(*args), getattr(ref, entry)(*args)
        assert wire(got) == wire(want), entry
        for name in STATE:
            assert getattr(fast, name) == getattr(ref, name), (entry, name)
        data.extend(got)

    call("start", now)
    for _ in range(300):
        step = rng.random() * 0.02
        deadline = fast.rto_deadline
        if deadline is not None and (now + step >= deadline or rng.random() < 0.02):
            now = deadline
            call("on_timeout", now)
            continue
        now += step
        pending = data if rng.random() < 0.5 else acks
        if not pending:
            continue
        index = rng.randrange(len(pending)) if rng.random() < reorder else 0
        seg = pending.pop(index)
        if rng.random() < loss:
            continue
        if pending is data:
            acks.append(receiver.on_data(seg))
        else:
            call("on_ack", seg, now)
