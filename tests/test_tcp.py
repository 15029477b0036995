"""Transport state machine tests driven by scripted acknowledgment feeds."""

import heapq
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from redqsim.droplaw import mathis_goodput_bound
from redqsim.tcp import (
    HEADER_BYTES,
    Segment,
    TcpConfig,
    TcpReceiver,
    TcpSender,
    TcpVariant,
)

MSS = 1460


def make_sender(variant=TcpVariant.RENO, **kwargs) -> TcpSender:
    return TcpSender(0, TcpConfig(variant=variant, mss=MSS, **kwargs))


def make_receiver(variant=TcpVariant.RENO) -> TcpReceiver:
    return TcpReceiver(0, TcpConfig(variant=variant, mss=MSS))


def ack(ack_no: int, blocks=()) -> Segment:
    return Segment(0, is_ack=True, ack_no=ack_no, sack_blocks=tuple(blocks))


def ack_round(sender, receiver, segs, now: float) -> list[Segment]:
    """Deliver a window of data, feed every acknowledgment straight back."""
    out = []
    for seg in segs:
        reply = receiver.on_data(seg, now)
        out.extend(sender.on_ack(reply, now))
    return out


def drive(sender, receiver, *, rtt: float, duration: float, drop=None):
    """Run sender and receiver over a fixed-delay pipe with scripted loss.

    drop(i) decides the fate of the i-th data transmission.  Returns
    the number of data segments put on the wire.
    """
    drop = drop or (lambda _i: False)
    heap = []
    order = itertools.count()
    sent = 0

    def put(when, kind, seg):
        heapq.heappush(heap, (when, next(order), kind, seg))

    def transmit(now, segs):
        nonlocal sent
        for seg in segs:
            if not drop(sent):
                put(now + rtt / 2.0, "data", seg)
            sent += 1

    transmit(0.0, sender.start(0.0))
    now = 0.0
    while now < duration:
        t_event = heap[0][0] if heap else math.inf
        deadline = sender.rto_deadline if sender.rto_deadline is not None else math.inf
        if t_event is math.inf and deadline is math.inf:
            break
        if deadline < t_event:
            now = deadline
            transmit(now, sender.on_timeout(now))
            continue
        now, _, kind, seg = heapq.heappop(heap)
        if kind == "data":
            put(now + rtt / 2.0, "ack", receiver.on_data(seg, now))
        else:
            transmit(now, sender.on_ack(seg, now))
    return sent


# ---------------------------------------------------------------
# configuration and segments
# ---------------------------------------------------------------

class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mss": 0},
            {"mss": 1460, "rcv_wnd": 1460},
            {"timer_granularity": 0.0},
            {"min_rto_ticks": 0},
            {"timer_granularity": float("nan")},
            {"rcv_wnd": float("inf")},
            {"mss": float("nan")},
            {"min_rto_ticks": float("inf")},
            {"mss": 1460.5},
            {"min_rto_ticks": 1.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError, match=list(kwargs)[-1]):
            TcpConfig(**kwargs)

    def test_segment_wire_size_includes_header(self):
        seg = Segment(0, seq=0, payload=1460)
        assert seg.wire_bytes == 1500
        assert ack(0).wire_bytes == HEADER_BYTES


# ---------------------------------------------------------------
# window growth
# ---------------------------------------------------------------

class TestWindowGrowth:
    def test_start_emits_one_segment(self):
        s = make_sender()
        out = s.start(0.0)
        assert len(out) == 1
        assert out[0].seq == 0 and out[0].payload == MSS
        assert s.rto_deadline is not None

    def test_slow_start_doubles_per_round(self):
        s, r = make_sender(), make_receiver()
        segs = s.start(0.0)
        for k in range(1, 7):
            segs = ack_round(s, r, segs, float(k))
            assert s.cwnd == pytest.approx((2 ** k) * MSS, abs=MSS)
            assert len(segs) == 2 ** k

    def test_congestion_avoidance_adds_one_segment_per_round(self):
        s, r = make_sender(), make_receiver()
        s.ssthresh = 8.0 * MSS
        segs = s.start(0.0)
        for k in range(1, 10):
            segs = ack_round(s, r, segs, float(k))
            if s.cwnd >= s.ssthresh:
                break
        base = s.cwnd
        for j in range(1, 7):
            segs = ack_round(s, r, segs, 10.0 + j)
            assert s.cwnd == pytest.approx(base + j * MSS, abs=MSS)

    def test_window_capped_by_receiver(self):
        s = make_sender(rcv_wnd=4 * MSS)
        s.cwnd = 100.0 * MSS
        out = s.start(0.0)
        assert len(out) == 4


# ---------------------------------------------------------------
# fast retransmit and plain recovery
# ---------------------------------------------------------------

def open_window(sender, receiver, rounds=3):
    """Grow past the initial window; returns outstanding segments."""
    segs = sender.start(0.0)
    for k in range(rounds):
        segs = ack_round(sender, receiver, segs, float(k + 1))
    return segs


class TestFastRetransmit:
    def test_third_duplicate_triggers_single_retransmission(self):
        s, r = make_sender(), make_receiver()
        open_window(s, r)
        cwnd_before = s.cwnd
        una = s.snd_una
        assert s.on_ack(ack(una), 10.0) == []
        assert s.on_ack(ack(una), 10.1) == []
        out = s.on_ack(ack(una), 10.2)
        assert len(out) == 1
        assert out[0].seq == una and out[0].payload == MSS
        assert s.ssthresh == pytest.approx(max(cwnd_before / 2.0, 2.0 * MSS))
        assert s.cwnd == pytest.approx(s.ssthresh + 3.0 * MSS)
        assert s.in_recovery

    def test_recovery_exit_deflates_to_half(self):
        s, r = make_sender(), make_receiver()
        open_window(s, r)
        una, nxt = s.snd_una, s.snd_nxt
        for _ in range(3):
            s.on_ack(ack(una), 10.0)
        s.on_ack(ack(nxt), 10.5)
        assert not s.in_recovery
        assert s.cwnd == pytest.approx(s.ssthresh)
        assert s.dupacks == 0

    def test_extra_duplicates_inflate_window(self):
        s, r = make_sender(), make_receiver()
        open_window(s, r)
        una = s.snd_una
        for _ in range(3):
            s.on_ack(ack(una), 10.0)
        inflated = s.cwnd
        s.on_ack(ack(una), 10.1)
        assert s.cwnd == pytest.approx(inflated + MSS)

    def test_two_duplicates_do_nothing(self):
        s, r = make_sender(), make_receiver()
        open_window(s, r)
        una = s.snd_una
        s.on_ack(ack(una), 10.0)
        s.on_ack(ack(una), 10.1)
        assert not s.in_recovery and s.dupacks == 2

    def test_stale_ack_ignored(self):
        s, r = make_sender(), make_receiver()
        open_window(s, r)
        state = (s.cwnd, s.snd_una, s.dupacks)
        assert s.on_ack(ack(0), 10.0) == []
        assert (s.cwnd, s.snd_una, s.dupacks) == state


# ---------------------------------------------------------------
# selective recovery
# ---------------------------------------------------------------

class TestSackRecovery:
    def test_hole_retransmitted_once_and_exit_at_frontier(self):
        s = make_sender(TcpVariant.SACK)
        r = make_receiver(TcpVariant.SACK)
        segs = open_window(s, r)
        assert len(segs) == 8
        lost, rest = segs[0], segs[1:]
        una = s.snd_una
        frontier = s.snd_nxt
        out = []
        for seg in rest:
            reply = r.on_data(seg, 20.0)
            assert reply.ack_no == una
            out.extend(s.on_ack(reply, 20.0))
        retx = [seg for seg in out if seg.seq == una]
        assert len(retx) == 1
        assert s.in_recovery and s.recovery_point == frontier
        reply = r.on_data(retx[0], 20.5)
        assert reply.ack_no == frontier
        s.on_ack(reply, 20.5)
        assert not s.in_recovery
        assert s.cwnd == pytest.approx(s.ssthresh)

    def test_multiple_holes_filled_without_timeout(self):
        s = make_sender(TcpVariant.SACK)
        r = make_receiver(TcpVariant.SACK)
        segs = open_window(s, r, rounds=4)
        assert len(segs) == 16
        lost = {segs[1].seq, segs[5].seq, segs[9].seq}
        out = []
        for seg in segs:
            if seg.seq in lost:
                continue
            out.extend(s.on_ack(r.on_data(seg, 30.0), 30.0))
        # Feed everything back until the stream drains or stops moving.
        for _ in range(40):
            if not out:
                break
            nxt = []
            for seg in out:
                if seg.is_ack:
                    continue
                nxt.extend(s.on_ack(r.on_data(seg, 31.0), 31.0))
            out = nxt
        assert s.timeouts == 0
        assert s.snd_una == s.snd_nxt or s.snd_una >= max(lost) + MSS
        assert r.rcv_nxt >= max(lost) + MSS

    def test_sacked_ranges_never_refilled(self):
        s = make_sender(TcpVariant.SACK)
        r = make_receiver(TcpVariant.SACK)
        segs = open_window(s, r, rounds=4)
        lost = segs[0]
        retransmitted = []
        for seg in segs[1:]:
            for emitted in s.on_ack(r.on_data(seg, 30.0), 30.0):
                if emitted.seq < s.recovery_point:
                    retransmitted.append(emitted.seq)
        assert retransmitted.count(lost.seq) == 1
        sacked = {seg.seq for seg in segs[1:]}
        assert not (set(retransmitted) & sacked)

    @staticmethod
    def _recovery_after_timeout(monkeypatch):
        # A 16-segment SACK flight times out, so snd_nxt rewinds to one
        # segment; the receiver holds segments 5-15 of the first flight,
        # all above the rewound frontier, and three ACKs report them.
        # Returns the sender, the blocks, the flight and every pipe read
        # in recovery.
        reads = []
        pipe = TcpSender._pipe

        def recording_pipe(sender):
            value = pipe(sender)
            if sender.in_recovery:
                reads.append(value)
            return value

        monkeypatch.setattr(TcpSender, "_pipe", recording_pipe)
        s = make_sender(TcpVariant.SACK, rcv_wnd=64 * MSS)
        s.cwnd = 16.0 * MSS
        flight = s.start(0.0)
        s.on_timeout(s.rto_deadline)
        blocks = ((5 * MSS, 16 * MSS),)
        rewound = s.snd_nxt
        for k in range(3):
            s.on_ack(ack(0, blocks), 2.0 + 0.01 * k)
        return s, flight, rewound, blocks, reads

    def test_scripted_sequence_reports_blocks_above_snd_nxt_in_recovery(self, monkeypatch):
        s, flight, rewound, blocks, reads = self._recovery_after_timeout(monkeypatch)
        assert len(flight) == 16
        assert rewound == MSS and blocks[0][0] > rewound
        assert s.in_recovery and reads

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 6: after a timeout rewinds snd_nxt, blocks reported "
        "above it enter the scoreboard and make the in-recovery pipe negative"))
    def test_pipe_stays_non_negative_in_recovery_after_a_timeout(self, monkeypatch):
        # The sequence is checked by the test above; an empty read list
        # passes here, so a sequence that stops reaching recovery turns
        # this strict mark red rather than satisfying it.
        *_, reads = self._recovery_after_timeout(monkeypatch)
        assert all(value >= 0 for value in reads)


# ---------------------------------------------------------------
# timeout behavior
# ---------------------------------------------------------------

class TestTimeout:
    def test_collapse_and_frontier_rewind(self):
        s, r = make_sender(), make_receiver()
        open_window(s, r)
        cwnd_before = s.cwnd
        una = s.snd_una
        out = s.on_timeout(100.0)
        assert [seg.seq for seg in out] == [una]
        assert s.cwnd == MSS
        assert s.ssthresh == pytest.approx(max(cwnd_before / 2.0, 2.0 * MSS))
        assert s.snd_nxt == una + MSS

    def test_consecutive_timeouts_quadruple_the_timer(self):
        s, r = make_sender(), make_receiver()
        open_window(s, r)
        base = s.effective_rto()
        s.on_timeout(100.0)
        assert s.effective_rto() == pytest.approx(2.0 * base)
        s.on_timeout(200.0)
        assert s.effective_rto() == pytest.approx(4.0 * base)

    def test_backoff_capped(self):
        s, r = make_sender(), make_receiver()
        open_window(s, r)
        for k in range(20):
            s.on_timeout(100.0 + k * 64.0)
        assert s.effective_rto() <= 64.0

    def test_timeout_with_nothing_outstanding_is_noop(self):
        s = make_sender()
        assert s.on_timeout(5.0) == []
        assert s.timeouts == 0


# ---------------------------------------------------------------
# timer estimate
# ---------------------------------------------------------------

class TestRtoEstimator:
    def test_first_sample_sets_mean_and_half_deviation(self):
        s, r = make_sender(), make_receiver()
        seg = s.start(0.0)[0]
        s.on_ack(r.on_data(seg, 0.05), 0.1)
        assert s.srtt == pytest.approx(0.1)
        assert s.rttvar == pytest.approx(0.05)
        # mean + 4 deviations = 0.3, rounded up to coarse ticks
        assert s.rto == pytest.approx(0.4)

    def test_whole_tick_estimate_is_not_rounded_past_float_error(self):
        # 0.2 + 4 * 0.1 is 3.0000000000000004 ticks of 0.2 s: three ticks.
        s, r = make_sender(), make_receiver()
        seg = s.start(0.0)[0]
        s.on_ack(r.on_data(seg, 0.1), 0.2)
        assert s.rto == 3 * 0.2

    def test_tiny_samples_hit_the_tick_floor(self):
        s, r = make_sender(), make_receiver()
        seg = s.start(0.0)[0]
        s.on_ack(r.on_data(seg, 0.0005), 0.001)
        assert s.rto == pytest.approx(0.2)

    def test_exact_multiple_stays_put(self):
        s = make_sender()
        s._rto_update(0.04)
        s._rto_update(0.04)
        # converged estimate keeps raw below one tick
        assert s.rto == pytest.approx(0.2)

    def test_gains_follow_eighth_and_quarter(self):
        s = make_sender()
        s._rto_update(0.1)
        s._rto_update(0.3)
        assert s.srtt == pytest.approx(0.875 * 0.1 + 0.125 * 0.3)
        assert s.rttvar == pytest.approx(0.75 * 0.05 + 0.25 * abs(0.1 - 0.3))

    def test_retransmitted_segment_never_sampled(self):
        s = make_sender()
        s.start(0.0)
        s.on_timeout(1.0)
        s.on_ack(ack(MSS), 1.3)
        assert s.srtt is None
        assert s.backoff == 2
        # the next fresh segment is timeable again
        out = s.on_ack(ack(MSS), 1.3) or s._fill_window(1.3)
        assert s._timing is not None or not out


# ---------------------------------------------------------------
# receiver reassembly
# ---------------------------------------------------------------

class TestReceiver:
    def test_in_order_delivery_counts_once(self):
        r = make_receiver()
        a1 = r.on_data(Segment(0, seq=0, payload=MSS), 0.0)
        assert a1.ack_no == MSS and r.delivered_bytes == MSS
        a2 = r.on_data(Segment(0, seq=0, payload=MSS), 0.1)
        assert a2.ack_no == MSS and r.delivered_bytes == MSS

    def test_gap_then_cumulative_jump(self):
        r = make_receiver()
        r.on_data(Segment(0, seq=MSS, payload=MSS), 0.0)
        r.on_data(Segment(0, seq=2 * MSS, payload=MSS), 0.1)
        assert r.rcv_nxt == 0 and r.delivered_bytes == 0
        a = r.on_data(Segment(0, seq=0, payload=MSS), 0.2)
        assert a.ack_no == 3 * MSS
        assert r.delivered_bytes == 3 * MSS

    def test_out_of_order_duplicate_changes_nothing(self):
        r = make_receiver(TcpVariant.SACK)
        first = r.on_data(Segment(0, seq=MSS, payload=MSS), 0.0)
        again = r.on_data(Segment(0, seq=MSS, payload=MSS), 0.1)
        assert (again.ack_no, again.sack_blocks) == (first.ack_no, first.sack_blocks)
        assert r._ooo == [(MSS, 2 * MSS)] and r.delivered_bytes == 0

    def test_plain_variant_reports_no_blocks(self):
        r = make_receiver(TcpVariant.RENO)
        a = r.on_data(Segment(0, seq=MSS, payload=MSS), 0.0)
        assert a.sack_blocks == ()

    def test_block_report_most_recent_first_max_three(self):
        r = make_receiver(TcpVariant.SACK)
        msses = [1, 3, 5, 7]
        last = None
        for k in msses:
            last = r.on_data(Segment(0, seq=k * MSS, payload=MSS), float(k))
        blocks = last.sack_blocks
        assert len(blocks) == 3
        assert blocks[0] == (7 * MSS, 8 * MSS)
        assert blocks[1] == (5 * MSS, 6 * MSS)

    def test_bridging_segment_merges_blocks(self):
        r = make_receiver(TcpVariant.SACK)
        r.on_data(Segment(0, seq=MSS, payload=MSS), 0.0)
        r.on_data(Segment(0, seq=3 * MSS, payload=MSS), 0.1)
        a = r.on_data(Segment(0, seq=2 * MSS, payload=MSS), 0.2)
        assert a.sack_blocks == ((MSS, 4 * MSS),)


# ---------------------------------------------------------------
# end-to-end over the scripted pipe
# ---------------------------------------------------------------

class TestPipeRuns:
    @pytest.mark.parametrize("variant", list(TcpVariant), ids=lambda v: v.value)
    def test_lossless_run_drains_cleanly(self, variant):
        s = make_sender(variant, rcv_wnd=64 * MSS)
        r = TcpReceiver(0, s.config)
        drive(s, r, rtt=0.1, duration=20.0)
        assert r.delivered_bytes == r.rcv_nxt
        assert s.snd_una <= r.rcv_nxt
        assert s.timeouts == 0
        assert r.delivered_bytes > 100 * MSS

    @pytest.mark.parametrize("variant", list(TcpVariant), ids=lambda v: v.value)
    def test_random_loss_conserves_bytes(self, variant):
        s = make_sender(variant)
        r = TcpReceiver(0, s.config)
        rng = random.Random(404)
        drive(s, r, rtt=0.1, duration=60.0, drop=lambda i: rng.random() < 0.02)
        assert r.delivered_bytes == r.rcv_nxt
        assert s.snd_una <= r.rcv_nxt
        assert r.delivered_bytes > 0

    def test_goodput_under_random_loss_respects_ceiling(self):
        p = 0.01
        rtt = 0.1
        s, r = make_sender(), make_receiver()
        rng = random.Random(2026)
        drive(s, r, rtt=rtt, duration=120.0, drop=lambda i: rng.random() < p)
        goodput = r.delivered_bytes * 8.0 / 120.0
        bound = mathis_goodput_bound(MSS, rtt, p)
        assert goodput <= 1.1 * bound
        assert goodput >= 0.2 * bound

    def test_selective_variant_at_least_as_good_under_burst_loss(self):
        # Burst losses are where gap reports pay off; allow slack for
        # timer-phase luck but require rough parity.
        results = {}
        for variant in TcpVariant:
            s = make_sender(variant)
            r = TcpReceiver(0, s.config)
            rng = random.Random(7)
            drive(s, r, rtt=0.1, duration=60.0,
                  drop=lambda i: rng.random() < 0.03)
            results[variant] = r.delivered_bytes
        assert results[TcpVariant.SACK] >= 0.7 * results[TcpVariant.RENO]


# ---------------------------------------------------------------
# invariants under random delivery orders, losses and timeouts
# ---------------------------------------------------------------

class TestEndpointInvariants:
    @settings(max_examples=100, deadline=None)
    @given(
        variant=st.sampled_from(list(TcpVariant)),
        wnd_segments=st.integers(min_value=2, max_value=16),
        loss=st.sampled_from([0.0, 0.02, 0.1, 0.3]),
        reorder=st.sampled_from([0.0, 0.2, 1.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_invariants_hold_after_every_call(self, variant, wnd_segments, loss,
                                              reorder, seed):
        # Each step delivers or loses one data segment or ACK, picked out
        # of order with probability reorder, or lets the retransmission
        # timer fire.  The clock moves only at a timeout, to the sender's
        # deadline, as the timer contract requires.
        rng = random.Random(seed)
        s = make_sender(variant, rcv_wnd=wnd_segments * MSS)
        r = TcpReceiver(0, s.config)
        data, acks = [], []
        delivered = 0
        now = 0.0

        def check(out=()):
            nonlocal delivered
            # Every segment a call sends starts at or above its snd_una.
            assert all(seg.seq >= s.snd_una for seg in out)
            assert s.snd_una <= s.snd_nxt <= s.max_sent
            assert s.cwnd >= MSS
            # The pipe estimate is read only in recovery.  Outside it, SACK
            # blocks that the receiver reports above a timeout's rewound
            # snd_nxt make it negative; nothing reads it there.
            if s.in_recovery:
                assert s._pipe() >= 0
            assert r.delivered_bytes >= delivered
            delivered = r.delivered_bytes

        out = s.start(now)
        data.extend(out)
        check(out)
        for _ in range(400):
            pick = rng.random()
            if pick < 0.03:
                if s.rto_deadline is not None:
                    now = s.rto_deadline
                    out = s.on_timeout(now)
                    data.extend(out)
                    check(out)
                continue
            pending = data if pick < 0.5 else acks
            if not pending:
                continue
            index = rng.randrange(len(pending)) if rng.random() < reorder else 0
            seg = pending.pop(index)
            if rng.random() < loss:
                continue
            out = ()
            if pending is data:
                acks.append(r.on_data(seg, now))
            else:
                out = s.on_ack(seg, now)
                data.extend(out)
            check(out)
