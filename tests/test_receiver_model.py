"""The receiver's fast paths against a second model of the receiver.

ReferenceReceiver is TcpReceiver as it was before on_data took a fast
path for an in-order segment with nothing buffered and one for a
segment that extends the highest buffered block: every segment goes
through the general reassembly branches, and the gap-report order is
kept for both variants.  Random streams of in-order,
out-of-order, duplicate and overlapping segments go to both, and after
every call the ACK fields, the frontier, the delivered bytes and the
buffered blocks must agree.
"""

from hypothesis import given, settings, strategies as st

from redqsim.tcp import (
    MAX_SACK_BLOCKS,
    Segment,
    TcpReceiver,
    TcpVariant,
    _merge_ranges,
)

MSS = 100


class ReferenceReceiver:
    """TcpReceiver.on_data without the fast path (seg.end spelled out)."""

    def __init__(self, flow_id: int, variant: TcpVariant, mss: int, rcv_wnd: int):
        self.flow_id = flow_id
        self.variant = variant
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

    def on_data(self, seg: Segment) -> Segment:
        if seg.is_ack:
            raise ValueError("receiver expects data segments")
        start, end = seg.seq, seg.seq + seg.payload
        if end <= self.rcv_nxt:
            pass  # already delivered
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
            self._ooo = _merge_ranges(self._ooo + [(start, end)])
            self._touch_block(start, end)
        blocks: tuple[tuple[int, int], ...] = ()
        if self.variant is TcpVariant.SACK:
            blocks = tuple(self._recent[:MAX_SACK_BLOCKS])
        return Segment(
            self.flow_id, is_ack=True, ack_no=self.rcv_nxt, sack_blocks=blocks
        )


# (kind, offset, length): where the segment starts relative to the
# reference receiver's frontier, or a copy of an earlier segment.
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["in_order", "overlap", "ahead", "extend", "repeat"]),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=3),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(variant=st.sampled_from(list(TcpVariant)), steps=STEPS)
def test_fast_path_matches_the_reference_receiver(variant, steps):
    fast, ref = TcpReceiver(0, variant), ReferenceReceiver(0, variant, MSS, 64 * MSS)
    sent: list[Segment] = []
    for kind, offset, length in steps:
        if kind == "repeat" and sent:
            seg = sent[offset % len(sent)]
        else:
            # In-order segments start at the frontier; overlapping ones
            # start below it and end above it; extending ones start where
            # the highest buffered block ends; the rest land past a gap.
            ahead = ref.rcv_nxt + (offset + 1) * MSS // 2
            start = {"in_order": ref.rcv_nxt,
                     "overlap": max(0, ref.rcv_nxt - offset * MSS // 4),
                     "ahead": ahead,
                     "extend": ref._ooo[-1][1] if ref._ooo else ahead}.get(kind, 0)
            seg = Segment(0, seq=start, payload=length * MSS + offset)
        sent.append(seg)
        got, want = fast.on_data(seg), ref.on_data(seg)
        assert (got.ack_no, got.sack_blocks) == (want.ack_no, want.sack_blocks)
        assert got.is_ack and got.wire_bytes == want.wire_bytes
        assert (fast.rcv_nxt, fast.delivered_bytes, fast._ooo) == \
            (ref.rcv_nxt, ref.delivered_bytes, ref._ooo)
