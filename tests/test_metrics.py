"""Tests for metric helpers and run-report assembly."""

import pytest

from redqsim.metrics import (
    BottleneckAudit,
    goodput_bps,
    loss_ratio,
)


# ---------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------

class TestScalarHelpers:
    def test_goodput_converts_bytes_per_interval_to_bits_per_second(self):
        assert goodput_bps(1_000_000, 8.0) == pytest.approx(1e6)

    def test_goodput_zero_interval_rejected(self):
        with pytest.raises(ValueError):
            goodput_bps(1, 0.0)

    @pytest.mark.parametrize(
        "drops, arrivals, expected",
        [(0, 100, 0.0), (25, 100, 0.25), (100, 100, 1.0)],
    )
    def test_loss_ratio_values(self, drops, arrivals, expected):
        assert loss_ratio(drops, arrivals) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: goodput_bps(-1, 1.0), "delivered_bytes must be >= 0"),
            (lambda: loss_ratio(101, 100), "need 0 <= drops <= arrivals"),
        ],
        ids=["negative-bytes", "drops-over-arrivals"],
    )
    def test_impossible_counts_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    def test_loss_ratio_zero_arrivals_is_undefined(self):
        assert loss_ratio(0, 0) is None

    def test_loss_ratio_monotone_in_drops(self):
        ratios = [loss_ratio(d, 1000) for d in range(0, 1001, 50)]
        assert ratios == sorted(ratios)


# ---------------------------------------------------------------
# containers
# ---------------------------------------------------------------

class TestContainers:
    def test_audit_conservation_holds(self):
        audit = BottleneckAudit(
            arrivals=1000, accepted=940, drops_random=40,
            drops_forced_avg=15, drops_buffer=5, departed=930,
            residual_q=10, max_q=120,
        )
        assert audit.drops_total == 60
        assert audit.conserved
        assert audit.violations == ()

    def test_audit_detects_lost_packets(self):
        audit = BottleneckAudit(
            arrivals=1000, accepted=940, drops_random=40,
            drops_forced_avg=15, drops_buffer=4, departed=930,
            residual_q=10, max_q=120,
        )
        assert not audit.conserved
        assert audit.violations == ("arrivals 1000 != accepted 940 + drops 59",)

    def test_audit_detects_queue_leak(self):
        audit = BottleneckAudit(
            arrivals=1000, accepted=940, drops_random=40,
            drops_forced_avg=15, drops_buffer=5, departed=935,
            residual_q=10, max_q=120,
        )
        assert not audit.conserved
        assert audit.violations == ("accepted 940 != departed 935 + residual_q 10",)
