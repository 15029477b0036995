"""Tests for the analytic gap laws, their enumeration twin, and the bounds."""

import math
import random
import re

import pytest

from redqsim.config import ConfigError
from redqsim.droplaw import (
    InterdropLaw,
    SizeStream,
    fairness_gap,
    interdrop_pmf_exact,
    interdrop_pmf_mechanics,
    interdrop_pmf_red1,
    interdrop_pmf_weighted,
    mathis_goodput_bound,
    montecarlo_interdrop,
    tv_distance,
)
from redqsim.red import RedParams, RedState, RedVariant, random_region_step

EACH_LENGTH = "each must be an integer in (0, max_packet_size]"
FULL = SizeStream((1500,))
HALF = SizeStream((750,))
ALTERNATING = SizeStream((1500, 750))

STREAMS = {"full": FULL, "half": HALF, "alternating": ALTERNATING}

REPLAY_STREAMS = {
    "full": FULL,
    "half": HALF,
    "three-mtu": SizeStream((1500, 750, 375)),
    "one-byte-then-full": SizeStream((1, 1500)),
}


# Long gaps (RED_1 at p_b 0.004 has support 250, RED_5 on (1, 1500) at
# p_b 0.004 has support 500), and p_b 1.0, whose law is {1: 1.0} on
# full-size packets, so montecarlo_interdrop's p_a table has one entry.
LONG_AND_CERTAIN_CASES = [
    (RedVariant.RED_1, 0.004, "full"),
    (RedVariant.RED_5, 0.004, "one-byte-then-full"),
    *((variant, 1.0, "full") for variant in RedVariant),
]


def checked_step_replay(variant, p_b, stream, trials, seed):
    """Reference Monte Carlo pmf: one checked random_region_step per arrival.

    The variant row, the length check and the size powers are all
    resolved inside each call, with the packet length taken from the
    stream; the draw order is the same as montecarlo_interdrop's.  One
    RedState carries across all trials, so every gap after the first
    starts from the count that the drop branch reset.
    """
    params = RedParams(max_packet_size=stream.max_packet_size)
    state = RedState()
    uniform = random.Random(seed).random
    counts = {}
    for _ in range(trials):
        n = 0
        while True:
            length = stream.length_at(n)
            n += 1
            dropped, _pa = random_region_step(variant, params, p_b, state,
                                              length, uniform())
            if dropped:
                counts[n] = counts.get(n, 0) + 1
                break
    return {n: c / trials for n, c in sorted(counts.items())}


# ---------------------------------------------------------------
# law and stream containers
# ---------------------------------------------------------------

class TestContainers:
    def test_law_requires_unit_mass(self):
        with pytest.raises(ValueError):
            InterdropLaw({1: 0.5, 2: 0.4})

    def test_law_rejects_bad_support(self):
        with pytest.raises(ValueError, match="^pmf must be non-empty$"):
            InterdropLaw({})
        with pytest.raises(ValueError):
            InterdropLaw({0: 1.0})
        with pytest.raises(ValueError):
            InterdropLaw({1: 1.5, 2: -0.5})

    def test_law_accessors(self):
        law = InterdropLaw({1: 0.25, 4: 0.75})
        assert law.support_max == 4
        assert law.probability(2) == 0.0
        assert law.mean() == pytest.approx(0.25 + 3.0)

    def test_stream_cycles(self):
        assert ALTERNATING.length_at(0) == 1500
        assert ALTERNATING.length_at(1) == 750
        assert ALTERNATING.length_at(2) == 1500
        assert ALTERNATING.ratio_at(3) == 0.5

    def test_stream_rejects_oversized(self):
        with pytest.raises(ValueError):
            SizeStream((1501,))
        with pytest.raises(ValueError):
            SizeStream(())

    # Every bad field raises a ConfigError naming it, a bool included.
    @pytest.mark.parametrize(
        "sizes, max_packet_size, message",
        [
            ((1000,), 1500.5, "max_packet_size: must be an integer, got 1500.5"),
            ((1000,), float("inf"), "max_packet_size: must be an integer, got inf"),
            ((1000,), float("nan"), "max_packet_size: must be an integer, got nan"),
            ((1000.5,), 1500, f"sizes: {EACH_LENGTH}, got 1000.5"),
            ((1500, 750.0), 1500, f"sizes: {EACH_LENGTH}, got 750.0"),
            ((True,), 1500, f"sizes: {EACH_LENGTH}, got True"),
            ((1500, True), 1500, f"sizes: {EACH_LENGTH}, got True"),
            ((1500,), True, "max_packet_size: must be an integer, got True"),
            ([1500], 1500, "sizes: must be a tuple, got [1500]"),
            ((1500,), 0, "max_packet_size: must be >= 1"),
        ],
        ids=["fractional-M", "infinite-M", "nan-M", "fractional-size",
             "float-size", "bool-size", "bool-second-size", "bool-M", "list-sizes",
             "zero-M"],
    )
    def test_stream_rejects_non_integers_naming_field(self, sizes,
                                                      max_packet_size, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as caught:
            SizeStream(sizes, max_packet_size=max_packet_size)
        assert caught.value.field == message.split(":")[0]


# ---------------------------------------------------------------
# size-blind gap law
# ---------------------------------------------------------------

class TestSizeBlindLaw:
    def test_uniform_over_ten_gaps_at_pb_tenth(self):
        law = interdrop_pmf_red1(0.1)
        assert law.support_max == 10
        for n in range(1, 11):
            assert law.probability(n) == pytest.approx(0.1, rel=1e-9)

    def test_residual_mass_when_budget_not_integral(self):
        law = interdrop_pmf_red1(0.3)
        assert law.support_max == 4
        for n in (1, 2, 3):
            assert law.probability(n) == pytest.approx(0.3, rel=1e-12)
        assert law.probability(4) == pytest.approx(0.1, rel=1e-9)

    def test_certain_drop_collapses_to_single_gap(self):
        assert interdrop_pmf_red1(1.0).pmf == {1: 1.0}

    @pytest.mark.parametrize("p_b", [0.0, -0.1, 1.5])
    def test_rejects_bad_probability(self, p_b):
        with pytest.raises(ValueError):
            interdrop_pmf_red1(p_b)

    @pytest.mark.parametrize("p_b", [0.01, 0.05, 0.1, 0.37, 0.8])
    def test_support_bound(self, p_b):
        law = interdrop_pmf_red1(p_b)
        assert law.support_max <= math.ceil(1.0 / p_b) + 1


# ---------------------------------------------------------------
# weighted gap laws
# ---------------------------------------------------------------

class TestWeightedLaws:
    def test_half_size_stream_stretches_support(self):
        law = interdrop_pmf_weighted(0.1, HALF, RedVariant.RED_4)
        assert law.support_max == 20
        for n in range(1, 21):
            assert law.probability(n) == pytest.approx(0.05, rel=1e-9)

    def test_squared_weights_stretch_twice_as_far(self):
        law = interdrop_pmf_weighted(0.1, HALF, RedVariant.RED_5)
        assert law.support_max == 40
        for n in range(1, 41):
            assert law.probability(n) == pytest.approx(0.025, rel=1e-9)

    def test_alternating_stream_mass_follows_weights(self):
        law = interdrop_pmf_weighted(0.1, ALTERNATING, RedVariant.RED_4)
        assert law.support_max == 13
        for n in range(1, 13):
            expect = 0.1 if n % 2 == 1 else 0.05
            assert law.probability(n) == pytest.approx(expect, rel=1e-9)
        assert law.probability(13) == pytest.approx(0.1, rel=1e-6)

    def test_alternating_squared_weights(self):
        law = interdrop_pmf_weighted(0.1, ALTERNATING, RedVariant.RED_5)
        assert law.support_max == 16
        for n in range(1, 16):
            expect = 0.1 if n % 2 == 1 else 0.025
            assert law.probability(n) == pytest.approx(expect, rel=1e-9)

    def test_full_size_stream_matches_size_blind_law(self):
        for variant in (RedVariant.RED_4, RedVariant.RED_5):
            law = interdrop_pmf_weighted(0.1, FULL, variant)
            assert tv_distance(law, interdrop_pmf_red1(0.1)) < 1e-12

    @pytest.mark.parametrize(
        "variant", [RedVariant.RED_1, RedVariant.RED_2, RedVariant.RED_3]
    )
    def test_rejects_unweighted_variants(self, variant):
        with pytest.raises(ValueError):
            interdrop_pmf_weighted(0.1, HALF, variant)

    @pytest.mark.parametrize("stream", list(STREAMS.values()))
    @pytest.mark.parametrize("variant", [RedVariant.RED_4, RedVariant.RED_5])
    def test_support_bound_with_min_weight(self, stream, variant):
        p_b = 0.07
        law = interdrop_pmf_weighted(p_b, stream, variant)
        exponent = 1 if variant is RedVariant.RED_4 else 2
        w_min = min(stream.ratio_at(i) for i in range(len(stream.sizes))) ** exponent
        assert law.support_max <= math.ceil(1.0 / (p_b * w_min)) + 1


# ---------------------------------------------------------------
# enumeration route against the closed forms
# ---------------------------------------------------------------

class TestEnumerationRoute:
    @pytest.mark.parametrize("stream", list(STREAMS.values()), ids=list(STREAMS))
    def test_size_blind_enumeration_ignores_sizes(self, stream):
        exact = interdrop_pmf_exact(RedVariant.RED_1, 0.1, stream)
        assert tv_distance(exact, interdrop_pmf_red1(0.1)) < 1e-12

    @pytest.mark.parametrize("stream", list(STREAMS.values()), ids=list(STREAMS))
    @pytest.mark.parametrize("variant", [RedVariant.RED_4, RedVariant.RED_5])
    def test_weighted_enumeration_matches_closed_form(self, variant, stream):
        exact = interdrop_pmf_exact(variant, 0.1, stream)
        closed = interdrop_pmf_weighted(0.1, stream, variant)
        assert tv_distance(exact, closed) < 1e-12

    def test_numerator_scaled_policy_on_constant_stream(self):
        # With every packet at half size, rescaling the probability
        # before uniformization is the same as halving p_b outright.
        exact = interdrop_pmf_exact(RedVariant.RED_2, 0.1, HALF)
        assert tv_distance(exact, interdrop_pmf_red1(0.05)) < 1e-12

    def test_full_size_stream_collapses_all_variants(self):
        reference = interdrop_pmf_red1(0.1)
        for variant in RedVariant:
            exact = interdrop_pmf_exact(variant, 0.1, FULL)
            assert tv_distance(exact, reference) < 1e-12


# ---------------------------------------------------------------
# exact law of the production mechanics against the oracle
# ---------------------------------------------------------------

# Streams and values of p_b over which the mechanics' exact law must equal
# the hand-written enumeration bit for bit.
ORACLE_STREAMS = [(1500,), (750,), (1500, 750), (1500, 750, 375), (1, 1500),
                  (40, 1500, 576)]
ORACLE_PBS = [1.0, 0.5, 0.1, 0.03, 0.01, 0.004, 0.0013]


class TestMechanicsLaw:
    @pytest.mark.parametrize("variant", list(RedVariant), ids=lambda v: v.value)
    def test_equals_enumeration_bit_for_bit(self, variant):
        mismatched = [
            (sizes, p_b)
            for sizes in ORACLE_STREAMS
            for p_b in ORACLE_PBS
            if interdrop_pmf_mechanics(variant, p_b, SizeStream(sizes)).pmf
            != interdrop_pmf_exact(variant, p_b, SizeStream(sizes)).pmf
        ]
        assert mismatched == []

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            interdrop_pmf_mechanics(RedVariant.RED_1, 0.0, FULL)


# ---------------------------------------------------------------
# Monte Carlo through the production mechanics
# ---------------------------------------------------------------

class TestMonteCarlo:
    @pytest.mark.parametrize("stream_name", list(STREAMS))
    @pytest.mark.parametrize("variant", list(RedVariant), ids=lambda v: v.value)
    def test_empirical_law_matches_enumeration(self, variant, stream_name):
        stream = STREAMS[stream_name]
        exact = interdrop_pmf_exact(variant, 0.1, stream)
        trials = 4000 * exact.support_max
        empirical = montecarlo_interdrop(variant, 0.1, stream, trials, seed=20260819)
        assert tv_distance(empirical, exact) < 0.02

    @pytest.mark.parametrize("seed", (3, 20260819))
    @pytest.mark.parametrize("stream_name", list(REPLAY_STREAMS))
    @pytest.mark.parametrize("variant", list(RedVariant), ids=lambda v: v.value)
    def test_replay_bit_identical_to_checked_steps(self, variant, stream_name,
                                                   seed):
        stream = REPLAY_STREAMS[stream_name]
        law = montecarlo_interdrop(variant, 0.1, stream, 3000, seed=seed)
        assert law.pmf == checked_step_replay(variant, 0.1, stream, 3000, seed)

    @pytest.mark.parametrize("seed", (3, 20260819))
    @pytest.mark.parametrize(
        "variant, p_b, stream_name", LONG_AND_CERTAIN_CASES,
        ids=[f"{v.value}-{p_b}-{name}" for v, p_b, name in LONG_AND_CERTAIN_CASES],
    )
    def test_replay_bit_identical_on_long_and_certain_gaps(self, variant, p_b,
                                                           stream_name, seed):
        stream = REPLAY_STREAMS[stream_name]
        law = montecarlo_interdrop(variant, p_b, stream, 3000, seed=seed)
        assert law.pmf == checked_step_replay(variant, p_b, stream, 3000, seed)

    @pytest.mark.parametrize("p_b", (0.1, 0.004))
    @pytest.mark.parametrize("stream_name", list(REPLAY_STREAMS))
    @pytest.mark.parametrize("variant", list(RedVariant), ids=lambda v: v.value)
    def test_sampled_support_inside_exact_support(self, variant, stream_name,
                                                  p_b):
        stream = REPLAY_STREAMS[stream_name]
        sampled = montecarlo_interdrop(variant, p_b, stream, 3000, seed=7)
        exact = interdrop_pmf_exact(variant, p_b, stream)
        assert set(sampled.pmf) <= set(exact.pmf)

    def test_same_seed_reproduces_law_exactly(self):
        a = montecarlo_interdrop(RedVariant.RED_4, 0.1, ALTERNATING, 5000, seed=11)
        b = montecarlo_interdrop(RedVariant.RED_4, 0.1, ALTERNATING, 5000, seed=11)
        assert a.pmf == b.pmf

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            montecarlo_interdrop(RedVariant.RED_1, 0.1, FULL, 0, seed=1)


# ---------------------------------------------------------------
# throughput ceiling and fairness
# ---------------------------------------------------------------

class TestMathisBound:
    def test_reference_point(self):
        assert mathis_goodput_bound(1500, 0.1, 0.01, c=1.0) == pytest.approx(1.2e6)

    def test_default_constant(self):
        expect = 1.2e6 * math.sqrt(1.5)
        assert mathis_goodput_bound(1500, 0.1, 0.01) == pytest.approx(expect)

    def test_scales_linearly_with_segment_size(self):
        full = mathis_goodput_bound(1500, 0.1, 0.01)
        half = mathis_goodput_bound(750, 0.1, 0.01)
        assert full == pytest.approx(2.0 * half)

    def test_decreasing_in_loss(self):
        bounds = [mathis_goodput_bound(1500, 0.1, p) for p in (0.001, 0.01, 0.1, 1.0)]
        assert bounds == sorted(bounds, reverse=True)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mss_bytes": 0, "rtt_s": 0.1, "loss_prob": 0.01},
            {"mss_bytes": 1500, "rtt_s": 0.0, "loss_prob": 0.01},
            {"mss_bytes": 1500, "rtt_s": 0.1, "loss_prob": 0.0},
            {"mss_bytes": 1500, "rtt_s": 0.1, "loss_prob": 1.1},
            {"mss_bytes": 1500, "rtt_s": 0.1, "loss_prob": 0.01, "c": 0.0},
        ],
    )
    def test_rejects_degenerate_inputs(self, kwargs):
        with pytest.raises(ValueError):
            mathis_goodput_bound(**kwargs)


class TestFairnessGap:
    def test_balanced_when_loss_tracks_squared_size(self):
        assert fairness_gap(1500, 0.04, 750, 0.01) == 0.0

    def test_quarter_size_needs_sixteenth_loss(self):
        for p in (0.0004, 0.004, 0.04, 0.16):
            assert fairness_gap(1500, p, 375, p / 16.0) == 0.0

    def test_equal_loss_with_halved_size_gives_three_quarters(self):
        assert fairness_gap(1500, 0.01, 750, 0.01) == pytest.approx(0.75)

    def test_symmetric(self):
        assert fairness_gap(1500, 0.03, 900, 0.007) == pytest.approx(
            fairness_gap(900, 0.007, 1500, 0.03)
        )

    def test_bounded_by_one(self):
        assert 0.0 <= fairness_gap(1500, 1.0, 10, 1e-6) < 1.0

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fairness_gap(0, 0.1, 750, 0.1)
        with pytest.raises(ValueError):
            fairness_gap(1500, 0.0, 750, 0.1)
