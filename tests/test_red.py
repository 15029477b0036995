"""Unit tests for the drop gatekeeper: averaging, probabilities, branches."""

import copy
import math
import random

import pytest
from hypothesis import given, strategies as st

from redqsim.red import (
    VARIANT_EXPONENTS,
    DropDecision,
    RedParams,
    RedState,
    RedVariant,
    Verdict,
    compute_pb,
    decide,
    on_packet_arrival,
    random_region_step,
)

ALL_VARIANTS = list(RedVariant)


@pytest.fixture
def params():
    return RedParams()


def final_pa(variant, params, p_b, count, length):
    """p_a of one random-region step at the given count.

    u = 1.0 is never below p_a, so the step accepts and reports p_a.
    """
    dropped, p_a = random_region_step(variant, params, p_b, RedState(count=count),
                                      length, 1.0)
    assert not dropped
    return p_a


def count_step(variant, params, length, p_b=0.1):
    """Weight one accepted packet adds to a fresh post-drop counter."""
    state = RedState()
    random_region_step(variant, params, p_b, state, length, 1.0)
    return state.count


def fold(state, params, q):
    """state.avg after decide() folds q into it; every branch does."""
    decide(state, params, VARIANT_EXPONENTS[RedVariant.RED_1], q,
           params.max_packet_size, 0.5)
    return state.avg


# ---------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------

class TestRedParams:
    def test_defaults_are_valid(self):
        p = RedParams()
        assert p.min_th < p.max_th <= p.buffer_cap

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"w_q": 0.0},
            {"w_q": 1.5},
            {"min_th": -1.0},
            {"min_th": 120.0, "max_th": 120.0},
            {"max_p": 0.0},
            {"max_p": 1.2},
            {"buffer_cap": 0},
            {"max_th": 300.0},
            {"max_packet_size": 0},
            {"min_th": float("nan")},
            {"max_th": float("nan")},
            {"buffer_cap": float("inf")},
            {"buffer_cap": 200.5},
            {"max_packet_size": 1500.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError, match=list(kwargs)[-1]):
            RedParams(**kwargs)

    def test_serialized_variant_names(self):
        assert [v.value for v in RedVariant] == [
            "RED_1", "RED_2", "RED_3", "RED_4", "RED_5",
        ]


# ---------------------------------------------------------------
# moving average
# ---------------------------------------------------------------

class TestMovingAverage:
    def test_step_from_zero(self, params):
        state = RedState()
        assert fold(state, params, 100) == pytest.approx(0.2, rel=1e-12)

    def test_full_weight_tracks_queue(self):
        state = RedState(avg=55.0)
        assert fold(state, RedParams(w_q=1.0), 7) == 7.0

    def test_stays_between_old_avg_and_queue(self, params):
        rng = random.Random(101)
        state = RedState()
        for _ in range(500):
            q = rng.randrange(0, params.buffer_cap + 1)
            before = state.avg
            after = fold(state, params, q)
            assert min(before, q) <= after <= max(before, q)

    def test_converges_to_constant_queue(self, params):
        state = RedState()
        for _ in range(5000):
            fold(state, params, 90)
        assert state.avg == pytest.approx(90.0, rel=1e-3)

    @given(
        w_q=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        avg=st.floats(min_value=0.0, max_value=1e4),
        q=st.integers(min_value=0, max_value=10_000),
    )
    def test_matches_readme_formula_bit_for_bit(self, w_q, avg, q):
        state = RedState(avg=avg)
        expected = (1.0 - w_q) * avg + w_q * q  # README's average
        assert fold(state, RedParams(w_q=w_q), q) == expected


# ---------------------------------------------------------------
# temporary drop probability
# ---------------------------------------------------------------

class TestComputePb:
    def test_lower_boundary_is_zero(self, params):
        assert compute_pb(params, params.min_th) == 0.0

    def test_midpoint(self, params):
        assert compute_pb(params, 80.0) == pytest.approx(0.05, rel=1e-12)

    def test_approaches_max_p_near_upper_threshold(self, params):
        assert compute_pb(params, 119.999) == pytest.approx(0.1, rel=1e-4)

    @pytest.mark.parametrize("avg", [0.0, 39.999, 120.0, 200.0])
    def test_rejects_outside_region(self, params, avg):
        with pytest.raises(ValueError):
            compute_pb(params, avg)

    def test_monotone_in_avg(self, params):
        values = [compute_pb(params, a) for a in (40.0, 60.0, 80.0, 100.0, 119.9)]
        assert values == sorted(values)

    @given(
        min_th=st.floats(min_value=0.0, max_value=100.0),
        width=st.floats(min_value=1e-3, max_value=200.0),
        max_p=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_matches_readme_formula_bit_for_bit(self, min_th, width, max_p, frac):
        max_th = min_th + width
        params = RedParams(min_th=min_th, max_th=max_th, max_p=max_p,
                           buffer_cap=math.ceil(max_th))
        # Rounding may land min_th + frac * width on max_th: step back inside.
        avg = min(min_th + frac * (max_th - min_th), math.nextafter(max_th, 0.0))
        expected = max_p * (avg - min_th) / (max_th - min_th)  # README p_b
        assert compute_pb(params, avg) == expected


# ---------------------------------------------------------------
# final drop probability
# ---------------------------------------------------------------

class TestFinalDropProbability:
    def test_size_blind_uniformization(self, params):
        assert final_pa(RedVariant.RED_1, params, 0.1, 0.0, 1500) == pytest.approx(0.1)
        assert final_pa(RedVariant.RED_1, params, 0.1, 5.0, 1500) == pytest.approx(0.2)

    def test_exhausted_window_drops_surely(self, params):
        assert final_pa(RedVariant.RED_1, params, 0.1, 10.0, 1500) == 1.0
        assert final_pa(RedVariant.RED_1, params, 0.1, 50.0, 1500) == 1.0

    def test_half_size_scaling_at_zero_count(self, params):
        assert final_pa(RedVariant.RED_2, params, 0.1, 0.0, 750) == pytest.approx(0.05)
        assert final_pa(RedVariant.RED_3, params, 0.1, 0.0, 750) == pytest.approx(0.05)
        assert final_pa(RedVariant.RED_4, params, 0.1, 0.0, 750) == pytest.approx(0.05)
        assert final_pa(RedVariant.RED_5, params, 0.1, 0.0, 750) == pytest.approx(0.025)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_full_size_packets_match_size_blind_policy(self, params, variant):
        for count in (0.0, 1.0, 3.0, 7.5, 9.0, 10.0, 12.0):
            for p_b in (0.02, 0.1, 0.5):
                expect = final_pa(RedVariant.RED_1, params, p_b, count, 1500)
                assert final_pa(variant, params, p_b, count, 1500) == expect

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_never_exceeds_size_blind_at_full_size(self, params, variant):
        # Smaller packets never raise the drop probability above the
        # size-blind value for a full-size packet at the same count.
        for length in (100, 375, 750, 1200, 1500):
            for count in (0.0, 2.0, 5.0, 9.0, 11.0):
                for p_b in (0.05, 0.1):
                    cap = final_pa(RedVariant.RED_1, params, p_b, count, 1500)
                    assert final_pa(variant, params, p_b, count, length) <= cap + 1e-15

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_monotone_in_packet_size(self, params, variant):
        for count in (0.0, 4.0, 8.0):
            probs = [
                final_pa(variant, params, 0.1, count, length)
                for length in (300, 600, 900, 1200, 1500)
            ]
            assert probs == sorted(probs)

    def test_bounds_hold_everywhere(self, params):
        rng = random.Random(77)
        for _ in range(2000):
            variant = rng.choice(ALL_VARIANTS)
            p_b = rng.uniform(1e-6, 1.0)
            count = rng.uniform(0.0, 30.0)
            length = rng.randrange(1, 1501)
            p_a = final_pa(variant, params, p_b, count, length)
            assert 0.0 <= p_a <= 1.0

    def test_rejects_oversized_packet(self, params):
        with pytest.raises(ValueError):
            random_region_step(RedVariant.RED_1, params, 0.1, RedState(), 1501, 1.0)


# ---------------------------------------------------------------
# counter mechanics
# ---------------------------------------------------------------

class TestCountMechanics:
    def test_increment_per_variant(self, params):
        assert count_step(RedVariant.RED_1, params, 750) == 1.0
        assert count_step(RedVariant.RED_2, params, 750) == 1.0
        assert count_step(RedVariant.RED_3, params, 750) == 1.0
        assert count_step(RedVariant.RED_4, params, 750) == 0.5
        assert count_step(RedVariant.RED_5, params, 750) == 0.25

    @given(
        variant=st.sampled_from(ALL_VARIANTS),
        p_b=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        count=st.floats(min_value=0.0, max_value=1e6),
        data=st.data(),
    )
    def test_matches_variant_table_bit_for_bit(self, variant, p_b, count, data):
        max_size = data.draw(st.integers(min_value=1, max_value=9000))
        length = data.draw(st.integers(min_value=1, max_value=max_size))
        params = RedParams(max_packet_size=max_size)
        s = length / max_size
        # The README variant table, one formula per row.
        if variant is RedVariant.RED_1:
            num, den, step = p_b, 1.0 - count * p_b, 1.0
        elif variant is RedVariant.RED_2:
            num, den, step = s * p_b, 1.0 - count * s * p_b, 1.0
        elif variant is RedVariant.RED_3:
            num, den, step = s * p_b, 1.0 - count * p_b, 1.0
        elif variant is RedVariant.RED_4:
            num, den, step = s * p_b, 1.0 - count * p_b, s
        else:
            num, den, step = s * s * p_b, 1.0 - count * p_b, s * s
        expected = 1.0 if den <= 0.0 else min(max(num / den, 0.0), 1.0)
        assert final_pa(variant, params, p_b, count, length) == expected
        assert count_step(variant, params, length, p_b) == step

    def test_accept_advances_and_drop_resets(self, params):
        state = RedState()
        dropped, p_a = random_region_step(
            RedVariant.RED_4, params, 0.1, state, 750, 0.9
        )
        assert not dropped and state.count == 0.5
        assert p_a == pytest.approx(0.05)
        dropped, _ = random_region_step(RedVariant.RED_4, params, 0.1, state, 750, 0.0)
        assert dropped and state.count == 0.0

    def test_draw_strictly_below_probability_drops(self, params):
        state = RedState()
        # p_a = 0.1 exactly at count 0: u = p_a must accept.
        dropped, p_a = random_region_step(
            RedVariant.RED_1, params, 0.1, state, 1500, 0.1
        )
        assert p_a == pytest.approx(0.1) and not dropped


# ---------------------------------------------------------------
# full admission branch ordering
# ---------------------------------------------------------------

class TestOnPacketArrival:
    def test_below_min_accepts_and_resets_count(self, params):
        state = RedState(avg=10.0, q=5, count=3.0)
        d = on_packet_arrival(state, params, RedVariant.RED_1, 1500, 0.0)
        assert d == DropDecision(Verdict.ACCEPT) and d.accepted
        assert state.count == 0.0 and state.q == 6

    def test_full_buffer_drops_before_anything_else(self, params):
        state = RedState(avg=10.0, q=params.buffer_cap, count=2.0)
        d = on_packet_arrival(state, params, RedVariant.RED_1, 1500, 0.99)
        assert d.verdict is Verdict.FORCED_DROP_BUFFER
        assert state.q == params.buffer_cap and state.count == 0.0

    def test_average_at_or_above_max_forces_drop(self, params):
        state = RedState(avg=150.0, q=150, count=4.0)
        d = on_packet_arrival(state, params, RedVariant.RED_1, 1500, 0.99)
        assert d.verdict is Verdict.FORCED_DROP_AVG
        assert state.q == 150 and state.count == 0.0

    def test_random_region_drop_and_accept(self, params):
        state = RedState(avg=80.0, q=80)
        d = on_packet_arrival(state, params, RedVariant.RED_1, 1500, 0.0)
        assert d.verdict is Verdict.RANDOM_DROP and not d.accepted
        assert state.q == 80 and state.count == 0.0
        d = on_packet_arrival(state, params, RedVariant.RED_1, 1500, 0.98)
        assert d.verdict is Verdict.ACCEPT and state.q == 81
        assert state.count == 1.0

    def test_average_updates_even_when_buffer_full(self, params):
        state = RedState(avg=100.0, q=params.buffer_cap)
        on_packet_arrival(state, params, RedVariant.RED_1, 1500, 0.5)
        assert state.avg > 100.0

    @given(
        variant=st.sampled_from(ALL_VARIANTS),
        w_q=st.floats(min_value=0.001, max_value=1.0),
        max_p=st.floats(min_value=0.01, max_value=1.0),
        buffer_cap=st.integers(min_value=1, max_value=12),
        ops=st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=1, max_value=1500),
                st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            ),
            max_size=300,
        ),
    )
    def test_occupancy_within_buffer_over_random_streams(
            self, variant, w_q, max_p, buffer_cap, ops):
        # Each op is an arrival (True) or, when the queue is non-empty, a
        # departure, which the caller owns.
        p = RedParams(w_q=w_q, min_th=buffer_cap / 2, max_th=float(buffer_cap),
                      max_p=max_p, buffer_cap=buffer_cap)
        state = RedState()
        for arrive, length, u in ops:
            if arrive:
                on_packet_arrival(state, p, variant, length, u)
            elif state.q:
                state.q -= 1
            assert 0 <= state.q <= p.buffer_cap

    def test_occupancy_never_exceeds_capacity(self):
        p = RedParams(min_th=1.0, max_th=3.0, buffer_cap=3, max_p=0.1)
        state = RedState()
        rng = random.Random(5)
        for _ in range(500):
            on_packet_arrival(state, p, RedVariant.RED_1, 1500, rng.random())
            assert 0 <= state.q <= p.buffer_cap

    def test_decision_is_pure_given_state_and_inputs(self, params):
        state_a = RedState(avg=90.0, q=90, count=4.0)
        state_b = copy.deepcopy(state_a)
        d_a = on_packet_arrival(state_a, params, RedVariant.RED_3, 750, 0.03)
        d_b = on_packet_arrival(state_b, params, RedVariant.RED_3, 750, 0.03)
        assert d_a == d_b and state_a == state_b

    @pytest.mark.parametrize("length", [0, -5, 1501])
    def test_rejects_bad_length(self, params, length):
        with pytest.raises(ValueError):
            on_packet_arrival(RedState(), params, RedVariant.RED_1, length, 0.5)

    @pytest.mark.parametrize("u", [-0.1, 1.0, 1.5])
    def test_rejects_bad_draw(self, params, u):
        with pytest.raises(ValueError):
            on_packet_arrival(RedState(), params, RedVariant.RED_1, 1500, u)


# ---------------------------------------------------------------
# unchecked core against the checked entry point
# ---------------------------------------------------------------

class TestDecideCore:
    @given(
        variant=st.sampled_from(ALL_VARIANTS),
        w_q=st.floats(min_value=0.05, max_value=1.0),
        stream=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10),
                st.integers(min_value=1, max_value=1500),
                st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            ),
            min_size=1,
            max_size=200,
        ),
    )
    def test_core_agrees_with_on_packet_arrival(self, variant, w_q, stream):
        # Small thresholds and q up to past buffer_cap visit every branch.
        params = RedParams(w_q=w_q, min_th=2.0, max_th=6.0, buffer_cap=8)
        row = VARIANT_EXPONENTS[variant]
        checked, core = RedState(), RedState()
        for q, length, u in stream:
            checked.q = q
            d = on_packet_arrival(checked, params, variant, length, u)
            verdict = decide(core, params, row, q, length, u)
            assert verdict is d.verdict
            assert core.avg == checked.avg and core.count == checked.count
            assert checked.q == q + (verdict is Verdict.ACCEPT)
            assert core.q == 0
            if verdict is not Verdict.ACCEPT:
                assert core.count == 0.0


# ---------------------------------------------------------------
# policy equivalence at full-size packets
# ---------------------------------------------------------------

class TestFullSizeEquivalence:
    @given(
        w_q=st.floats(min_value=0.05, max_value=1.0),
        max_p=st.floats(min_value=0.01, max_value=1.0),
        max_size=st.integers(min_value=1, max_value=9000),
        stream=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10),
                st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            ),
            min_size=1,
            max_size=200,
        ),
    )
    def test_all_variants_agree_when_every_packet_is_full_size(
            self, w_q, max_p, max_size, stream):
        # L = M makes s = 1, so every variant row reduces to RED_1's.
        params = RedParams(w_q=w_q, min_th=2.0, max_th=6.0, max_p=max_p,
                           buffer_cap=8, max_packet_size=max_size)
        runs = []
        for variant in ALL_VARIANTS:
            state, row = RedState(), VARIANT_EXPONENTS[variant]
            runs.append([(decide(state, params, row, q, max_size, u), state.avg,
                          state.count) for q, u in stream])
        for variant, run in zip(ALL_VARIANTS[1:], runs[1:]):
            assert run == runs[0], variant

    @pytest.mark.parametrize(
        "variant",
        [RedVariant.RED_2, RedVariant.RED_3, RedVariant.RED_4, RedVariant.RED_5],
    )
    def test_identical_decisions_against_shared_draws(self, params, variant):
        # With every packet at the reference size, all policies collapse
        # to the size-blind one: same draws, same verdict sequence.
        rng = random.Random(3141)
        draws = [rng.random() for _ in range(20000)]
        verdicts = {}
        for v in (RedVariant.RED_1, variant):
            state = RedState(avg=80.0, q=80)
            seq = []
            for u in draws:
                d = on_packet_arrival(state, params, v, 1500, u)
                seq.append(d.verdict)
                if d.accepted:
                    state.q -= 1  # immediate service keeps q pinned
            verdicts[v] = seq
        assert verdicts[RedVariant.RED_1] == verdicts[variant]
