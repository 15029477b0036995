"""Acceptance gate: every acceptance criterion at its stated tolerance.

Each test prints one line `criterion NN PASS|FAIL - detail`, and `pytest -v`
itself yields one PASSED/FAILED line per criterion.  Simulation runs are
cached module-wide; each uses the desk-scale setup (60 flows, 30 Mbit/s
bottleneck, 60 s simulated, seed 1, Reno endpoints).

Two sub-clauses encode idealized per-arrival marking ratios (4:2:1 for the
linear-weight policies, 16:4:1 for the squared one) that the actual
closed-loop mechanics do not reproduce at the 15 ms propagation delay:
realized per-group loss is the count-mix-weighted average of the marking
probability, and timeout-dominated small windows bias that mix (RED_2
additionally saturates to deterministic drops once count reaches 1/p_b,
collapsing large-MTU flows outright — which its other clause asserts).
Those assertions are kept at their stated tolerances and fail honestly
rather than being weakened to fit.
"""

import os
import random
import time

import pytest

from redqsim.cli import CSV_COLUMNS, report_rows
from redqsim.droplaw import (
    SizeStream,
    fairness_gap,
    interdrop_pmf_red1,
    interdrop_pmf_weighted,
    mathis_goodput_bound,
    montecarlo_interdrop,
    tv_distance,
)
from redqsim.engine import FlowGroup, Scenario, run_scenario
from redqsim.parallel import ordered_map
from redqsim.red import RedParams, RedState, RedVariant, on_packet_arrival
from redqsim.tcp import TcpVariant
from test_engine import bernoulli_judge

TV_TOLERANCE = 0.02
MC_SEED = 20260819
UNIFORM_TRIALS = 1_000_000
WEIGHTED_TRIALS = 200_000
IDENTITY_ARRIVALS = 100_000

PLR_EQUAL_TOL = 0.15          # criterion 7: relative spread of the three PLRs
GOODPUT_RATIO_TOL = 0.30      # criterion 7: goodput vs 4:2:1
PLR_RATIO_TOL = 0.25          # criteria 8-9: PLR vs 4:2:1
RED2_LARGE_PLR_FLOOR = 0.10   # criterion 8
GOODPUT_MATCH_TOL = 0.10      # criterion 9: RED_4 vs RED_3 totals
SQUARED_RATIO_TOL = 0.35      # criterion 10: PLR vs 16:4:1
FAIRNESS_CEILING = 1.5        # criterion 10: goodput max/min at 80 ms
MATHIS_HEADROOM = 1.1         # criterion 6
WALL_CLOCK_LIMIT_S = 60.0

GROUPS = (
    FlowGroup("large", 20, 1500),
    FlowGroup("medium", 20, 750),
    FlowGroup("small", 20, 375),
)

SIM_MATRIX = (
    (RedVariant.RED_1, 15),
    (RedVariant.RED_2, 15),
    (RedVariant.RED_3, 15),
    (RedVariant.RED_3, 80),
    (RedVariant.RED_4, 15),
    (RedVariant.RED_4, 80),
    (RedVariant.RED_5, 15),
    (RedVariant.RED_5, 80),
)

# Criterion 11 reruns the criterion-7 cell in a child of its own.
RERUN_CELL = (RedVariant.RED_1, 15)

FULL_STREAM = SizeStream(sizes=(1500,), max_packet_size=1500)
HALF_STREAM = SizeStream(sizes=(750,), max_packet_size=1500)
ALTERNATING_STREAM = SizeStream(sizes=(1500, 750), max_packet_size=1500)

# The Monte Carlo laws of criteria 1-3: (variant, stream, trials).
MC_MATRIX = {
    "red1-full": (RedVariant.RED_1, FULL_STREAM, UNIFORM_TRIALS),
    "red4-half": (RedVariant.RED_4, HALF_STREAM, WEIGHTED_TRIALS),
    "red4-alternating": (RedVariant.RED_4, ALTERNATING_STREAM, WEIGHTED_TRIALS),
    "red5-half": (RedVariant.RED_5, HALF_STREAM, WEIGHTED_TRIALS),
}


def desk_scenario(variant: RedVariant, delay_ms: int) -> Scenario:
    return Scenario(
        name=f"acceptance-{variant.value}-{delay_ms}ms",
        red_variant=variant,
        tcp_variant=TcpVariant.RENO,
        red=RedParams(),
        groups=GROUPS,
        duration_s=60.0,
        warmup_s=10.0,
        seed=1,
        bottleneck_delay_s=delay_ms / 1e3,
    )


def timed_run(cell):
    """One desk-scale run and the wall time of that run alone."""
    variant, delay_ms = cell
    started = time.monotonic()
    report = run_scenario(desk_scenario(variant, delay_ms))
    return report, time.monotonic() - started


def sampled_law(cell):
    """One criterion's empirical gap law at p_b = 0.1."""
    variant, stream, trials = cell
    return montecarlo_interdrop(variant, 0.1, stream, trials=trials, seed=MC_SEED)


@pytest.fixture(scope="module")
def mc_laws():
    """The empirical gap laws of criteria 1-3, keyed by MC_MATRIX name.

    Each law is sampled in a forked child, one per CPU at a time.
    """
    laws = ordered_map(sampled_law, list(MC_MATRIX.values()),
                       jobs=os.cpu_count() or 1)
    return dict(zip(MC_MATRIX, laws))


@pytest.fixture(scope="module")
def simulations():
    """Every desk-scale run: the SIM_MATRIX cells, then RERUN_CELL again.

    They run in forked children, one per CPU at a time; each child times
    its own run, so criterion 12 still sees every run's wall time alone.
    """
    return ordered_map(timed_run, SIM_MATRIX + (RERUN_CELL,),
                       jobs=os.cpu_count() or 1)


@pytest.fixture(scope="module")
def runs(simulations):
    """The SIM_MATRIX runs, keyed by (variant, delay_ms)."""
    return dict(zip(SIM_MATRIX, simulations))


@pytest.fixture(scope="module")
def rerun(simulations):
    """Criterion 11's second run of RERUN_CELL, made in its own child."""
    report, _ = simulations[len(SIM_MATRIX)]
    return report


def record(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'} - {detail}")


def plrs(report):
    return tuple(group.plr for group in report.groups)


def goodputs(report):
    return tuple(group.goodput_bps for group in report.groups)


def within(value: float, target: float, tol: float) -> bool:
    return target * (1.0 - tol) <= value <= target * (1.0 + tol)


# ---------------------------------------------------------------
# analytic / oracle criteria
# ---------------------------------------------------------------

class TestOracleCriteria:
    def test_criterion_01_size_blind_interdrop_uniform(self, mc_laws):
        tv = tv_distance(mc_laws["red1-full"], interdrop_pmf_red1(0.1))
        ok = tv < TV_TOLERANCE
        record(1, ok, f"RED_1 p_b=0.1 {UNIFORM_TRIALS} trials TV={tv:.5f} "
                      f"(< {TV_TOLERANCE})")
        assert ok

    def test_criterion_02_byte_weighted_count_law(self, mc_laws):
        law = interdrop_pmf_weighted(0.1, HALF_STREAM, RedVariant.RED_4)
        tv_const = tv_distance(mc_laws["red4-half"], law)
        const_ok = (tv_const < TV_TOLERANCE
                    and law.support_max == 20
                    and all(law.probability(n) == pytest.approx(0.05)
                            for n in range(1, 21)))

        tv_alt = tv_distance(
            mc_laws["red4-alternating"],
            interdrop_pmf_weighted(0.1, ALTERNATING_STREAM, RedVariant.RED_4))
        alt_ok = tv_alt < TV_TOLERANCE

        ok = const_ok and alt_ok
        record(2, ok, f"RED_4 const-M/2 TV={tv_const:.5f}, "
                      f"alternating TV={tv_alt:.5f} (< {TV_TOLERANCE})")
        assert ok

    def test_criterion_03_size_squared_count_law(self, mc_laws):
        law = interdrop_pmf_weighted(0.1, HALF_STREAM, RedVariant.RED_5)
        tv = tv_distance(mc_laws["red5-half"], law)
        ok = (tv < TV_TOLERANCE
              and law.support_max == 40
              and all(law.probability(n) == pytest.approx(0.025)
                      for n in range(1, 41)))
        record(3, ok, f"RED_5 const-M/2 support=1..{law.support_max} "
                      f"TV={tv:.5f} (< {TV_TOLERANCE})")
        assert ok

    def test_criterion_04_full_size_reduction_identity(self):
        params = RedParams()
        rng = random.Random(MC_SEED)
        draws = [rng.random() for _ in range(IDENTITY_ARRIVALS)]

        def decision_sequence(variant):
            state = RedState()
            verdicts = []
            for step, u in enumerate(draws):
                verdicts.append(
                    on_packet_arrival(state, params, variant, 1500, u).verdict)
                # Deterministic half-rate service keeps the queue sweeping
                # through the below-band, random, and saturated regions.
                if step % 2 and state.q:
                    state.q -= 1
            return verdicts

        reference = decision_sequence(RedVariant.RED_1)
        mismatches = {
            variant.value: sum(
                a is not b for a, b in zip(reference, decision_sequence(variant)))
            for variant in (RedVariant.RED_2, RedVariant.RED_3,
                            RedVariant.RED_4, RedVariant.RED_5)
        }
        ok = all(count == 0 for count in mismatches.values())
        record(4, ok, f"L=M over {IDENTITY_ARRIVALS} arrivals, "
                      f"mismatches={mismatches}")
        assert ok

    def test_criterion_05_fairness_identity_exact_zero(self):
        rng = random.Random(MC_SEED)
        probs = [0.25, 0.125, 0.1, 0.01, 1e-6] + [
            rng.uniform(1e-9, 0.25) for _ in range(200)]
        gaps = [fairness_gap(1500, 4.0 * p, 750, p) for p in probs]
        ok = all(gap == 0.0 for gap in gaps)
        record(5, ok, f"fairness_gap(1500, 4p, 750, p) == 0 for "
                      f"{len(probs)} sampled p in (0, 0.25], max={max(gaps)}")
        assert ok

    def test_criterion_06_goodput_within_mathis_headroom(self):
        scenario = Scenario(
            name="mathis-sanity",
            red_variant=RedVariant.RED_1,
            tcp_variant=TcpVariant.RENO,
            red=RedParams(),
            groups=(FlowGroup("solo", 1, 1500),),
            duration_s=60.0,
            warmup_s=10.0,
            seed=1,
            bottleneck_delay_s=0.048,
            access_delay_s=0.001,
        )
        assert scenario.rtt_floor_s() == pytest.approx(0.1)
        report = run_scenario(
            scenario, judge=bernoulli_judge(0.01, scenario.red.buffer_cap))
        bound = mathis_goodput_bound(1460, 0.1, 0.01)
        ok = report.total_goodput_bps <= MATHIS_HEADROOM * bound
        record(6, ok, f"single-flow goodput {report.total_goodput_bps/1e6:.3f} "
                      f"Mbit/s <= {MATHIS_HEADROOM} x bound "
                      f"{bound/1e6:.3f} Mbit/s")
        assert ok


# ---------------------------------------------------------------
# simulation criteria
# ---------------------------------------------------------------

class TestSimulationCriteria:
    def test_criterion_07_size_blind_plr_and_goodput_split(self, runs):
        report, _ = runs[(RedVariant.RED_1, 15)]
        p = plrs(report)
        spread = max(p) / min(p) - 1.0
        plr_ok = spread <= PLR_EQUAL_TOL
        g = goodputs(report)
        ratio_ok = (within(g[0] / g[2], 4.0, GOODPUT_RATIO_TOL)
                    and within(g[1] / g[2], 2.0, GOODPUT_RATIO_TOL))
        ok = plr_ok and ratio_ok
        record(7, ok, f"RED_1 15ms PLR spread {spread:.3f} (<= {PLR_EQUAL_TOL}), "
                      f"goodput {g[0]/g[2]:.2f}:{g[1]/g[2]:.2f}:1 "
                      f"(4:2:1 +/-{GOODPUT_RATIO_TOL})")
        assert ok

    def test_criterion_08_linear_weight_plr_ratios(self, runs):
        red3, _ = runs[(RedVariant.RED_3, 15)]
        p3 = plrs(red3)
        red3_ok = (within(p3[0] / p3[2], 4.0, PLR_RATIO_TOL)
                   and within(p3[1] / p3[2], 2.0, PLR_RATIO_TOL))

        red2, _ = runs[(RedVariant.RED_2, 15)]
        p2 = plrs(red2)
        red2_ratio_ok = (within(p2[0] / p2[2], 4.0, PLR_RATIO_TOL)
                         and within(p2[1] / p2[2], 2.0, PLR_RATIO_TOL))
        g2 = goodputs(red2)
        red2_collapse_ok = p2[0] > RED2_LARGE_PLR_FLOOR and g2[0] == min(g2)

        ok = red3_ok and red2_ratio_ok and red2_collapse_ok
        record(8, ok,
               f"RED_3 {p3[0]/p3[2]:.2f}:{p3[1]/p3[2]:.2f}:1 "
               f"[4:2:1 +/-{PLR_RATIO_TOL}: {'ok' if red3_ok else 'MISS'}], "
               f"RED_2 {p2[0]/p2[2]:.2f}:{p2[1]/p2[2]:.2f}:1 "
               f"[{'ok' if red2_ratio_ok else 'MISS'}], "
               f"RED_2 large plr={p2[0]:.3f}>{RED2_LARGE_PLR_FLOOR} & lowest "
               f"goodput [{'ok' if red2_collapse_ok else 'MISS'}]")
        assert ok

    def test_criterion_09_byte_weighted_matches_linear(self, runs):
        details = []
        ok = True
        for delay in (15, 80):
            red4, _ = runs[(RedVariant.RED_4, delay)]
            red3, _ = runs[(RedVariant.RED_3, delay)]
            p4 = plrs(red4)
            ratio_ok = (within(p4[0] / p4[2], 4.0, PLR_RATIO_TOL)
                        and within(p4[1] / p4[2], 2.0, PLR_RATIO_TOL))
            gap = abs(red4.total_goodput_bps - red3.total_goodput_bps)
            goodput_ok = gap <= GOODPUT_MATCH_TOL * red3.total_goodput_bps
            ok = ok and ratio_ok and goodput_ok
            details.append(
                f"{delay}ms {p4[0]/p4[2]:.2f}:{p4[1]/p4[2]:.2f}:1 "
                f"[{'ok' if ratio_ok else 'MISS'}] "
                f"total {red4.total_goodput_bps/1e6:.1f} vs "
                f"{red3.total_goodput_bps/1e6:.1f} Mbit/s "
                f"[{'ok' if goodput_ok else 'MISS'}]")
        record(9, ok, "RED_4 " + "; ".join(details))
        assert ok

    def test_criterion_10_squared_weight_ratios_and_fairness(self, runs):
        details = []
        ok = True
        for delay in (15, 80):
            report, _ = runs[(RedVariant.RED_5, delay)]
            p = plrs(report)
            ratio_ok = (within(p[0] / p[2], 16.0, SQUARED_RATIO_TOL)
                        and within(p[1] / p[2], 4.0, SQUARED_RATIO_TOL))
            ok = ok and ratio_ok
            details.append(f"{delay}ms {p[0]/p[2]:.2f}:{p[1]/p[2]:.2f}:1 "
                           f"[16:4:1 +/-{SQUARED_RATIO_TOL}: "
                           f"{'ok' if ratio_ok else 'MISS'}]")
        report80, _ = runs[(RedVariant.RED_5, 80)]
        g = goodputs(report80)
        fairness = max(g) / min(g)
        fair_ok = fairness <= FAIRNESS_CEILING
        ok = ok and fair_ok
        details.append(f"80ms goodput max/min {fairness:.2f} "
                       f"(<= {FAIRNESS_CEILING}) [{'ok' if fair_ok else 'MISS'}]")
        record(10, ok, "RED_5 " + "; ".join(details))
        assert ok

    def test_criterion_11_byte_identical_csv_on_same_seed(self, runs, rerun):
        cached, _ = runs[RERUN_CELL]

        def csv_bytes(report):
            lines = [",".join(CSV_COLUMNS)] + report_rows(report)
            return ("\n".join(lines) + "\n").encode()

        first, second = csv_bytes(cached), csv_bytes(rerun)
        ok = first == second
        record(11, ok, f"criterion-7 scenario rerun: {len(first)} CSV bytes, "
                       f"identical={ok}")
        assert ok

    def test_criterion_12_conservation_and_desk_scale(self, runs):
        violations = []
        slowest = 0.0
        for (variant, delay), (report, wall) in runs.items():
            audit = report.bottleneck
            if audit.arrivals != audit.accepted + audit.drops_total:
                violations.append(f"{variant.value}@{delay}: arrival split")
            if not audit.conserved:
                violations.append(f"{variant.value}@{delay}: queue leak")
            if audit.max_q > RedParams().buffer_cap:
                violations.append(f"{variant.value}@{delay}: occupancy")
            slowest = max(slowest, wall)
        wall_ok = slowest < WALL_CLOCK_LIMIT_S
        ok = not violations and wall_ok
        record(12, ok, f"{len(runs)} runs: conservation exact, occupancy <= "
                       f"{RedParams().buffer_cap}, slowest {slowest:.1f}s "
                       f"(< {WALL_CLOCK_LIMIT_S:.0f}s)"
                       + (f"; violations={violations}" if violations else ""))
        assert ok
