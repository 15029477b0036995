"""Analytic inter-drop distributions and throughput bounds.

When the moving average of the queue is frozen, the gatekeeper's
temporary drop probability p_b is a constant and the number of arrivals
between consecutive random drops follows a closed-form law.  For the
size-blind policy the law is uniform: every gap length n with
n * p_b <= 1 has probability p_b, and the leftover mass sits on the
next integer.  For the size-weighted policies each gap length n carries
probability w_n * p_b, where w_n is the weight of the n-th packet after
a drop (L/M, or its square), until the cumulative weight exhausts the
budget 1/p_b.

These laws are computed here by direct arithmetic, independently of the
gatekeeper's count mechanics, so the two routes can be checked against
each other.  One sequence of per-position p_a values, stepped through
the real mechanics, feeds both an exact law of the mechanics and a
Monte Carlo harness that returns the empirical law.

Also provided: the classic square-root throughput ceiling for a
congestion-controlled flow (Mathis bound) and the matching fairness
gap, which is zero when loss probabilities scale with the square of the
segment size.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .config import ConfigError, Field, check_fields
from .red import RED_FIELDS, VARIANT_EXPONENTS, RedState, RedVariant, row_step

# Residual probability tolerated when a pmf is declared complete.
_MASS_TOL = 1e-12

MATHIS_DEFAULT_C = math.sqrt(1.5)


@dataclass(frozen=True)
class InterdropLaw:
    """Probability mass function over gap lengths n >= 1.

    A gap of n means the n-th arrival after the previous drop is the
    next packet dropped.  Total mass must be 1 within 1e-12.
    """

    pmf: dict[int, float]

    def __post_init__(self) -> None:
        if not self.pmf:
            raise ValueError("pmf must be non-empty")
        for n, p in self.pmf.items():
            if not isinstance(n, int) or n < 1:
                raise ValueError("support must be integers >= 1")
            if p < 0.0:
                raise ValueError("probabilities must be >= 0")
        if abs(sum(self.pmf.values()) - 1.0) > _MASS_TOL:
            raise ValueError("pmf mass must sum to 1")

    @property
    def support_max(self) -> int:
        return max(self.pmf)

    def probability(self, n: int) -> float:
        return self.pmf.get(n, 0.0)

    def mean(self) -> float:
        return sum(n * p for n, p in self.pmf.items())


@dataclass(frozen=True)
class SizeStream:
    """Packet lengths indexed from the most recent drop, cycling.

    sizes[i] is the length of the (i+1)-th arrival after a drop; the
    pattern repeats when exhausted.  Each field is checked by its
    SIZE_FIELDS row, and each length must be an integer in
    (0, max_packet_size].
    """

    sizes: tuple[int, ...]
    max_packet_size: int = 1500

    def __post_init__(self) -> None:
        check_fields(self, SIZE_FIELDS)
        top = self.max_packet_size
        for length in self.sizes:
            if type(length) is bool or not isinstance(length, int) or not 0 < length <= top:
                raise ConfigError("sizes", "each must be an integer in "
                                           f"(0, max_packet_size], got {length!r}")

    def length_at(self, index: int) -> int:
        return self.sizes[index % len(self.sizes)]

    def ratio_at(self, index: int) -> float:
        return self.length_at(index) / self.max_packet_size


# Key, type, conversion, rule and what it requires; max_packet_size is RedParams' row.
SIZE_FIELDS = (
    Field("sizes", tuple, None, bool, "must hold at least one length"),
    *(row for row in RED_FIELDS if row.key == "max_packet_size"),
)


def _validate_pb(p_b: float) -> None:
    if not 0.0 < p_b <= 1.0:
        raise ValueError("p_b must be in (0, 1]")


def _pmf_from_weights(p_b: float, weight_at) -> InterdropLaw:
    # Gap n carries mass w_n * p_b until the remaining mass is smaller,
    # which is exactly where the mechanics' clamp to p_a = 1 lands.
    pmf: dict[int, float] = {}
    cum = 0.0
    n = 1
    while True:
        mass = weight_at(n - 1) * p_b
        remaining = 1.0 - cum
        if mass >= remaining - _MASS_TOL:
            pmf[n] = remaining
            return InterdropLaw(pmf)
        pmf[n] = mass
        cum += mass
        n += 1


def interdrop_pmf_red1(p_b: float) -> InterdropLaw:
    """Gap law for the size-blind policy at frozen p_b.

    Uniform mass p_b on n = 1, 2, ... while the budget lasts, residual
    mass on the next integer when 1/p_b is not a whole number.
    """
    _validate_pb(p_b)
    return _pmf_from_weights(p_b, lambda _i: 1.0)


def interdrop_pmf_weighted(
    p_b: float, stream: SizeStream, variant: RedVariant
) -> InterdropLaw:
    """Gap law for the count-weighted policies at frozen p_b.

    Gap n carries mass w_n * p_b with w_n = L_n/M for RED_4 and
    (L_n/M)^2 for RED_5, until the cumulative weight reaches 1/p_b.
    Only those two variants accumulate size-dependent counter weight,
    so others are rejected.
    """
    _validate_pb(p_b)
    if variant is RedVariant.RED_4:
        return _pmf_from_weights(p_b, lambda i: stream.ratio_at(i))
    if variant is RedVariant.RED_5:
        return _pmf_from_weights(p_b, lambda i: stream.ratio_at(i) ** 2)
    raise ValueError("weighted gap law applies to RED_4 and RED_5 only")


def interdrop_pmf_exact(
    variant: RedVariant, p_b: float, stream: SizeStream
) -> InterdropLaw:
    """Gap law for any policy by direct probability enumeration.

    Walks gap lengths, tracking the survival probability and the
    counter trajectory, with the policy formulas written out from their
    definition.  Serves as a second analytic route that covers the
    variants without a simple product form (size-scaled numerators with
    whole-packet counters).
    """
    _validate_pb(p_b)
    pmf: dict[int, float] = {}
    survive = 1.0
    count = 0.0
    n = 0
    while survive > _MASS_TOL:
        s = stream.ratio_at(n)
        n += 1
        if n > 1_000_000:
            raise RuntimeError("gap law failed to terminate")
        if variant is RedVariant.RED_1:
            num, den, inc = p_b, 1.0 - count * p_b, 1.0
        elif variant is RedVariant.RED_2:
            num, den, inc = s * p_b, 1.0 - count * s * p_b, 1.0
        elif variant is RedVariant.RED_3:
            num, den, inc = s * p_b, 1.0 - count * p_b, 1.0
        elif variant is RedVariant.RED_4:
            num, den, inc = s * p_b, 1.0 - count * p_b, s
        else:  # RED_5
            num, den, inc = s * s * p_b, 1.0 - count * p_b, s * s
        p_a = 1.0 if den <= 0.0 else min(1.0, num / den)
        pmf[n] = survive * p_a
        survive *= 1.0 - p_a
        count += inc
    if survive > 0.0:
        pmf[n] += survive
    return InterdropLaw(pmf)


def _gap_pa_sequence(variant: RedVariant, p_b: float, stream: SizeStream):
    """Yield the p_a of the 1st, 2nd, ... arrival after a drop.

    At frozen p_b the p_a of the k-th arrival after a drop depends on k
    alone.  Each value comes from stepping one fresh RedState through
    red.row_step()'s accept branch (u = 1.0 never drops), which advances
    the count with the same float operations as a per-arrival replay, so
    it is the p_a the queue's random region would draw against.  Ends
    after the first 1.0, which no draw can pass.  The drop formulas are
    spelled only in red, so the laws built from this sequence check the
    mechanics, not a copy of them.
    """
    row = VARIANT_EXPONENTS[variant]
    period = len(stream.sizes)
    powers = [(1.0, s, s * s) for s in map(stream.ratio_at, range(period))]
    state = RedState()
    for k in itertools.count():
        _dropped, p_a = row_step(row, powers[k % period], p_b, state, 1.0)
        yield p_a
        if p_a == 1.0:
            return


def interdrop_pmf_mechanics(
    variant: RedVariant, p_b: float, stream: SizeStream
) -> InterdropLaw:
    """Exact gap law of the production mechanics at frozen p_b.

    Folds _gap_pa_sequence() into a pmf the way interdrop_pmf_exact folds
    its hand-written p_a: mass survive * p_a at each position until the
    survival is at most _MASS_TOL, with the residual on the last
    position.  No draw is taken, so a comparison with the oracle can ask
    for equality instead of a sampling tolerance.
    """
    _validate_pb(p_b)
    pmf: dict[int, float] = {}
    survive = 1.0
    for n, p_a in enumerate(_gap_pa_sequence(variant, p_b, stream), 1):
        pmf[n] = survive * p_a
        survive *= 1.0 - p_a
        if survive <= _MASS_TOL:
            break
    if survive > 0.0:
        pmf[n] += survive
    return InterdropLaw(pmf)


def montecarlo_interdrop(
    variant: RedVariant,
    p_b: float,
    stream: SizeStream,
    trials: int,
    seed: int,
) -> InterdropLaw:
    """Empirical gap law from the production gatekeeper mechanics.

    Freezes p_b (equivalent to pinning the moving average) and restarts
    the size pattern after every drop, to match the law's per-gap
    indexing.  Each arrival draws against the p_a of its gap position
    from _gap_pa_sequence(), tabled whole before the first draw: the
    sequence ends at its first 1.0, which no draw in [0, 1) passes, so no
    trial runs off the table.  Deterministic for a given seed: one uniform
    draw per arrival, dropping the arrival when the draw is below its p_a.
    """
    _validate_pb(p_b)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # table[k]: p_a of the (k+1)-th arrival; hits[k]: trials whose gap is k + 1.
    table = list(_gap_pa_sequence(variant, p_b, stream))
    hits = [0] * len(table)
    uniform = random.Random(seed).random
    for _ in range(trials):
        n = 0
        while table[n] <= uniform():
            n += 1
        hits[n] += 1
    return InterdropLaw({k + 1: c / trials for k, c in enumerate(hits) if c})


def tv_distance(law_a: InterdropLaw, law_b: InterdropLaw) -> float:
    """Total variation distance, half the absolute mass difference."""
    support = set(law_a.pmf) | set(law_b.pmf)
    return 0.5 * sum(
        abs(law_a.probability(n) - law_b.probability(n)) for n in support
    )


def mathis_goodput_bound(
    mss_bytes: int, rtt_s: float, loss_prob: float, c: float = MATHIS_DEFAULT_C
) -> float:
    """Square-root-law goodput ceiling in bits per second.

    A window-halving flow with segment size mss, round-trip time rtt
    and per-segment loss probability p cannot sustainably exceed
    mss * c / (rtt * sqrt(p)).  The default constant matches a flow
    losing one segment per halving cycle.
    """
    if mss_bytes < 1:
        raise ValueError("mss_bytes must be >= 1")
    if rtt_s <= 0.0:
        raise ValueError("rtt_s must be > 0")
    if not 0.0 < loss_prob <= 1.0:
        raise ValueError("loss_prob must be in (0, 1]")
    if c <= 0.0:
        raise ValueError("c must be > 0")
    return 8.0 * mss_bytes * c / (rtt_s * math.sqrt(loss_prob))


def fairness_gap(mss1: int, p1: float, mss2: int, p2: float) -> float:
    """Normalized distance from the equal-goodput operating point.

    Two flows sharing a path get equal square-root-law goodput exactly
    when mss^2 / p matches; the gap is the relative mismatch of those
    two quantities, 0 for perfect balance and approaching 1 for gross
    imbalance.
    """
    if mss1 < 1 or mss2 < 1:
        raise ValueError("segment sizes must be >= 1")
    if not 0.0 < p1 <= 1.0 or not 0.0 < p2 <= 1.0:
        raise ValueError("loss probabilities must be in (0, 1]")
    a = mss1 * mss1 / p1
    b = mss2 * mss2 / p2
    return abs(a - b) / max(a, b)
