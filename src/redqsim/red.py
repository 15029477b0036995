"""Random early detection gatekeeper with five packet-size drop policies.

The gatekeeper sits in front of a bounded FIFO queue and decides, per
arriving packet, whether to accept it or drop it.  The decision is based
on an exponentially weighted moving average of the queue size and on a
counter of packets accepted since the last drop.  The five policy
variants differ only in how the packet length enters the drop
probability and in how the counter advances.  decide() is the unchecked
core for a caller that owns the queue length, and answers with a Verdict
alone; on_packet_arrival() is the checked entry point that keeps the
length in RedState.q.  row_step() is the random-region draw that
decide() makes, exposed for callers that freeze p_b, such as the Monte
Carlo drop-law harness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .config import ConfigError, Field, check_fields


class RedVariant(enum.Enum):
    """Drop-probability policy selector.

    RED_1 ignores packet size.  RED_2 scales the temporary probability
    by L/M before uniformization.  RED_3 scales only the numerator.
    RED_4 additionally advances the counter by L/M per accepted packet,
    and RED_5 uses the square of L/M in both places.
    """

    RED_1 = "RED_1"
    RED_2 = "RED_2"
    RED_3 = "RED_3"
    RED_4 = "RED_4"
    RED_5 = "RED_5"

    def __str__(self) -> str:
        return self.value


# Every variant is one row (a, b, c) of the same formula, with s = L/M:
#   p_a = s^a * p_b / (1 - count * s^b * p_b),  counter step s^c.
# The exponents index (1.0, s, s * s), so each product is formed by
# the same multiplications as a formula written out by hand and the
# floats stay bit-identical to it.
VARIANT_EXPONENTS = {
    RedVariant.RED_1: (0, 0, 0),
    RedVariant.RED_2: (1, 1, 0),
    RedVariant.RED_3: (1, 0, 0),
    RedVariant.RED_4: (1, 0, 1),
    RedVariant.RED_5: (2, 0, 2),
}


class Verdict(enum.Enum):
    ACCEPT = "accept"
    RANDOM_DROP = "random_drop"
    FORCED_DROP_AVG = "forced_drop_avg"
    FORCED_DROP_BUFFER = "forced_drop_buffer"


# Bound once, so no bottleneck arrival looks a member up through the Enum class.
ACCEPT, RANDOM_DROP, FORCED_DROP_AVG, FORCED_DROP_BUFFER = (
    Verdict.ACCEPT, Verdict.RANDOM_DROP, Verdict.FORCED_DROP_AVG,
    Verdict.FORCED_DROP_BUFFER)


@dataclass(frozen=True)
class RedParams:
    """Static gatekeeper configuration.

    Thresholds and the buffer capacity are counted in packets, not
    bytes.  max_packet_size is the reference length M that packet
    lengths are normalized against.  Each field is checked by its
    RED_FIELDS row.
    """

    w_q: float = 0.002
    min_th: float = 40.0
    max_th: float = 120.0
    max_p: float = 0.1
    buffer_cap: int = 200
    max_packet_size: int = 1500

    def __post_init__(self) -> None:
        check_fields(self, RED_FIELDS)
        if not self.min_th < self.max_th <= self.buffer_cap:
            raise ConfigError("max_th", "must satisfy min_th < max_th <= buffer_cap")


# Key, type, conversion from file text, rule and what it requires.
RED_FIELDS = (
    Field("w_q", float, float, lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"),
    Field("min_th", float, float, lambda v: v >= 0.0, "must be >= 0"),
    Field("max_th", float, float),
    Field("max_p", float, float, lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"),
    Field("buffer_cap", int, int, lambda v: v >= 1, "must be >= 1"),
    Field("max_packet_size", int, int, lambda v: v >= 1, "must be >= 1"),
)


@dataclass
class RedState:
    """Mutable gatekeeper state.

    count holds the accepted weight since the last drop: whole packets
    for RED_1/2/3, L/M per packet for RED_4 and (L/M)^2 for RED_5.  It
    resets to zero on every drop and whenever avg falls below min_th.
    """

    avg: float = 0.0
    q: int = 0
    count: float = 0.0


@dataclass(frozen=True)
class DropDecision:
    verdict: Verdict

    @property
    def accepted(self) -> bool:
        return self.verdict is ACCEPT


def compute_pb(params: RedParams, avg: float) -> float:
    """Temporary drop probability for an average inside the random region.

    Grows linearly from 0 at min_th to max_p at max_th.  Averages
    outside [min_th, max_th) are handled by the caller through accept
    or forced-drop branches, so they are rejected here.
    """
    if not params.min_th <= avg < params.max_th:
        raise ValueError("avg outside the random-drop region")
    return params.max_p * (avg - params.min_th) / (params.max_th - params.min_th)


def row_step(row: tuple[int, int, int], powers: tuple, p_b: float,
             state: RedState, u: float) -> tuple[bool, float]:
    """Unchecked random-region decision with count bookkeeping.

    row is the variant's VARIANT_EXPONENTS entry and powers is
    (1.0, s, s * s) for s = L/M, built by the caller from an integer L in
    (0, M].  Computes p_a = s^a * p_b / (1 - count * s^b * p_b), capped
    at 1, draws u against it, then resets the counter (drop) or
    advances it by powers[row[2]] (accept).  This is the step decide()
    takes inside the random region.  Since p_a <= 1, u = 1.0 never drops:
    the Monte Carlo drop-law harness steps with it to table p_a per gap
    position at frozen p_b.  Returns (dropped, p_a).
    """
    den = 1.0 - state.count * powers[row[1]] * p_b
    if den <= 0.0:
        # The uniformization window is exhausted: a certain drop.
        p_a = 1.0
    else:
        p_a = powers[row[0]] * p_b / den
        if p_a > 1.0:
            p_a = 1.0
    if u < p_a:
        state.count = 0.0
        return True, p_a
    state.count += powers[row[2]]
    return False, p_a


def random_region_step(variant: RedVariant, params: RedParams, p_b: float,
                       state: RedState, packet_len: int,
                       u: float) -> tuple[bool, float]:
    """Checked row_step() for one packet length.

    Looks up the variant's row, validates packet_len against
    max_packet_size and builds the size powers on every call.  Nothing in
    the package calls it; it is kept only because the benchmark's tracing
    hooks it by name.  Returns (dropped, p_a).
    """
    if not 0 < packet_len <= params.max_packet_size:
        raise ValueError("packet_len must be in (0, max_packet_size]")
    s = packet_len / params.max_packet_size
    return row_step(VARIANT_EXPONENTS[variant], (1.0, s, s * s), p_b, state, u)


def decide(state: RedState, params: RedParams, row: tuple[int, int, int],
           q: int, packet_len: int, u: float) -> Verdict:
    """Unchecked admission verdict for a packet that finds q queued.

    row is the variant's VARIANT_EXPONENTS entry; the caller guarantees
    0 < packet_len <= max_packet_size and 0 <= u < 1.  Order: fold q
    into the average, reject on a full buffer, accept below min_th,
    force-drop at or above max_th, otherwise draw against p_a.  The
    average moves toward q by the weight w_q, so it lands between the old
    average and q; no idle-time correction is applied.  Updates avg and
    count, never q.  Bound to a state, params and row, it is a bottleneck
    judge: (q, packet_len, u) -> Verdict.
    """
    avg = state.avg = (1.0 - params.w_q) * state.avg + params.w_q * q
    if q >= params.buffer_cap:
        verdict = FORCED_DROP_BUFFER
    elif avg < params.min_th:
        verdict = ACCEPT
    elif avg >= params.max_th:
        verdict = FORCED_DROP_AVG
    else:
        s = packet_len / params.max_packet_size
        if row_step(row, (1.0, s, s * s), compute_pb(params, avg), state, u)[0]:
            return RANDOM_DROP
        return ACCEPT
    state.count = 0.0
    return verdict


def on_packet_arrival(state: RedState, params: RedParams, variant: RedVariant,
                      packet_len: int, u: float) -> DropDecision:
    """Checked decide() for one arriving packet, with state.q as q.

    Validates packet_len and u, and counts an accepted packet into
    state.q; the caller decrements q when the packet leaves the queue.
    """
    if not 0 < packet_len <= params.max_packet_size:
        raise ValueError("packet_len must be in (0, max_packet_size]")
    if not 0.0 <= u < 1.0:
        raise ValueError("u must be in [0, 1)")
    verdict = decide(state, params, VARIANT_EXPONENTS[variant], state.q,
                     packet_len, u)
    if verdict is ACCEPT:
        state.q += 1
    return DropDecision(verdict)
