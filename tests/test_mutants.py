"""Mutant kill matrix: each planted fault must fail a named fast check.

A mutant is one function or method of the package with one piece of its
source replaced, compiled in its own module's namespace and installed by
one monkeypatch: on the class for a method, and in every loaded module
that holds the function for a module-level one (engine and the tests
import red.decide and friends by name, so patching red alone would miss
those call sites).

The check is an existing test called directly, or a Hypothesis property
called through its inner test at fixed examples, so each kill is
deterministic and no shrinking runs.  The check must pass on the package
before it fails on the mutant, with an AssertionError unless the row
names the error a fail-fast guard raises.  A mutant that no check kills
stays in the matrix as a strict expected failure, so a check that starts
to kill it shows up.
"""

import __future__
import inspect
import os
import re
import sys
import textwrap
from dataclasses import dataclass
from typing import Callable

import pytest

import test_droplaw
import test_engine
import test_parallel
import test_red
import test_sender_model
import test_tcp
from redqsim import droplaw, engine, metrics, parallel, red, tcp
from redqsim.red import RedParams, RedVariant
from redqsim.tcp import TcpVariant


@dataclass(frozen=True)
class Mutant:
    name: str
    owner: object
    attr: str
    old: str
    new: str
    check: Callable[[pytest.MonkeyPatch], None]
    survives: str = ""  # why no check kills it, for a surviving mutant
    raises: type[BaseException] = AssertionError  # what the check fails with
    also: tuple[tuple[str, str], ...] = ()  # further (old, new) in the same source

    def install(self, monkeypatch):
        original = inspect.getattr_static(self.owner, self.attr)
        source = textwrap.dedent(inspect.getsource(original))
        for old, new in ((self.old, self.new), *self.also):
            assert old in source, f"{self.name}: pattern {old!r} not in source"
            source = source.replace(old, new)
        module = sys.modules[original.__module__]
        code = compile(source,
                       f"<mutant: {self.name}>", "exec",
                       flags=__future__.annotations.compiler_flag, dont_inherit=True)
        namespace = {}
        exec(code, vars(module), namespace)
        mutant = namespace[original.__name__]
        if inspect.isclass(self.owner):
            monkeypatch.setattr(self.owner, self.attr, mutant)
            return
        for mod in list(sys.modules.values()):
            for key, value in list(getattr(mod, "__dict__", {}).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, mutant)


def endpoint_invariants(*examples):
    """The TCP endpoint invariant property at fixed (variant, window,
    loss, reorder, seed) examples."""
    inner = test_tcp.TestEndpointInvariants.test_invariants_hold_after_every_call
    inner = inner.hypothesis.inner_test

    def check(_monkeypatch):
        for variant, wnd, loss, reorder, seed in examples:
            inner(test_tcp.TestEndpointInvariants(), variant=variant,
                  wnd_segments=wnd, loss=loss, reorder=reorder, seed=seed)

    return check


def sender_model(*examples):
    """The batched sender against its reference model at fixed (variant,
    window, loss, reorder, seed) examples."""
    inner = test_sender_model.test_batched_sender_matches_the_reference_sender
    inner = inner.hypothesis.inner_test

    def check(_monkeypatch):
        for variant, wnd, loss, reorder, seed in examples:
            inner(variant=variant, wnd_segments=wnd, loss=loss, reorder=reorder,
                  seed=seed)

    return check


def on_two_cpus(check):
    """check, with two CPUs patched in so that the parallel map forks."""
    def run(monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        check(monkeypatch)

    return run


RENO, SACK = TcpVariant.RENO, TcpVariant.SACK
# Examples of the invariant property that kill a mutant below.
FLOOR_EXAMPLE = (RENO, 3, 0.1, 0.0, 1)
SCOREBOARD_EXAMPLE = (SACK, 4, 0.02, 0.0, 21)
REWIND_EXAMPLE = (RENO, 3, 0.1, 0.2, 0)
# Examples of the sender model property that kill a mutant below.
TIMING_EXAMPLE = (RENO, 16, 0.0, 0.0, 1)
RESEND_EXAMPLE = (SACK, 16, 0.1, 0.2, 1)

MUTANTS = [
    Mutant("row_step without the count reset", red, "row_step",
           "state.count = 0.0\n", "pass\n",
           lambda _mp: test_red.TestCountMechanics()
           .test_accept_advances_and_drop_resets(RedParams())),
    Mutant("size powers (1, s, s + s)", red, "decide",
           "(1.0, s, s * s)", "(1.0, s, s + s)",
           lambda _mp: test_red.TestFullSizeEquivalence()
           .test_identical_decisions_against_shared_draws(RedParams(), RedVariant.RED_5)),
    Mutant("packet size normalised by M + 1", red, "decide",
           "packet_len / params.max_packet_size",
           "packet_len / (params.max_packet_size + 1)",
           lambda _mp: test_red.TestFullSizeEquivalence()
           .test_identical_decisions_against_shared_draws(RedParams(), RedVariant.RED_5)),
    Mutant("Monte Carlo p_a table off by one position", droplaw, "_gap_pa_sequence",
           "powers[k % period]", "powers[(k + 1) % period]",
           lambda _mp: test_droplaw.TestMonteCarlo()
           .test_replay_bit_identical_to_checked_steps(RedVariant.RED_5, "three-mtu", 3)),
    Mutant("p_a denominator one ulp toward 0", red, "row_step",
           "den = 1.0 - state.count * powers[row[1]] * p_b\n",
           "den = math.nextafter(1.0 - state.count * powers[row[1]] * p_b, 0.0)\n",
           lambda _mp: test_droplaw.TestMechanicsLaw()
           .test_equals_enumeration_bit_for_bit(RedVariant.RED_3)),
    Mutant("buffer-full drop only above buffer_cap", red, "decide",
           "if q >= params.buffer_cap:", "if q > params.buffer_cap:",
           lambda _mp: test_red.TestOnPacketArrival()
           .test_full_buffer_drops_before_anything_else(RedParams())),
    Mutant("on_timeout without the snd_nxt rewind", tcp.TcpSender, "on_timeout",
           "self.snd_nxt = self.snd_una\n", "pass\n",
           lambda _mp: test_tcp.TestTimeout().test_collapse_and_frontier_rewind()),
    Mutant("third duplicate without the 2 * mss ssthresh floor", tcp.TcpSender,
           "_on_duplicate_ack", "max(self.cwnd / 2.0, 2.0 * mss)", "self.cwnd / 2.0",
           endpoint_invariants(FLOOR_EXAMPLE)),
    Mutant("scoreboard not clipped at a new ACK", tcp.TcpSender, "_on_new_ack",
           "(max(s, ack_no), e) for s, e in self.sack_scoreboard if e > ack_no",
           "(s, e) for s, e in self.sack_scoreboard",
           endpoint_invariants(SCOREBOARD_EXAMPLE)),
    Mutant("delivered_bytes assigned instead of added", tcp.TcpReceiver, "on_data",
           "self.delivered_bytes +=", "self.delivered_bytes =",
           lambda _mp: test_tcp.TestPipeRuns().test_lossless_run_drains_cleanly(RENO)),
    Mutant("stale timer entry fires before the deadline", engine.DumbbellSim,
           "_on_timer", "if flow.sender.rto_deadline == now:",
           "if flow.sender.rto_deadline is not None:",
           lambda mp: test_engine.TestBehavior()
           .test_timeouts_fire_at_the_deadline_and_none_is_skipped(mp)),
    Mutant("receive access serialization dropped", engine.Bottleneck,
           "_finish_service",
           "free += seg.wire_bytes * 8.0 / self.recv_rate_bps\n", "free += 0.0\n",
           lambda mp: test_engine.TestTopology()
           .test_lone_flow_first_ack_crosses_every_hop_once(mp)),
    Mutant("leaky admission, random drops untallied", engine.Bottleneck,
           "send", "self.drops_random[g] += 1\n", "pass\n",
           lambda _mp: test_engine.TestConservation()
           .test_bottleneck_audit_conserves_packets(RedVariant.RED_1)),
    Mutant("bottleneck departure untallied", engine.Bottleneck,
           "_finish_service", "self.departed += 1\n", "pass\n",
           lambda _mp: test_engine.TestConservation()
           .test_bottleneck_audit_conserves_packets(RedVariant.RED_1)),
    Mutant("window reads the end ledger without subtracting the warmup mark",
           metrics, "build_run_report",
           "(e - m for e, m in zip(end_row, mark_row))",
           "(e for e, m in zip(end_row, mark_row))",
           lambda mp: test_engine.TestBehavior()
           .test_group_tcp_health_sums_sender_counters_over_the_window(mp)),
    Mutant("bottleneck delay skipped on the way to the receive clock",
           engine.Bottleneck, "_finish_service",
           "arrive = now + self.prop_delay_s\n", "arrive = now\n",
           lambda mp: test_engine.TestTopology()
           .test_lone_flow_first_ack_crosses_every_hop_once(mp)),
    Mutant("far end connected when the simulator is built", engine.DumbbellSim,
           "__init__", "None, judge, self.rng",
           "self._data_reaches_receiver, judge, self.rng",
           lambda mp: test_engine.TestNoReferenceCycles()
           .test_dropped_simulator_is_freed_at_once(test_engine.unrun_sim, mp)),
    Mutant("events pending past the horizon kept", engine.DumbbellSim,
           "run", "self.eq.clear()\n", "pass\n",
           lambda mp: test_engine.TestNoReferenceCycles()
           .test_dropped_simulator_is_freed_at_once(test_engine.ran_sim, mp)),
    Mutant("ACK handler kept after the run", engine.DumbbellSim,
           "run", "self._deliver_ack = None\n", "pass\n",
           lambda mp: test_engine.TestNoReferenceCycles()
           .test_dropped_simulator_is_freed_at_once(test_engine.ran_sim, mp)),
    # The event loop's stop entry and derived count.
    Mutant("stop entry sorts before same-time events", engine.EventQueue,
           "run", "stop = (until, math.inf, None)", "stop = (until, -1, None)",
           lambda _mp: test_engine.TestEventQueue()
           .test_event_at_until_fires_even_when_scheduled_during_the_run()),
    Mutant("event count misses events scheduled during the run", engine.EventQueue,
           "run", "heappush(heap, stop)\n", "heappush(heap, stop); pending = len(heap) - 1\n",
           lambda _mp: test_engine.TestEventQueue().test_event_count_accumulates_over_runs(),
           also=(("self.event_count = self._seq - self._cleared - len(heap)",
                  "self.event_count += pending - len(heap)"),)),
    # The fast paths, each taken without its guard.
    Mutant("receiver fast path with data buffered", tcp.TcpReceiver, "on_data",
           "if not self._ooo and start <= self.rcv_nxt < end:",
           "if start <= self.rcv_nxt < end:",
           lambda _mp: test_tcp.TestReceiver().test_gap_then_cumulative_jump()),
    Mutant("scoreboard never rebuilt at a new ACK", tcp.TcpSender, "_on_new_ack",
           "if self.sack_scoreboard:", "if False:",
           endpoint_invariants(SCOREBOARD_EXAMPLE)),
    Mutant("new ACK without the snd_nxt jump", tcp.TcpSender, "_on_new_ack",
           "self.snd_nxt = ack_no\n", "pass\n",
           endpoint_invariants(REWIND_EXAMPLE)),
    Mutant("receive clock ignores a busy receive link", engine.Bottleneck,
           "_finish_service", "if arrive >= free:", "if True:",
           lambda _mp: test_engine.TestTopology()
           .test_receive_clock_queues_back_to_back_departures()),
    Mutant("batched window times a segment while another is timed", tcp.TcpSender,
           "_fill_window", "if not timed and seq >= max_sent:", "if seq >= max_sent:",
           sender_model(TIMING_EXAMPLE)),
    Mutant("batched window times a re-sent segment", tcp.TcpSender,
           "_fill_window", "if not timed and seq >= max_sent:", "if not timed:",
           sender_model(RESEND_EXAMPLE)),
    Mutant("receiver extends the highest block across a gap", tcp.TcpReceiver,
           "on_data", "if ooo and ooo[-1][1] == start < end:", "if ooo:",
           lambda _mp: test_tcp.TestReceiver().test_block_report_most_recent_first_max_three()),
    # Once spun _emit_recovery forever: the hole at recovery_point is
    # refilled with zero bytes, so the pipe never grows.
    Mutant("hole offered at recovery_point", tcp.TcpSender, "_next_hole",
           "if pos < min(self.recovery_point, high_sack):",
           "if pos <= min(self.recovery_point, high_sack):",
           lambda _mp: test_tcp.TestSackRecovery()
           .test_hole_retransmitted_once_and_exit_at_frontier(),
           raises=RuntimeError),
    Mutant("RTO ticks rounded without the float-error guard", tcp.TcpSender,
           "_rto_update", "math.ceil(raw / g - 1e-9)", "math.ceil(raw / g)",
           lambda _mp: test_tcp.TestRtoEstimator()
           .test_whole_tick_estimate_is_not_rounded_past_float_error()),
    Mutant("p_b denominator nudged by 1e-9", red, "compute_pb",
           "(params.max_th - params.min_th)", "(params.max_th - params.min_th + 1e-9)",
           lambda _mp: test_red.TestComputePb.test_matches_readme_formula_bit_for_bit
           .hypothesis.inner_test(test_red.TestComputePb(), min_th=40.0, width=80.0,
                                  max_p=0.1, frac=0.5)),
    # The fork protocol of the parallel map.
    Mutant("parent does not flush before forking", parallel, "start_child",
           "sys.stdout.flush()", "None",
           on_two_cpus(lambda mp: test_parallel.TestForkProtocol()
                       .test_output_is_written_once_through_a_piped_stdout(mp, None))),
    Mutant("the finally kills children without reaping them", parallel, "ordered_map",
           "os.kill(pid, signal.SIGKILL)\n            os.waitpid(pid, 0)\n",
           "os.kill(pid, signal.SIGKILL)\n",
           on_two_cpus(lambda _mp: test_parallel.TestForkProtocol()
                       .test_hung_children_are_killed_and_reaped_when_the_parent_raises(None))),
    Mutant("child never asks for SIGKILL on parent death", parallel, "_child",
           "prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)", "None",
           on_two_cpus(lambda _mp: test_parallel.TestForkProtocol()
                       .test_every_child_asks_for_sigkill_on_parent_death(None))),
]


# A survivor may fail only by pytest.raises' "DID NOT RAISE": a failing
# clean check, or a pattern install() cannot find, fails the test.
@pytest.mark.parametrize("mutant", [
    pytest.param(m, marks=pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                                            reason=m.survives))
    if m.survives else m
    for m in MUTANTS
], ids=[re.sub(r"\W+", "-", m.name) for m in MUTANTS])
def test_check_passes_on_the_package_and_kills_the_mutant(mutant, monkeypatch):
    with monkeypatch.context() as clean:
        mutant.check(clean)
    with monkeypatch.context() as patched:
        mutant.install(patched)
        with pytest.raises(mutant.raises):
            mutant.check(patched)
