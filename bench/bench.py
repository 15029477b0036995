#!/usr/bin/env python3
"""Layered benchmark for redqsim: end-to-end timings, per-layer trace, golden lock.

Run from the repository root:

    python3 bench/bench.py --workload desk-reno --seed 1 --seconds 40 --trace 0
    python3 bench/bench.py --workload desk-reno --seed 1 --seconds 40 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; both check every operation's output.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md for the
metric list and why each workload exists.

The package is imported from ``src/`` next to this directory and is
driven only through its public entry points; nothing in it is edited.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import ReportCapture, Tracer, warn

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
GOLDEN_SEEDS = range(16)

SETUP_REPS_PER_PASS = 8
REFERENCE_LOOP = 560_000
REFERENCE_REPS = 3
REFERENCE_NOMINAL_S = 0.04
TV_LIMIT = 0.02
MC_PB = 0.1
MC_SIZES = (1500, 750, 375)
MC_TRIALS = 100_000
MC_VARIANTS = ("RED_3", "RED_5")
SWEEP_VARIANTS = ("RED_1", "RED_3", "RED_4", "RED_5")

END_TO_END = {"setup_s": "s", "pkts_per_s": "1/s", "peak_rss_mb": "MB"}


class Op:
    """One checked operation: a run, a sweep cell or a validator call."""

    def __init__(self, label: str, digest: str | None, problems: list[str]):
        self.label = label
        self.digest = digest
        self.problems = problems


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def csv_arrivals(rows) -> int:
    """Sum of the CSV ``arrivals`` column: bottleneck arrivals after warmup,
    which is the whole run for the benchmark scenarios (warmup_s = 0)."""
    return sum(int(row.split(",")[7]) for row in rows)


def audit_problems(report) -> list[str]:
    problems = []
    if report.stalled:
        problems.append("run stalled")
    if not report.bottleneck.conserved:
        problems.append("bottleneck audit not conserved")
    if report.bottleneck.arrivals <= 0:
        problems.append("no bottleneck arrivals")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class DeskReno:
    """The 60-flow, three-MTU dumbbell: RED_4, Reno, 15 ms."""

    name = "desk-reno"
    ops_per_pass = 1

    def __init__(self, rq, seed: int, parallel: bool):
        self.rq = rq
        self.seed = seed
        self.path = str(BENCH_DIR / "scenarios" / "desk.scn")
        self.sim_seconds = rq.cli.load_scenario(self.path).duration_s

    def setup(self):
        scenario = self.rq.cli.load_scenario(self.path).with_seed(self.seed)
        return self.rq.engine.DumbbellSim(scenario)

    def run(self, sim):
        report = sim.run()
        return report, self.rq.cli.report_rows(report)

    def check(self, out, runs):
        report, rows = out
        problems = audit_problems(report)
        if len(rows) != len(report.groups) or not rows:
            problems.append(f"{len(rows)} CSV rows for {len(report.groups)} groups")
            return [Op(self.name, None, problems)], 0
        return [Op(self.name, sha256_lines(rows), problems)], csv_arrivals(rows)


class SweepSack:
    """``redqsim sweep`` over four variants x sack x 80 ms, through cli.main."""

    name = "sweep-sack"
    ops_per_pass = len(SWEEP_VARIANTS)

    def __init__(self, rq, seed: int, parallel: bool):
        self.rq = rq
        self.seed = seed
        self.path = str(BENCH_DIR / "scenarios" / "sweep.scn")
        self.argv = ["sweep", "--base", self.path,
                     "--variants", ",".join(SWEEP_VARIANTS), "--tcp", "sack",
                     "--delays-ms", "80", "--seed", str(seed)]
        if parallel and self._accepts_jobs():
            self.argv += ["--jobs", str(min(len(SWEEP_VARIANTS), os.cpu_count() or 1))]
        base = rq.cli.load_scenario(self.path)
        self.sim_seconds = len(SWEEP_VARIANTS) * base.duration_s
        self.cells = [f"{base.name}/{v}-sack-80ms" for v in SWEEP_VARIANTS]
        self.first_cell = dict(
            name=self.cells[0], red_variant=rq.red.RedVariant(SWEEP_VARIANTS[0]),
            tcp_variant=rq.tcp.TcpVariant("sack"), bottleneck_delay_s=0.08,
            seed=seed)

    def _accepts_jobs(self) -> bool:
        # A process-pool sweep (``--jobs N``) is used as soon as the CLI has it.
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                self.rq.cli.build_parser().parse_args(self.argv + ["--jobs", "2"])
        except SystemExit:
            return False
        return True

    def setup(self):
        # The sweep builds its cells inside cli.main; set-up time is the
        # same work for one cell: parse the base and build the simulator.
        base = self.rq.cli.load_scenario(self.path)
        return self.rq.engine.DumbbellSim(base.with_cell(**self.first_cell))

    def run(self, _sim):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.rq.cli.main(self.argv)
        return code, out.getvalue().splitlines()[1:], err.getvalue().strip()

    def check(self, out, runs):
        code, rows, err = out
        by_cell: dict[str, list[str]] = {}
        for row in rows:
            by_cell.setdefault(row.split(",", 1)[0], []).append(row)
        reports = {report.scenario_name: report for _sim, report in runs}
        ops = []
        for cell in self.cells:
            cell_rows = by_cell.pop(cell, [])
            problems = [] if code == 0 else [f"sweep exit code {code}: {err[-200:]}"]
            if len(cell_rows) != 3:
                problems.append(f"{len(cell_rows)} CSV rows, expected 3")
            if cell in reports:
                problems += audit_problems(reports[cell])
            ops.append(Op(cell, sha256_lines(cell_rows), problems))
        if by_cell:
            ops[0].problems.append(f"unexpected cells {sorted(by_cell)}")
        return ops, csv_arrivals(rows)


class DroplawMC:
    """Closed form plus Monte Carlo replay of the gatekeeper at frozen p_b."""

    name = "droplaw-mc"
    ops_per_pass = len(MC_VARIANTS)

    def __init__(self, rq, seed: int, parallel: bool):
        self.rq = rq
        self.seed = seed
        self.variants = [rq.red.RedVariant(v) for v in MC_VARIANTS]

    def setup(self):
        dl = self.rq.droplaw
        stream = dl.SizeStream(sizes=MC_SIZES, max_packet_size=1500)
        return stream, {v: dl.interdrop_pmf_exact(v, MC_PB, stream) for v in self.variants}

    def run(self, state):
        stream, exact = state
        dl = self.rq.droplaw
        out = []
        for variant in self.variants:
            sampled = dl.montecarlo_interdrop(variant, MC_PB, stream,
                                              trials=MC_TRIALS, seed=self.seed)
            out.append((variant.value, sampled, dl.tv_distance(exact[variant], sampled)))
        return out

    def check(self, out, runs):
        ops, pkts = [], 0
        for label, sampled, tv in out:
            items = sorted(sampled.pmf.items())
            problems = [] if tv < TV_LIMIT else [f"TV {tv:.6f} >= {TV_LIMIT}"]
            ops.append(Op(label, hashlib.sha256(json.dumps(items).encode()).hexdigest(),
                          problems))
            pkts += sum(n * round(p * MC_TRIALS) for n, p in items)
        return ops, pkts


WORKLOADS = {w.name: w for w in (DeskReno, SweepSack, DroplawMC)}


# ---------------------------------------------------------------------------
# layer microbenchmarks (traced mode only)
# ---------------------------------------------------------------------------

def _median_of(fn, repeats: int = 3):
    return statistics.median(fn() for _ in range(repeats))


def micro_eventq(rq, seed: int, n: int = 65_536, batch: int = 256):
    """ns per push plus pop through EventQueue with a no-op callback."""
    eng = rq.engine
    params = list(inspect.signature(eng.EventQueue.schedule_at).parameters)[1:]
    if params == ["when", "kind", "fn"]:
        extra = (eng.EventKind.TIMER,)
    elif params == ["when", "fn"]:
        extra = ()
    else:
        raise TypeError(f"EventQueue.schedule_at{tuple(params)} is not (when[, kind], fn)")
    rng = random.Random(seed)
    delays = [rng.random() * 1e-3 for _ in range(batch)]

    def once():
        eq = eng.EventQueue()
        noop = lambda: None  # noqa: E731
        t0 = time.perf_counter_ns()
        for _ in range(n // batch):
            now = eq.now
            for d in delays:
                eq.schedule_at(now + d, *extra, noop)
            eq.run(now + 1e-3)
        return (time.perf_counter_ns() - t0) / n

    return _median_of(once)


def micro_link_hop(rq, seed: int, n: int = 16_384, batch: int = 64):
    """ns for one Link.send through service and propagation to delivery."""
    eng = rq.engine
    seg = rq.tcp.Segment(0, seq=0, payload=1460)

    def once():
        eq = eng.EventQueue()
        delivered = [0]

        def deliver(_seg):
            delivered[0] += 1

        link = eng.Link(eq, 100e6, 0.001, deliver)
        t0 = time.perf_counter_ns()
        for _ in range(n // batch):
            for _ in range(batch):
                link.send(seg)
            eq.run(eq.now + 1.0)
        elapsed = time.perf_counter_ns() - t0
        if delivered[0] != n:
            raise RuntimeError(f"link delivered {delivered[0]} of {n}")
        return elapsed / n

    return _median_of(once)


def micro_red_decision(rq, seed: int, n: int = 100_000):
    """ns per on_packet_arrival on a fixed size, draw and queue stream."""
    red = rq.red
    rng = random.Random(seed)
    stream = [(MC_SIZES[i % 3], rng.random(), 60 + i % 41) for i in range(n)]
    params = red.RedParams()
    variant = red.RedVariant.RED_4

    def loop(decide):
        state = red.RedState(avg=80.0)
        t0 = time.perf_counter_ns()
        for size, u, q in stream:
            state.q = q
            decide(state, params, variant, size, u)
        return time.perf_counter_ns() - t0

    def nop(_state, _params, _variant, _size, _u):
        return None

    return _median_of(lambda: (loop(red.on_packet_arrival) - loop(nop)) / n)


MICROBENCHMARKS = {
    "engine.eventq.ns_per_event": micro_eventq,
    "engine.link_hop.ns": micro_link_hop,
    "red.decision.ns": micro_red_decision,
}


# ---------------------------------------------------------------------------
# per-layer metrics from traced passes
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "engine.events": "count", "engine.events_per_pkt": "ratio",
    "engine.events.arrival": "count", "engine.events.link_done": "count",
    "engine.events.timer": "count", "engine.events.flow_start": "count",
    "engine.timer_useful_ratio": "ratio", "engine.self_s": "s",
    "engine.ns_per_event": "ns",
    "red.on_packet_arrival.calls": "count", "red.on_packet_arrival.ns": "ns",
    "red.random_region_step.calls": "count", "red.random_region_step.ns": "ns",
    "red.self_s": "s", "red.drop_ratio": "ratio",
    "tcp.on_ack.calls": "count", "tcp.on_ack.ns": "ns",
    "tcp.on_data.calls": "count", "tcp.on_data.ns": "ns",
    "tcp.on_timeout.calls": "count", "tcp.retransmit_ratio": "ratio",
    "tcp.self_s": "s",
    "cli.load_scenario.s": "s", "cli.report_rows.s": "s",
    "cli.sweep.cell_s.p50": "s", "cli.sweep.cell_s.max": "s",
    "metrics.build_run_report.s": "s",
    "droplaw.exact_pmf.s": "s", "droplaw.montecarlo.s": "s", "droplaw.tv": "ratio",
    "engine.eventq.ns_per_event": "ns", "engine.link_hop.ns": "ns",
    "red.decision.ns": "ns",
    "trace_overhead_frac": "ratio",
}

# Hook keys the traced metrics starting with each prefix need, beyond the
# hook named by the metric itself; a missing hook makes the metric null.
NEEDS = (
    ("engine.events.", ("engine.events.kind",)),
    ("engine.timer_useful_ratio", ("engine.events.kind", "tcp.on_timeout")),
    ("engine.self_s", ("engine.run",)), ("engine.ns_per_event", ("engine.run",)),
    ("red.self_s", ("red.on_packet_arrival", "red.random_region_step")),
    ("red.drop_ratio", ("red.on_packet_arrival", "red.random_region_step")),
    ("tcp.self_s", ("tcp.on_ack", "tcp.on_data")),
    ("cli.sweep.cell_s.", ("engine.run_scenario",)),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _pass_counts(snap, runs, pkts_whole_run):
    stats, fired = snap["stats"], snap["fired"]

    def calls(key):
        return stats.get(key, (0, 0, 0))[0]

    events = sum(r.event_count for _s, r in runs)
    drops = snap["red_drops"]
    arrivals = calls("red.on_packet_arrival")
    senders = [f.sender for sim, _r in runs for f in getattr(sim, "flows", ())]
    out = {
        "engine.events": events,
        "engine.events_per_pkt": _ratio(events, pkts_whole_run),
        "engine.timer_useful_ratio": _ratio(calls("tcp.on_timeout"), fired.get("timer", 0)),
        "red.drop_ratio": (_ratio(drops["red.on_packet_arrival"], arrivals) if arrivals
                           else _ratio(drops["red.random_region_step"],
                                       calls("red.random_region_step"))),
        "tcp.retransmit_ratio": _ratio(sum(s.retransmits for s in senders),
                                       sum(s.segments_sent for s in senders)),
    }
    for kind in ("arrival", "link_done", "timer", "flow_start"):
        out[f"engine.events.{kind}"] = fired.get(kind, 0)
    for key in ("red.on_packet_arrival", "red.random_region_step", "tcp.on_ack",
                "tcp.on_data", "tcp.on_timeout"):
        out[f"{key}.calls"] = calls(key)
    return out


def _pass_times(snap, events):
    stats, self_ns = snap["stats"], snap["self_ns"]

    def per_call_ns(key):
        c, total, _self = stats.get(key, (0, 0, 0))
        return _ratio(total, c)

    cells = sorted(snap["durations"].get("engine.run_scenario", ())) or [0]
    return {
        "engine.self_s": self_ns.get("engine", 0) / 1e9,
        "engine.ns_per_event": _ratio(self_ns.get("engine", 0), events),
        "red.self_s": self_ns.get("red", 0) / 1e9,
        "tcp.self_s": self_ns.get("tcp", 0) / 1e9,
        "red.on_packet_arrival.ns": per_call_ns("red.on_packet_arrival"),
        "red.random_region_step.ns": per_call_ns("red.random_region_step"),
        "tcp.on_ack.ns": per_call_ns("tcp.on_ack"),
        "tcp.on_data.ns": per_call_ns("tcp.on_data"),
        "cli.load_scenario.s": per_call_ns("cli.load_scenario") / 1e9,
        "cli.report_rows.s": per_call_ns("cli.report_rows") / 1e9,
        "metrics.build_run_report.s": per_call_ns("metrics.build_run_report") / 1e9,
        "droplaw.exact_pmf.s": per_call_ns("droplaw.exact_pmf") / 1e9,
        "droplaw.montecarlo.s": per_call_ns("droplaw.montecarlo") / 1e9,
        "cli.sweep.cell_s.p50": statistics.median(cells) / 1e9,
        "cli.sweep.cell_s.max": cells[-1] / 1e9,
    }


def layer_metrics(traced, missing, micro, overhead):
    """Counts from the first traced pass, times as the median over all of them."""
    first = traced[0]
    counts = _pass_counts(first["snap"], first["runs"], first["whole_run_pkts"])
    for other in traced[1:]:
        again = _pass_counts(other["snap"], other["runs"], other["whole_run_pkts"])
        if again != counts:
            warn("traced counts differ between passes of the same input")
    samples = [_pass_times(p["snap"], counts["engine.events"]) for p in traced]
    values = dict(counts)
    for key in samples[0]:
        values[key] = statistics.median(s[key] for s in samples)
    values["droplaw.tv"] = max(first["tv"])
    values.update(micro)
    values["trace_overhead_frac"] = overhead
    for name in PER_LAYER_UNITS:
        hooks = [h for prefix, needs in NEEDS if name.startswith(prefix) for h in needs]
        if any(h in missing for h in hooks + [name.rsplit(".", 1)[0]]):
            values[name] = None
    return values


# ---------------------------------------------------------------------------
# measurement loop
# ---------------------------------------------------------------------------

def import_redqsim():
    """Import the package from this checkout's src/, or exit 1."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        from redqsim import cli, droplaw, engine, red, tcp
    except ImportError as exc:
        sys.exit(f"error: cannot import redqsim from {src}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: redqsim imported from {cli.__file__}, not {src}")
    return argparse.Namespace(cli=cli, droplaw=droplaw, engine=engine, red=red, tcp=tcp)


def load_pins(seed: int, workload: str) -> dict | None:
    if not GOLDEN_PATH.exists():
        return None
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle).get(str(seed), {}).get(workload)


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class _Cell:
    __slots__ = ("a", "b")


def reference_s() -> float:
    """Wall seconds of a fixed interpreter loop that runs no redqsim code.

    The host's speed drifts by tens of percent over minutes.  Timing this
    loop between the passes of a run measures that drift so it can be
    divided out of the gated metrics.  It allocates nothing the garbage
    collector tracks, so its time does not depend on the heap the
    workload left behind.
    """
    cell = _Cell()
    cell.a, cell.b = 0.0, 0.5
    t0 = time.perf_counter()
    for i in range(REFERENCE_LOOP):
        cell.a = cell.a * cell.b + (i & 7)
    return time.perf_counter() - t0


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def measure(workload, seconds: float, trace: bool, pins: dict | None):
    """Run passes for `seconds`; in trace mode alternate untraced and traced."""
    tracer = Tracer() if trace else None
    workload.setup()  # warm-up, untimed
    first_digest: dict[str, str | None] = {}
    passes, traced, refs = [], [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        tracing = trace and len(passes) % 2 == 1
        if not tracing:
            refs += [reference_s() for _ in range(REFERENCE_REPS)]
            # Set-up samples are spread over the run, not taken in one burst,
            # so they see the same machine as the passes.
            pass_setup = [timed(workload.setup)[1] for _ in range(SETUP_REPS_PER_PASS)]
        if tracing:
            tracer.install()
        try:
            with ReportCapture() as runs:
                state, dt_setup = timed(workload.setup)
                out, dt_run = timed(workload.run, state)
        except Exception:  # a crashing pass is a failed pass, not a lost run
            traceback.print_exc()
            attempted += workload.ops_per_pass
            failed += workload.ops_per_pass
            if time.perf_counter() - t_start > seconds:
                break
            continue
        finally:
            if tracing:
                tracer.uninstall()
        ops, pkts = workload.check(out, runs)
        if tracing:
            snap = tracer.snapshot()
            fired = sum(snap["fired"].values())
            events = sum(r.event_count for _s, r in runs)
            if "engine.events.kind" not in tracer.missing and fired != events:
                ops[0].problems.append(
                    f"{fired} events fired, RunReport.event_count says {events}")
            traced.append({
                "snap": snap, "runs": runs, "wall": dt_run,
                "whole_run_pkts": sum(r.bottleneck.arrivals for _s, r in runs),
                "tv": [tv for _l, _s, tv in out] if workload.name == "droplaw-mc" else [0.0],
            })
        else:
            passes.append({"wall": dt_run, "pkts": pkts, "setup": pass_setup + [dt_setup]})
        for op in ops:
            first = first_digest.setdefault(op.label, op.digest)
            if pins is not None and pins.get(op.label) != op.digest:
                op.problems.append("digest differs from the pinned golden digest")
            elif op.digest != first:
                op.problems.append("digest differs from this run's first pass")
            attempted += 1
            if op.problems:
                failed += 1
                warn(f"{workload.name} {op.label}: {'; '.join(op.problems)}")
        elapsed = time.perf_counter() - t_start
        done = len(passes) + len(traced)
        if elapsed + dt_run > seconds and done >= (2 if trace else 1):
            break
    if not passes or (trace and not traced):
        sys.exit(f"error: no {workload.name} pass completed")
    refs += [reference_s() for _ in range(REFERENCE_REPS)]
    return passes, traced, refs, tracer, attempted, failed


def run_benchmark(args) -> int:
    rq = import_redqsim()
    pins = load_pins(args.seed, args.workload)
    workload = WORKLOADS[args.workload](rq, args.seed, parallel=not args.trace)
    passes, traced, refs, tracer, attempted, failed = measure(
        workload, args.seconds, bool(args.trace), pins)

    run_s = statistics.median(p["wall"] for p in passes)
    # The gated times are scaled to a host that runs reference_s() in
    # REFERENCE_NOMINAL_S, by the median reference timed in this run.
    slowdown = statistics.median(refs) / REFERENCE_NOMINAL_S
    unscaled = {
        "setup_s": statistics.median(t for p in passes for t in p["setup"]),
        "pkts_per_s": statistics.median(p["pkts"] for p in passes) / run_s,
        "reference_s": refs,
    }
    setup_s = unscaled["setup_s"] / slowdown
    pkts_per_s = unscaled["pkts_per_s"] * slowdown
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "pass_s": [p["wall"] for p in passes],
        "traced_pass_s": [p["wall"] for p in traced],
        "pinned": pins is not None, "failed_frac": failed / attempted, "run_s": run_s,
        "unscaled": unscaled,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "commit": git_commit(),
        "argv": getattr(workload, "argv", None),
    }
    if isinstance(workload, DroplawMC):
        stamp["mc_trials_per_s"] = len(MC_VARIANTS) * MC_TRIALS / run_s
    else:
        stamp["sim_s_per_wall_s"] = workload.sim_seconds / run_s

    if args.trace:
        overhead = statistics.median(p["wall"] for p in traced) / run_s - 1.0
        stamp["trace_overhead_frac"] = overhead
        micro = {}
        for name, bench in MICROBENCHMARKS.items():
            try:
                micro[name] = bench(rq, args.seed)
            except (AttributeError, TypeError, ValueError, RuntimeError) as exc:
                warn(f"{name} is null: {exc}")
                micro[name] = None
        values = layer_metrics(traced, tracer.missing, micro, overhead)
        metrics = {k: (values[k], unit) for k, unit in PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": setup_s,
            "pkts_per_s": pkts_per_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}

    for name, (value, unit) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:32s} {shown:>14s} {unit}")
    print("stamp " + json.dumps(stamp))
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def write_golden(only: str | None) -> int:
    """Pin per-operation digests for GOLDEN_SEEDS from the code as it stands.

    With `only`, re-pin that workload and keep the other pins.
    """
    rq = import_redqsim()
    golden: dict[str, dict] = {}
    if only is not None:
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            golden = json.load(handle)
    for seed in GOLDEN_SEEDS:
        for name, cls in WORKLOADS.items():
            if only not in (None, name):
                continue
            workload = cls(rq, seed, parallel=False)
            with ReportCapture() as runs:
                out = workload.run(workload.setup())
            ops, _pkts = workload.check(out, runs)
            for op in ops:
                if op.problems:
                    sys.exit(f"error: cannot pin {name} {op.label} at seed {seed}: "
                             f"{'; '.join(op.problems)}")
            golden.setdefault(str(seed), {})[name] = {op.label: op.digest for op in ops}
            print(f"pinned seed {seed} {name}", file=sys.stderr)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="re-pin bench/golden.json, for --workload or all "
                             "(only for a deliberate CSV change)")
    args = parser.parse_args(argv)
    if args.write_golden:
        return write_golden(args.workload)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
