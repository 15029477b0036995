"""Name-resolved hooks around the public calls into each redqsim module.

The benchmark never edits the package.  It wraps public functions and
methods at run time, in every loaded ``redqsim`` module that holds a
reference to them (``engine`` imports ``on_packet_arrival`` by name, so
patching ``red`` alone would miss the call site), and restores them
afterwards.  A target that no longer exists is reported as missing; the
metrics that depend on it become null and everything else still runs.

Each wrapped call is aggregated rather than stored as an individual
span: a call count, total (inclusive) nanoseconds and self nanoseconds,
which is the call's duration minus the time its wrapped children took.
The time a wrapper itself spends outside its own clock reads lands in
its caller's self time.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import sys
import time

_ns = time.perf_counter_ns

# (layer, hook key, module, attribute path).  The hook key names the
# metric prefix; the layer groups self time.
SPAN_TARGETS = (
    ("engine", "engine.build", "redqsim.engine", "DumbbellSim.__init__"),
    ("engine", "engine.run", "redqsim.engine", "DumbbellSim.run"),
    ("engine", "engine.run_scenario", "redqsim.engine", "run_scenario"),
    ("red", "red.on_packet_arrival", "redqsim.red", "on_packet_arrival"),
    ("red", "red.random_region_step", "redqsim.red", "random_region_step"),
    ("tcp", "tcp.start", "redqsim.tcp", "TcpSender.start"),
    ("tcp", "tcp.on_ack", "redqsim.tcp", "TcpSender.on_ack"),
    ("tcp", "tcp.on_timeout", "redqsim.tcp", "TcpSender.on_timeout"),
    ("tcp", "tcp.on_data", "redqsim.tcp", "TcpReceiver.on_data"),
    ("metrics", "metrics.build_run_report", "redqsim.metrics", "build_run_report"),
    ("cli", "cli.main", "redqsim.cli", "main"),
    ("cli", "cli.load_scenario", "redqsim.cli", "load_scenario"),
    ("cli", "cli.report_rows", "redqsim.cli", "report_rows"),
    ("droplaw", "droplaw.exact_pmf", "redqsim.droplaw", "interdrop_pmf_exact"),
    ("droplaw", "droplaw.montecarlo", "redqsim.droplaw", "montecarlo_interdrop"),
    ("droplaw", "droplaw.tv_distance", "redqsim.droplaw", "tv_distance"),
)

# Hooks whose individual call durations are kept (sweep cells).
KEEP_DURATIONS = ("engine.run_scenario",)

EVENT_TARGET = ("redqsim.engine", "EventQueue.schedule_at")


def warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def resolve(module_name: str, path: str):
    """Return (owner, attribute name, object) for a dotted path, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    target = getattr(owner, parts[-1], None)
    if target is None or not callable(target):
        return None
    return owner, parts[-1], target


def _aliases(owner, attr: str, original):
    """Every (object, attribute) that refers to a module-level function."""
    if inspect.isclass(owner):
        return [(owner, attr)]
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "redqsim" or name.startswith("redqsim.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                found.append((module, key))
    return found


class Tracer:
    """Installs span and event-count hooks; collects one pass at a time."""

    def __init__(self):
        self.missing: set[str] = set()
        self._targets = []
        for layer, key, module, path in SPAN_TARGETS:
            hit = resolve(module, path)
            if hit is None:
                warn(f"trace target {module}.{path} not found; {key} metrics are null")
                self.missing.add(key)
            else:
                self._targets.append((layer, key) + hit)
        self._event_target = self._resolve_event_target()
        self._patched: list[tuple[object, str, object]] = []
        self.layer_of = {key: layer for layer, key, *_ in self._targets}
        self.reset()

    def _resolve_event_target(self):
        hit = resolve(*EVENT_TARGET)
        if hit is not None:
            params = list(inspect.signature(hit[2]).parameters)
            if params[1:] == ["when", "kind", "fn"]:
                return hit
        warn("EventQueue.schedule_at(when, kind, fn) not found; "
             "per-kind event counts are null")
        self.missing.add("engine.events.kind")
        return None

    def reset(self) -> None:
        self.stats = {key: [0, 0, 0] for _layer, key, *_ in self._targets}
        self.durations = {key: [] for key in KEEP_DURATIONS}
        self.fired = collections.Counter()
        self.red_drops = {"red.on_packet_arrival": 0, "red.random_region_step": 0}
        self._stack = [0]       # child-time accumulators; [0] is the root

    # -------------------- install / remove --------------------

    def install(self) -> None:
        """Start a fresh pass and patch every resolved target."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.reset()
        for layer, key, owner, attr, original in self._targets:
            wrapper = self._span(key, original)
            for obj, name in _aliases(owner, attr, original):
                self._patched.append((obj, name, getattr(obj, name)))
                setattr(obj, name, wrapper)
        if self._event_target is not None:
            owner, attr, original = self._event_target
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._counting_schedule(original))

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._patched):
            setattr(obj, name, original)
        self._patched.clear()

    # -------------------- wrappers --------------------

    def _span(self, key: str, fn):
        stat = self.stats[key]
        stack = self._stack
        after = self._after_hooks().get(key)
        keep = key in KEEP_DURATIONS

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = _ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _ns() - t0
                child = stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child
                if keep:
                    self.durations[key].append(elapsed)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_hooks(self):
        drops = self.red_drops

        def after_arrival(_args, decision):
            if not getattr(decision, "accepted", True):
                drops["red.on_packet_arrival"] += 1

        def after_step(_args, outcome):
            if outcome[0]:
                drops["red.random_region_step"] += 1

        return {
            "red.on_packet_arrival": after_arrival,
            "red.random_region_step": after_step,
        }

    def _counting_schedule(self, original):
        fired = self.fired

        def schedule_at(queue, when, kind, fn):
            def counted():
                fired[kind] += 1
                fn()
            return original(queue, when, kind, counted)

        schedule_at.__wrapped__ = original
        return schedule_at

    # -------------------- per-pass summary --------------------

    def snapshot(self) -> dict:
        """Counts and times of the pass since the last reset()."""
        layers = collections.Counter()
        for key, (_calls, _total, self_ns) in self.stats.items():
            layers[self.layer_of[key]] += self_ns
        return {
            "stats": {key: tuple(v) for key, v in self.stats.items()},
            "durations": {key: list(v) for key, v in self.durations.items()},
            "self_ns": dict(layers),
            "fired": {kind.name.lower(): n for kind, n in self.fired.items()},
            "red_drops": dict(self.red_drops),
        }


class ReportCapture:
    """Collects (simulation, report) from every DumbbellSim.run in a block.

    Cheap enough for untraced passes: one wrapped call per simulated
    run.  Resolved on entry, so it wraps whatever is installed then.
    """

    _warned = False

    def __enter__(self) -> list:
        self.runs: list = []
        self._hit = resolve("redqsim.engine", "DumbbellSim.run")
        if self._hit is None:
            if not ReportCapture._warned:
                warn("DumbbellSim.run not found; run reports are not audited")
                ReportCapture._warned = True
            return self.runs
        owner, attr, original = self._hit
        runs = self.runs

        def run(sim, *args, **kwargs):
            report = original(sim, *args, **kwargs)
            runs.append((sim, report))
            return report

        setattr(owner, attr, run)
        return runs

    def __exit__(self, *exc) -> None:
        if self._hit is not None:
            owner, attr, original = self._hit
            setattr(owner, attr, original)
