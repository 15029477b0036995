"""The benchmark under bench/ can still see every name it hooks or drives.

bench/tracing.py resolves its span targets by name, and a name it cannot
resolve turns that layer's traced metrics into null without failing the
run.  The layer microbenchmarks in bench/bench.py call engine, tcp and
red entry points directly.  Loading both files here makes a rename or a
signature change in the package fail Tier-1 instead.  A short traced
run checks that the hooks still see the work: every event passes the
counting wrapper on EventQueue.schedule_at, and the engine reaches the
sender and receiver through the hooked methods.
"""

import argparse
import importlib.util
import numbers
import pathlib
import sys

import pytest

from redqsim import cli, droplaw, engine, red, tcp
from redqsim.engine import FlowGroup, Scenario

BENCH_DIR = pathlib.Path(__file__).parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    # bench.py imports its sibling as the top-level module "tracing".
    tracing = _load("tracing")
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    return tracing, _load("bench")


def test_every_trace_target_resolves(bench, capsys):
    tracing, _ = bench
    tracer = tracing.Tracer()
    assert tracer.missing == set()
    assert capsys.readouterr().err == ""


def test_layer_microbenchmarks_run(bench):
    _, bench_mod = bench
    rq = argparse.Namespace(cli=cli, droplaw=droplaw, engine=engine, red=red, tcp=tcp)
    for value in (bench_mod.micro_eventq(rq, 1, n=512, batch=256),
                  bench_mod.micro_link_hop(rq, 1, n=128, batch=64),
                  bench_mod.micro_red_decision(rq, 1, n=1000)):
        assert isinstance(value, numbers.Real)


def test_traced_run_counts_every_event_and_reaches_tcp(bench):
    tracing, _ = bench
    scenario = Scenario(
        name="smoke", red_variant=red.RedVariant.RED_4,
        tcp_variant=tcp.TcpVariant.RENO, red=red.RedParams(),
        groups=(FlowGroup("large", 2, 1500), FlowGroup("medium", 2, 750),
                FlowGroup("small", 2, 375)),
        duration_s=2.0, warmup_s=0.5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = engine.DumbbellSim(scenario).run()
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    assert sum(snap["fired"].values()) == report.event_count
    for key in ("tcp.on_ack", "tcp.on_data", "tcp.start"):
        assert snap["stats"][key][0] > 0, key
