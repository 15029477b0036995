"""The benchmark under bench/ can still see every name it hooks or drives.

bench/tracing.py resolves its span targets by name, and a name it cannot
resolve turns that layer's traced metrics into null without failing the
run.  The layer microbenchmarks in bench/bench.py call engine, tcp and
red entry points directly.  Loading both files here makes a rename or a
signature change in the package fail Tier-1 instead.
"""

import argparse
import importlib.util
import numbers
import pathlib
import sys

import pytest

from redqsim import cli, droplaw, engine, red, tcp

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
