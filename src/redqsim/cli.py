"""Command-line entry point: scenario files, experiment runs, sweeps, validators.

Scenario files are declarative plain text, versioned by a ``schema = 1`` field::

    schema = 1
    name = paper-defaults
    red_variant = RED_1
    tcp = reno
    w_q = 0.002
    min_th = 40
    max_th = 120
    max_p = 0.1
    buffer_cap = 200
    max_packet_size = 1500
    # optional keys (defaults shown):
    # duration_s = 60, warmup_s = 10, seed = 1,
    # bottleneck_rate_mbps = 30, access_rate_mbps = 100,
    # bottleneck_delay_ms = 15, access_delay_ms = 1

    [group large]
    flows = 20
    mtu = 1500

Blank lines and comments are ignored; a comment starts at a ``#`` at the
start of a line or after whitespace, so ``name = run#2`` keeps its ``#2``.
Unknown keys are rejected by name.  Every group section needs ``flows`` and
``mtu``.  ``name`` is written unquoted into every CSV row, so it may hold no
comma, double quote or line break.

CSV schema (fixed column order, 6 significant digits for real numbers)::

    scenario_name, red_variant, tcp_variant, bottleneck_delay_ms, group_mtu,
    goodput_mbps, plr, arrivals, drops_random, drops_forced_avg,
    drops_buffer, seed

One row per MTU group; the seed lands in every row so any row can be
reproduced in isolation.

Seed precedence: ``--seed`` flag > ``REDQSIM_SEED`` environment variable >
``seed`` key in the scenario file > 1.  A negative seed from any of them,
a sweep's base seed included, exits 2 naming ``seed`` before any run.

Sweep cells are ordered variant-major, then tcp, then delay; the cell at
index ``i`` runs with seed ``(base_seed * 1000003 + i) % 2**31`` so any cell
is reproducible from the base seed alone.  ``sweep --jobs N`` runs up to
``min(N, os.cpu_count(), cells)`` cells at once, each in its own child
made by ``os.fork``, which pipes its result back (see
``redqsim.parallel``); rows, diagnostics and the exit code are emitted in
cell order, so the output, exit code included, is byte-identical to
``--jobs 1``, the default, which runs every cell in this process.

Exit codes: 0 success; 1 validator threshold breach; 2 configuration error
(message names the offending field; an ``--out`` path that cannot be opened
for writing is one too, found before any run); 3 runtime diagnostic, printed to
stderr: a stalled run (the event queue drained before the configured
duration, or no packet reached the bottleneck), a group with no bottleneck
arrival in the measurement window (its ``plr`` field is empty), or a
bottleneck audit that is not conserved (the message names the broken
identity).  The CSV is written in full either way.  A sweep exits with the
worst code of its cells.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import os
import re
import sys

from .droplaw import (
    SizeStream,
    interdrop_pmf_exact,
    montecarlo_interdrop,
    tv_distance,
)
from .engine import ConfigError, FlowGroup, Scenario, run_scenario
from .metrics import RunReport
from .parallel import ordered_map
from .red import RedParams, RedVariant
from .tcp import TcpVariant

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

VALIDATE_TV_THRESHOLD = 0.02
MEANINGFUL_TRIALS = 100_000
# Monte Carlo work cap: trials x the exact law's mean gap, in gatekeeper
# steps.  The replay ran 20.0-22.0 M steps/s (RED_1, p_b 0.004 and 0.01)
# under Python 3.11 on a 2-core x86-64 host, so the cap is about 2.3-2.5 s
# there; the default 200,000 trials fit under it down to a mean gap of 250.
MAX_TRIAL_STEPS = 50_000_000
SWEEP_SEED_MULTIPLIER = 1_000_003
SWEEP_SEED_MODULUS = 2 ** 31

CSV_COLUMNS = (
    "scenario_name",
    "red_variant",
    "tcp_variant",
    "bottleneck_delay_ms",
    "group_mtu",
    "goodput_mbps",
    "plr",
    "arrivals",
    "drops_random",
    "drops_forced_avg",
    "drops_buffer",
    "seed",
)

_REQUIRED_KEYS = (
    "schema",
    "name",
    "red_variant",
    "tcp",
    "w_q",
    "min_th",
    "max_th",
    "max_p",
    "buffer_cap",
    "max_packet_size",
)

# File key -> (Scenario field, conversion from the file's text).  A key
# absent from the file leaves the field at Scenario's default.
_OPTIONAL_KEYS = {
    "duration_s": ("duration_s", float),
    "warmup_s": ("warmup_s", float),
    "seed": ("seed", int),
    "bottleneck_rate_mbps": ("bottleneck_rate_bps", lambda raw: float(raw) * 1e6),
    "access_rate_mbps": ("access_rate_bps", lambda raw: float(raw) * 1e6),
    "bottleneck_delay_ms": ("bottleneck_delay_s", lambda raw: float(raw) / 1e3),
    "access_delay_ms": ("access_delay_s", lambda raw: float(raw) / 1e3),
}

_GROUP_KEYS = ("flows", "mtu")

_COMMENT = re.compile(r"(?:^|\s)#")


# ---------------------------------------------------------------------------
# scenario file parsing
# ---------------------------------------------------------------------------

def _parse_red_variant(text: str) -> RedVariant:
    try:
        return RedVariant(text.strip().upper())
    except ValueError:
        raise ConfigError("red_variant", f"red_variant must be one of {[v.value for v in RedVariant]}, got {text!r}") from None


def _parse_tcp_variant(text: str) -> TcpVariant:
    try:
        return TcpVariant(text.strip().lower())
    except ValueError:
        raise ConfigError("tcp", f"tcp must be 'reno' or 'sack', got {text!r}") from None


def _number(raw: str, key: str, kind):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(key, f"{key} must be a number, got {raw!r}") from None


def parse_scenario_text(text: str, source: str = "<scenario>") -> Scenario:
    """Parse a key = value scenario description into a validated Scenario."""
    top: dict[str, str] = {}
    groups: list[tuple[str, dict[str, str]]] = []
    section: dict[str, str] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip() if "#" in raw else raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            header = line[1:-1].strip()
            parts = header.split(None, 1)
            if len(parts) != 2 or parts[0] != "group" or not parts[1].strip():
                raise ConfigError("group", f"{source}:{lineno}: section header must be [group NAME], got {line!r}")
            section = {}
            groups.append((parts[1].strip(), section))
            continue
        if "=" not in line:
            raise ConfigError("syntax", f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if section is None:
            if key not in _REQUIRED_KEYS and key not in _OPTIONAL_KEYS:
                raise ConfigError(key, f"{source}:{lineno}: unknown key {key!r}")
            if key in top:
                raise ConfigError(key, f"{source}:{lineno}: duplicate key {key!r}")
            top[key] = value
        else:
            if key not in _GROUP_KEYS:
                raise ConfigError(key, f"{source}:{lineno}: unknown group key {key!r}")
            if key in section:
                raise ConfigError(key, f"{source}:{lineno}: duplicate group key {key!r}")
            section[key] = value

    for key in _REQUIRED_KEYS:
        if key not in top:
            raise ConfigError(key, f"{source}: missing required key {key!r}")
    schema = _number(top["schema"], "schema", int)
    if schema != 1:
        raise ConfigError("schema", f"schema must be 1, got {schema}")
    if not groups:
        raise ConfigError("group", f"{source}: at least one [group NAME] section required")

    parsed_groups = []
    for name, body in groups:
        for key in _GROUP_KEYS:
            if key not in body:
                raise ConfigError(key, f"{source}: group {name!r} missing key {key!r}")
        parsed_groups.append(
            FlowGroup(
                name=name,
                flow_count=_number(body["flows"], "flows", int),
                mtu=_number(body["mtu"], "mtu", int),
            )
        )

    red = RedParams(
        w_q=_number(top["w_q"], "w_q", float),
        min_th=_number(top["min_th"], "min_th", float),
        max_th=_number(top["max_th"], "max_th", float),
        max_p=_number(top["max_p"], "max_p", float),
        buffer_cap=_number(top["buffer_cap"], "buffer_cap", int),
        max_packet_size=_number(top["max_packet_size"], "max_packet_size", int),
    )

    return Scenario(
        name=top["name"],
        red_variant=_parse_red_variant(top["red_variant"]),
        tcp_variant=_parse_tcp_variant(top["tcp"]),
        red=red,
        groups=tuple(parsed_groups),
        **{field: _number(top[key], key, convert)
           for key, (field, convert) in _OPTIONAL_KEYS.items() if key in top},
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError("scenario", f"cannot read scenario file {path!r}: {exc}") from None
    return parse_scenario_text(text, source=path)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def report_rows(report: RunReport) -> list[str]:
    rows = []
    for group in report.groups:
        cells = (
            report.scenario_name,
            report.red_variant,
            report.tcp_variant,
            report.bottleneck_delay_s * 1e3,
            group.mtu,
            group.goodput_bps / 1e6,
            group.plr,
            group.arrivals,
            group.drops_random,
            group.drops_forced_avg,
            group.drops_buffer,
            report.seed,
        )
        rows.append(",".join(_fmt(cell) for cell in cells))
    return rows


def _open_out(out_path: str | None, stdout: io.TextIOBase):
    """The CSV destination as a context manager: stdout, left open, or the
    --out file, opened (and truncated) now so that a path that cannot be
    written fails before any run."""
    if out_path is None:
        return contextlib.nullcontext(stdout)
    try:
        return open(out_path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError("out", f"cannot write {out_path!r}: {exc.strerror}") from None


def _write_csv(lines: list[str], out: io.TextIOBase) -> None:
    out.write("\n".join([",".join(CSV_COLUMNS)] + lines) + "\n")


def _resolve_seed(flag_seed: int | None, env: dict, file_seed: int) -> int:
    if flag_seed is not None:
        return flag_seed
    raw = env.get("REDQSIM_SEED")
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError("REDQSIM_SEED", f"REDQSIM_SEED must be an integer, got {raw!r}") from None
    return file_seed


def runtime_problems(report: RunReport) -> list[str]:
    """Why a run must exit 3: its diagnostics and broken identities."""
    problems = list(report.diagnostics)
    problems += [f"not conserved: {line}" for line in report.bottleneck.violations]
    return problems


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(scenario_path: str, out_path: str | None, seed_override: int | None,
            *, env: dict | None = None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    env = os.environ if env is None else env
    try:
        scenario = load_scenario(scenario_path)
        scenario = scenario.with_seed(_resolve_seed(seed_override, env, scenario.seed))
        out = _open_out(out_path, stdout)
    except ValueError as exc:
        stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    with out as handle:
        report = run_scenario(scenario)
        _write_csv(report_rows(report), handle)
    problems = runtime_problems(report)
    for line in problems:
        stderr.write(f"runtime diagnostic: scenario {scenario.name!r}: {line}\n")
    return EXIT_RUNTIME if problems else EXIT_OK


def sweep_cells(variants, tcps, delays_ms, base_seed):
    """Deterministic sweep order with per-cell derived seeds."""
    grid = itertools.product(variants, tcps, delays_ms)
    return [(variant, tcp, delay,
             (base_seed * SWEEP_SEED_MULTIPLIER + index) % SWEEP_SEED_MODULUS)
            for index, (variant, tcp, delay) in enumerate(grid)]


def sweep_cell(base: Scenario, cell) -> tuple[list[str], list[str], int]:
    """Run one sweep cell: its CSV rows, its stderr lines and its exit code."""
    variant, tcp, delay, seed = cell
    cell_name = f"{base.name}/{variant.value}-{tcp.value}-{delay:g}ms"
    try:
        scenario = base.with_cell(
            name=cell_name,
            red_variant=variant,
            tcp_variant=tcp,
            bottleneck_delay_s=delay / 1e3,
            seed=seed,
        )
    except ValueError as exc:
        return [], [f"cell {cell_name}: config error: {exc}\n"], EXIT_CONFIG
    report = run_scenario(scenario)
    problems = runtime_problems(report)
    messages = [f"cell {cell_name}: runtime diagnostic: {line}\n" for line in problems]
    return report_rows(report), messages, EXIT_RUNTIME if problems else EXIT_OK


def cmd_sweep(base_path: str, variants_arg: str, tcp_arg: str, delays_arg: str,
              out_path: str | None, seed_override: int | None, jobs: int = 1,
              *, env: dict | None = None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    env = os.environ if env is None else env
    try:
        base = load_scenario(base_path)
        base = base.with_seed(_resolve_seed(seed_override, env, base.seed))
        variants = [_parse_red_variant(v) for v in variants_arg.split(",") if v.strip()]
        tcps = [_parse_tcp_variant(t) for t in tcp_arg.split(",") if t.strip()]
        try:
            delays = [float(d) for d in delays_arg.split(",") if d.strip()]
        except ValueError:
            raise ConfigError("delays-ms", f"--delays-ms must be comma-separated numbers, got {delays_arg!r}") from None
        if not variants or not tcps or not delays:
            raise ConfigError("sweep", "sweep needs at least one variant, one tcp, and one delay")
        if jobs < 1:
            raise ConfigError("jobs", f"--jobs must be >= 1, got {jobs}")
        out = _open_out(out_path, stdout)
    except ValueError as exc:
        stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG

    cells = sweep_cells(variants, tcps, delays, base.seed)
    lines: list[str] = []
    worst = EXIT_OK
    with out as handle:
        for rows, messages, code in ordered_map(functools.partial(sweep_cell, base),
                                                cells, jobs):
            lines.extend(rows)
            stderr.writelines(messages)
            worst = max(worst, code)
        _write_csv(lines, handle)
    return worst


def cmd_validate(variant_arg: str, p_b: float, sizes_arg: str, max_size: int,
                 trials: int, seed: int, *, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        variant = _parse_red_variant(variant_arg)
        try:
            sizes = tuple(int(s) for s in sizes_arg.split(",") if s.strip())
        except ValueError:
            raise ConfigError("sizes", f"--sizes must be comma-separated byte counts, got {sizes_arg!r}") from None
        if not sizes:
            raise ConfigError("sizes", "--sizes must name at least one packet size")
        stream = SizeStream(sizes=sizes, max_packet_size=max_size)
        if not 0.0 < p_b <= 1.0:
            raise ConfigError("pb", f"--pb must be in (0, 1], got {p_b}")
        if trials <= 0:
            raise ConfigError("trials", f"--trials must be positive, got {trials}")
        try:
            exact = interdrop_pmf_exact(variant, p_b, stream)
        except (ValueError, RuntimeError) as exc:
            raise ConfigError("pb", f"--pb {p_b:g} is too small for an exact "
                              f"gap law over sizes {list(sizes)} ({exc})") from None
        mean_gap = exact.mean()
        if trials * mean_gap > MAX_TRIAL_STEPS:
            raise ConfigError(
                "trials", f"--trials {trials} at a mean gap of {mean_gap:.6g} "
                f"arrivals is about {trials * mean_gap:.3g} gatekeeper steps, over "
                f"the cap of {MAX_TRIAL_STEPS:.3g}; use fewer trials or a larger --pb")
    except ValueError as exc:
        stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG

    if trials < MEANINGFUL_TRIALS:
        stderr.write(
            f"warning: {trials} trials is below {MEANINGFUL_TRIALS}; the "
            f"{VALIDATE_TV_THRESHOLD} TV threshold is statistically meaningless\n"
        )

    sampled = montecarlo_interdrop(variant, p_b, stream, trials=trials, seed=seed)
    tv = tv_distance(exact, sampled)

    stdout.write(f"variant={variant.value} p_b={p_b:g} sizes={list(sizes)} "
                 f"max_size={max_size} trials={trials} seed={seed}\n")
    stdout.write("   n   closed-form   monte-carlo\n")
    support = sorted(set(exact.pmf) | set(sampled.pmf))
    shown = support if len(support) <= 60 else support[:60]
    for n in shown:
        stdout.write(f"{n:4d}   {exact.probability(n):11.6f}   {sampled.probability(n):11.6f}\n")
    if len(support) > len(shown):
        stdout.write(f"... ({len(support) - len(shown)} more support points)\n")
    verdict = "OK" if tv < VALIDATE_TV_THRESHOLD else "BREACH"
    stdout.write(f"TV distance = {tv:.6f} (threshold {VALIDATE_TV_THRESHOLD}) {verdict}\n")
    return EXIT_OK if tv < VALIDATE_TV_THRESHOLD else EXIT_THRESHOLD


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redqsim",
        description="RED variant simulator: dumbbell experiments and drop-law validators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file and emit CSV")
    p_run.add_argument("--scenario", required=True, help="scenario file path")
    p_run.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    p_sweep = sub.add_parser("sweep", help="run a variant x tcp x delay grid")
    p_sweep.add_argument("--base", required=True, help="base scenario file path")
    p_sweep.add_argument("--variants", required=True,
                         help="comma list, e.g. RED_1,RED_2,RED_3,RED_4,RED_5")
    p_sweep.add_argument("--tcp", required=True, help="comma list, e.g. reno,sack")
    p_sweep.add_argument("--delays-ms", required=True, help="comma list, e.g. 15,80")
    p_sweep.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the base seed")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="cells run at once in forked children, capped at "
                              "the CPU count (default 1: every cell in-process)")

    p_val = sub.add_parser("validate", help="closed-form vs Monte Carlo inter-drop check")
    p_val.add_argument("--variant", required=True, help="RED_1 .. RED_5")
    p_val.add_argument("--pb", type=float, required=True, help="frozen p_b in (0, 1]")
    p_val.add_argument("--sizes", required=True,
                       help="comma list of packet sizes in bytes, cycled")
    p_val.add_argument("--max-size", type=int, default=1500,
                       help="maximum packet size M (default 1500)")
    p_val.add_argument("--trials", type=int, default=200_000,
                       help="Monte Carlo trials (default 200000)")
    p_val.add_argument("--seed", type=int, default=1, help="Monte Carlo seed (default 1)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.scenario, args.out, args.seed)
    if args.command == "sweep":
        return cmd_sweep(args.base, args.variants, args.tcp, args.delays_ms,
                         args.out, args.seed, args.jobs)
    return cmd_validate(args.variant, args.pb, args.sizes, args.max_size,
                        args.trials, args.seed)


if __name__ == "__main__":
    sys.exit(main())
