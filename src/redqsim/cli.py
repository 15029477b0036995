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
Unknown keys are rejected by name.  At least one group section is required,
and each needs ``flows`` and ``mtu``.  ``name`` is written unquoted into
every CSV row, so it may hold no comma, double quote or line break.

CSV schema (fixed column order, 6 significant digits for real numbers)::

    scenario_name, red_variant, tcp_variant, bottleneck_delay_ms, group_mtu,
    goodput_mbps, plr, arrivals, drops_random, drops_forced_avg,
    drops_buffer, seed

One row per MTU group; the seed lands in every row so any row can be
reproduced in isolation.

Seed precedence: ``--seed`` flag > ``REDQSIM_SEED`` environment variable >
``seed`` key in the scenario file > 1.  A negative seed, from any of them
or from ``validate --seed``, exits 2 naming ``seed`` before any run.

Sweep cells are ordered variant-major, then tcp, then delay; the cell at
index ``i`` runs with seed ``(base_seed * 1000003 + i) % 2**31`` so any cell
is reproducible from the base seed alone.  Every cell is checked before
``--out`` is opened or any cell runs.  ``sweep --jobs N`` runs up to
``min(N, os.cpu_count(), cells)`` cells at once, each in its own child
made by ``os.fork``, which pipes its result back (see
``redqsim.parallel``); rows, diagnostics and the exit code are emitted in
cell order, so the output, exit code included, is byte-identical to
``--jobs 1``, the default, which runs every cell in this process.  ``run``
is the same path over one cell, its scenario, in this process.

Exit codes: 0 success; 1 validator threshold breach; 2 configuration error,
found before any run (message names the offending field; an ``--out`` path
that cannot be opened for writing is one too), or output that cannot be
written or closed (``out``); 3 runtime diagnostic, printed to stderr as
``runtime diagnostic: scenario 'NAME': ...`` (a sweep cell's NAME is
``BASE/VARIANT-TCP-DELAYms``): a stalled run (the event queue drained
before the configured duration, or no packet reached the bottleneck), a
group with no bottleneck arrival in the measurement window (its ``plr``
field is empty), or a bottleneck audit that is not conserved (the message
names the broken identity).  The CSV is written in full either way.  A
sweep exits with the worst code of its cells.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
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
from .config import ConfigError, Field, kind_text
from .engine import GROUP_FIELDS, SCENARIO_FIELDS, FlowGroup, Scenario, ms_to_s, run_scenario
from .metrics import RunReport
from .parallel import ordered_map
from .red import RED_FIELDS, RedParams

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

VALIDATE_TV_THRESHOLD = 0.02
MEANINGFUL_TRIALS = 100_000
# Monte Carlo work cap: trials x the exact law's mean gap, in gatekeeper
# steps.  Replaying 200,000 trials of RED_1 at p_b 0.004 and 0.01 over 1500
# bytes and of every variant at p_b 0.1 over 1500/750/375 ran 16-24 M steps/s
# (best of 3, Python 3.11, 2-core x86-64), so the cap is about 2-3 s there;
# the default 200,000 trials fit under it down to a mean gap of 250.
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

# A file gives schema, then the keys of SCENARIO_FIELDS and RED_FIELDS at
# the top, and those of GROUP_FIELDS in each [group NAME] section.
_SCHEMA = Field("schema", int, int)
_TOP_ROWS = {row.key: row for row in (_SCHEMA, *SCENARIO_FIELDS, *RED_FIELDS) if row.parse}
_GROUP_ROWS = {row.key: row for row in GROUP_FIELDS if row.parse}
_VARIANT, _TCP, _SEED = (next(row for row in SCENARIO_FIELDS if row.key == key)
                         for key in ("red_variant", "tcp", "seed"))

_COMMENT = re.compile(r"(?:^|\s)#")


# ---------------------------------------------------------------------------
# scenario file parsing
# ---------------------------------------------------------------------------

def _parse(row: Field, raw: str, where: str = ""):
    """raw converted by row's parse, or a ConfigError naming row's key;
    where ends the message's first clause, as in check_fields."""
    try:
        return row.parse(raw)
    except ValueError:
        raise ConfigError(row.key, f"must be {kind_text(row.kind)}{where}, got {raw!r}") from None


def _values(rows, given: dict[str, str], missing: str) -> dict:
    """Field name -> converted value for each of rows that given holds; a
    ConfigError, after `missing`, for a required key that it lacks."""
    for row in rows:
        if row.required and row.key not in given:
            raise ConfigError(row.key, f"{missing} {row.key!r}")
    return {row.name: _parse(row, given[row.key]) for row in rows if row.key in given}


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
        key, equals, value = line.partition("=")
        if not equals:
            raise ConfigError("syntax", f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, value = key.strip(), value.strip()
        rows, given, what = ((_TOP_ROWS, top, "key") if section is None
                             else (_GROUP_ROWS, section, "group key"))
        if key not in rows:
            raise ConfigError(key, f"{source}:{lineno}: unknown {what} {key!r}")
        if key in given:
            raise ConfigError(key, f"{source}:{lineno}: duplicate {what} {key!r}")
        given[key] = value

    values = _values(_TOP_ROWS.values(), top, f"{source}: missing required key")
    schema = values.pop("schema")
    if schema != 1:
        raise ConfigError("schema", f"must be 1, got {schema}")
    red = RedParams(**{row.name: values.pop(row.name) for row in RED_FIELDS})
    return Scenario(red=red, groups=tuple(
        FlowGroup(name, **_values(_GROUP_ROWS.values(), body,
                                  f"{source}: group {name!r} missing key"))
        for name, body in groups), **values)


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


def _write_all(handle, text: str) -> None:
    """Write all of text to handle, or raise OSError.  A text file over a
    descriptor takes the bytes through os.write, as its buffered writer
    drops the error that follows a partial write; a StringIO takes write."""
    fd = -1
    if isinstance(handle, io.TextIOWrapper):
        with contextlib.suppress(io.UnsupportedOperation):  # one over memory
            fd = handle.fileno()
    if fd < 0:
        handle.write(text)
    else:
        handle.flush()
        data = memoryview(text.encode(handle.encoding, handle.errors))
        while data:
            written = os.write(fd, data)
            if not written:
                raise OSError(errno.EIO, "no byte written")
            data = data[written:]
    handle.flush()  # or a full stdout would fail only at interpreter exit


def _write_out(lines: list[str], out, out_path: str | None, stdout, stderr) -> bool:
    """Write lines to out and close it (a buffered file may fail only there);
    False, after one stderr line naming out, if either fails."""
    try:
        with out as handle:
            _write_all(handle, "\n".join(lines) + "\n")
    except OSError as exc:
        if out_path is None and stdout is sys.__stdout__:  # else exit flushes it again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout.fileno())
            os.close(devnull)
        where = "stdout" if out_path is None else repr(out_path)
        stderr.write(f"config error: out: cannot write {where}: {exc.strerror}\n")
        return False
    return True


def _resolve_seed(flag_seed: int | None, env: dict, file_seed: int) -> int:
    if flag_seed is not None:
        return flag_seed
    raw = env.get("REDQSIM_SEED")
    return file_seed if raw is None else _parse(_SEED, raw, " in REDQSIM_SEED")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_cell(scenario: Scenario) -> tuple[list[str], list[str], int]:
    """Run one cell: its CSV rows, its stderr lines and its exit code, which
    is 3 for any diagnostic of its report or broken identity."""
    report = run_scenario(scenario)
    problems = list(report.diagnostics)
    problems += [f"not conserved: {line}" for line in report.bottleneck.violations]
    messages = [f"runtime diagnostic: scenario {scenario.name!r}: {line}\n" for line in problems]
    return report_rows(report), messages, EXIT_RUNTIME if problems else EXIT_OK


def _run_cells(path: str, seed_override: int | None, cells_of, out_path: str | None,
               jobs: int, env: dict | None, stdout, stderr) -> int:
    """The body of run and sweep.  Load the scenario at path, seed it, make
    its cells with cells_of and open --out, all before any cell runs; then
    run the cells (see ordered_map), print their runtime diagnostics, write
    the CSV and return the worst exit code."""
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    env = os.environ if env is None else env
    try:
        base = load_scenario(path)
        base = base.with_seed(_resolve_seed(seed_override, env, base.seed))
        cells = cells_of(base)
        out = _open_out(out_path, stdout)
    except ValueError as exc:
        stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG

    results = ordered_map(run_cell, cells, jobs)
    stderr.writelines(line for _, messages, _ in results for line in messages)
    lines = [",".join(CSV_COLUMNS)] + [row for rows, _, _ in results for row in rows]
    worst = max(code for _, _, code in results)
    return worst if _write_out(lines, out, out_path, stdout, stderr) else EXIT_CONFIG


def cmd_run(scenario_path: str, out_path: str | None, seed_override: int | None,
            *, env: dict | None = None, stdout=None, stderr=None) -> int:
    return _run_cells(scenario_path, seed_override, lambda scenario: [scenario],
                      out_path, 1, env, stdout, stderr)


def sweep_cells(base: Scenario, variants, tcps, delays_ms) -> list[Scenario]:
    """Every cell's Scenario, in sweep order; an invalid cell raises ConfigError."""
    grid = itertools.product(variants, tcps, delays_ms)
    return [base.with_cell(name=f"{base.name}/{variant.value}-{tcp.value}-{delay:g}ms",
                           red_variant=variant, tcp_variant=tcp, bottleneck_delay_s=ms_to_s(delay),
                           seed=(base.seed * SWEEP_SEED_MULTIPLIER + index) % SWEEP_SEED_MODULUS)
            for index, (variant, tcp, delay) in enumerate(grid)]


def cmd_sweep(base_path: str, variants_arg: str, tcp_arg: str, delays_arg: str,
              out_path: str | None, seed_override: int | None, jobs: int = 1,
              *, env: dict | None = None, stdout=None, stderr=None) -> int:
    def cells_of(base: Scenario) -> list[Scenario]:
        variants = [_parse(_VARIANT, v) for v in variants_arg.split(",") if v.strip()]
        tcps = [_parse(_TCP, t) for t in tcp_arg.split(",") if t.strip()]
        try:
            delays = [float(d) for d in delays_arg.split(",") if d.strip()]
        except ValueError:
            raise ConfigError("delays-ms", f"--delays-ms must be comma-separated numbers, got {delays_arg!r}") from None
        if not variants or not tcps or not delays:
            raise ConfigError("sweep", "sweep needs at least one variant, one tcp, and one delay")
        if jobs < 1:
            raise ConfigError("jobs", f"--jobs must be >= 1, got {jobs}")
        return sweep_cells(base, variants, tcps, delays)

    return _run_cells(base_path, seed_override, cells_of, out_path, jobs, env, stdout, stderr)


def cmd_validate(variant_arg: str, p_b: float, sizes_arg: str, max_size: int,
                 trials: int, seed: int, *, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        if not _SEED.rule(seed):
            raise ConfigError(_SEED.key, _SEED.says)
        variant = _parse(_VARIANT, variant_arg)
        try:
            sizes = tuple(int(s) for s in sizes_arg.split(",") if s.strip())
        except ValueError:
            raise ConfigError("sizes", f"--sizes must be comma-separated byte counts, got {sizes_arg!r}") from None
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

    support = sorted(set(exact.pmf) | set(sampled.pmf))
    lines = [f"variant={variant.value} p_b={p_b:g} sizes={list(sizes)} "
             f"max_size={max_size} trials={trials} seed={seed}",
             "   n   closed-form   monte-carlo"]
    lines += [f"{n:4d}   {exact.probability(n):11.6f}   {sampled.probability(n):11.6f}"
              for n in support[:60]]
    if len(support) > 60:
        lines.append(f"... ({len(support) - 60} more support points)")
    verdict = "OK" if tv < VALIDATE_TV_THRESHOLD else "BREACH"
    lines.append(f"TV distance = {tv:.6f} (threshold {VALIDATE_TV_THRESHOLD}) {verdict}")
    # A failed write exits 2 naming out, not 1 as a breach does.
    if not _write_out(lines, contextlib.nullcontext(stdout), None, stdout, stderr):
        return EXIT_CONFIG
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
