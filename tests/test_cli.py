"""Tests for the command-line interface: parsing, CSV emission, exit codes."""

import dataclasses
import io
import os
import pathlib
import re

import pytest

from redqsim import cli, parallel
from redqsim.engine import ConfigError
from redqsim.red import RedVariant
from redqsim.tcp import TcpVariant

SCENARIO_TEXT = """\
schema = 1
name = cli-test
red_variant = RED_1
tcp = reno
w_q = 0.002
min_th = 40
max_th = 120
max_p = 0.1
buffer_cap = 200
max_packet_size = 1500
duration_s = 4
warmup_s = 1
seed = 5

[group large]
flows = 2
mtu = 1500

[group medium]
flows = 2
mtu = 750

[group small]
flows = 2
mtu = 375
"""


DEFAULTS_SCN = pathlib.Path(__file__).parents[1] / "scenarios" / "defaults.scn"


@pytest.fixture
def starved_file(tmp_path):
    """The shipped defaults cut to 2 s, with access links too slow for a
    single packet to reach the bottleneck."""
    text = DEFAULTS_SCN.read_text()
    text = text.replace("duration_s = 60", "duration_s = 2")
    text = text.replace("warmup_s = 10", "warmup_s = 1")
    text = text.replace("bottleneck_delay_ms = 15",
                        "bottleneck_delay_ms = 15\naccess_rate_mbps = 1e-9")
    path = tmp_path / "starved.scn"
    path.write_text(text)
    return str(path)


@pytest.fixture
def silent_window_file(tmp_path):
    """Two groups whose packets reach the bottleneck only before warmup:
    a 1 s run, warmup at 0.9999 s and a 300 ms bottleneck delay."""
    text = SCENARIO_TEXT.replace("duration_s = 4\nwarmup_s = 1\n",
                                 "duration_s = 1\nwarmup_s = 0.9999\n"
                                 "bottleneck_delay_ms = 300\n")
    text = text.replace("[group medium]\nflows = 2\nmtu = 750\n\n", "")
    path = tmp_path / "window.scn"
    path.write_text(text)
    return str(path)


SILENT_WINDOW_DIAGNOSTICS = [
    f"group {name!r}: no bottleneck arrivals in the measurement window, "
    "loss ratio omitted" for name in ("large", "small")]


# Each breaks one conservation identity of a real report by one packet.
leaks = pytest.mark.parametrize("field, delta, message", [
    ("arrivals", 1, "not conserved: arrivals "),
    ("departed", -1, "not conserved: accepted "),
], ids=["arrival-identity", "departure-identity"])


def leak_audits(monkeypatch, field, delta):
    """Make cli.run_scenario return real reports with one audit count off."""
    real = cli.run_scenario

    def leaky(scenario):
        report = real(scenario)
        audit = dataclasses.replace(
            report.bottleneck, **{field: getattr(report.bottleneck, field) + delta})
        return dataclasses.replace(report, bottleneck=audit)

    monkeypatch.setattr(cli, "run_scenario", leaky)


def _no_fork(*_args, **_kwargs):
    raise AssertionError("a child was forked")


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "base.scn"
    path.write_text(SCENARIO_TEXT)
    return str(path)


def run_cli(args_or_fn, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    rc = args_or_fn(stdout=out, stderr=err, **kwargs)
    return rc, out.getvalue(), err.getvalue()


def sweep_two_cells(path, jobs, monkeypatch, delay_ms="15"):
    """Sweep RED_1 and RED_3 x Reno x delay_ms at `jobs`, with two CPUs, so
    jobs=2 forks a child per cell; return (rc, stdout, stderr)."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert parallel.effective_jobs(jobs, 2) == jobs
    return run_cli(lambda **k: cli.cmd_sweep(path, "RED_1,RED_3", "reno", delay_ms,
                                              None, None, jobs, env={}, **k))


# ---------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------

class TestScenarioParsing:
    def test_full_file_parses_to_scenario(self):
        sc = cli.parse_scenario_text(SCENARIO_TEXT)
        assert sc.name == "cli-test"
        assert sc.red_variant is RedVariant.RED_1
        assert sc.tcp_variant is TcpVariant.RENO
        assert sc.seed == 5
        assert [g.mtu for g in sc.groups] == [1500, 750, 375]
        assert sc.bottleneck_rate_bps == pytest.approx(30e6)
        assert sc.bottleneck_delay_s == pytest.approx(0.015)

    @pytest.mark.parametrize("key", ["schema", "name", "red_variant", "tcp",
                                     "w_q", "min_th", "max_th", "max_p",
                                     "buffer_cap", "max_packet_size"])
    def test_missing_required_key_names_it(self, key):
        text = re.sub(rf"(?m)^{key} = .*\n", "", SCENARIO_TEXT)
        with pytest.raises(ConfigError) as err:
            cli.parse_scenario_text(text)
        assert err.value.field == key

    def test_unknown_top_level_key_rejected_by_name(self):
        text = SCENARIO_TEXT.replace("seed = 5", "seed = 5\nwombat = 3")
        with pytest.raises(ConfigError) as err:
            cli.parse_scenario_text(text)
        assert err.value.field == "wombat"

    def test_unknown_group_key_rejected_by_name(self):
        text = SCENARIO_TEXT + "color = blue\n"
        with pytest.raises(ConfigError) as err:
            cli.parse_scenario_text(text)
        assert err.value.field == "color"

    def test_group_missing_mtu_rejected(self):
        text = SCENARIO_TEXT.replace("flows = 2\nmtu = 375\n", "flows = 2\n")
        with pytest.raises(ConfigError) as err:
            cli.parse_scenario_text(text)
        assert err.value.field == "mtu"

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError) as err:
            cli.parse_scenario_text(SCENARIO_TEXT.replace("schema = 1", "schema = 2"))
        assert err.value.field == "schema"

    def test_bad_variant_named(self):
        with pytest.raises(ConfigError) as err:
            cli.parse_scenario_text(SCENARIO_TEXT.replace("RED_1", "RED_9"))
        assert err.value.field == "red_variant"

    def test_comments_and_blank_lines_ignored(self):
        # A "#" starts a comment only at the start of a line or after
        # whitespace, so one inside a value is part of it.
        text = "# leading comment\n\n" + SCENARIO_TEXT.replace(
            "min_th = 40", "min_th = 40   # packets").replace(
            "name = cli-test", "name = run#2")
        sc = cli.parse_scenario_text(text)
        assert sc.red.min_th == 40.0
        assert sc.name == "run#2"

    @pytest.mark.parametrize("old, new, field", [
        ("w_q = 0.002", "w_q = tiny", "w_q"),
        ("seed = 5", "seed = 5\naccess_rate_mbps = fast", "access_rate_mbps"),
        ("seed = 5", "seed = 5\nbottleneck_delay_ms = soon", "bottleneck_delay_ms"),
    ], ids=["w_q", "access_rate_mbps", "bottleneck_delay_ms"])
    def test_non_numeric_value_rejected(self, old, new, field):
        with pytest.raises(ConfigError) as err:
            cli.parse_scenario_text(SCENARIO_TEXT.replace(old, new))
        assert err.value.field == field
        assert field in str(err.value)

    def test_omitted_optional_keys_take_scenario_defaults(self):
        # Scenario owns the defaults; written out in file units they must
        # parse to the same scenario as leaving every optional key out.
        omitted = re.sub(r"(?m)^(duration_s|warmup_s|seed) = .*\n", "", SCENARIO_TEXT)
        explicit = omitted.replace("max_packet_size = 1500", "\n".join([
            "max_packet_size = 1500", "duration_s = 60", "warmup_s = 10",
            "seed = 1", "bottleneck_rate_mbps = 30", "access_rate_mbps = 100",
            "bottleneck_delay_ms = 15", "access_delay_ms = 1"]))
        assert cli.parse_scenario_text(omitted) == cli.parse_scenario_text(explicit)


# ---------------------------------------------------------------
# run command
# ---------------------------------------------------------------

class TestRunCommand:
    def test_one_row_per_group_with_header(self, scenario_file):
        rc, out, err = run_cli(
            lambda **k: cli.cmd_run(scenario_file, None, None, env={}, **k))
        assert rc == cli.EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(cli.CSV_COLUMNS)
        assert len(lines) == 4
        assert all(line.split(",")[0] == "cli-test" for line in lines[1:])

    def test_rows_carry_seed_and_delay(self, scenario_file):
        rc, out, _ = run_cli(
            lambda **k: cli.cmd_run(scenario_file, None, None, env={}, **k))
        row = out.strip().splitlines()[1].split(",")
        assert row[cli.CSV_COLUMNS.index("seed")] == "5"
        assert row[cli.CSV_COLUMNS.index("bottleneck_delay_ms")] == "15"
        assert row[cli.CSV_COLUMNS.index("group_mtu")] == "1500"

    def test_real_numbers_use_six_significant_digits(self, scenario_file):
        rc, out, _ = run_cli(
            lambda **k: cli.cmd_run(scenario_file, None, None, env={}, **k))
        for line in out.strip().splitlines()[1:]:
            goodput = line.split(",")[cli.CSV_COLUMNS.index("goodput_mbps")]
            mantissa = goodput.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
            assert len(mantissa) <= 6

    def test_missing_config_exits_2_and_names_field(self, tmp_path):
        path = tmp_path / "broken.scn"
        path.write_text(re.sub(r"(?m)^max_th = .*\n", "", SCENARIO_TEXT))
        rc, out, err = run_cli(
            lambda **k: cli.cmd_run(str(path), None, None, env={}, **k))
        assert rc == cli.EXIT_CONFIG
        assert "max_th" in err
        assert out == ""

    @pytest.mark.parametrize("old, new, field", [
        ("min_th = 40", "min_th = nan", "min_th"),
        ("seed = 5", "seed = 5\naccess_delay_ms = nan", "access_delay_ms"),
    ], ids=["min_th", "access_delay_ms"])
    def test_non_finite_value_exits_2_and_names_field(self, tmp_path, old, new, field):
        path = tmp_path / "nan.scn"
        path.write_text(SCENARIO_TEXT.replace(old, new))
        rc, out, err = run_cli(
            lambda **k: cli.cmd_run(str(path), None, None, env={}, **k))
        assert rc == cli.EXIT_CONFIG
        assert field in err
        assert out == ""

    @pytest.mark.parametrize("old, new, field", [
        ("duration_s = 4", "duration_s = -1", "duration_s"),
        ("warmup_s = 1", "warmup_s = 4", "warmup_s"),
    ], ids=["duration_s", "warmup_s"])
    def test_bad_window_exits_2_and_names_file_key(self, tmp_path, old, new, field):
        path = tmp_path / "window.scn"
        path.write_text(SCENARIO_TEXT.replace(old, new))
        rc, out, err = run_cli(
            lambda **k: cli.cmd_run(str(path), None, None, env={}, **k))
        assert rc == cli.EXIT_CONFIG
        assert err.startswith(f"config error: {field}: ")
        assert out == ""

    def test_no_bottleneck_arrivals_exits_3_with_diagnostic(self, starved_file):
        rc, out, err = run_cli(
            lambda **k: cli.cmd_run(starved_file, None, None, env={}, **k))
        assert rc == cli.EXIT_RUNTIME
        assert "stalled: no packet reached the bottleneck in 2 s" in err
        assert "drained" not in err
        assert len(out.strip().splitlines()) == 1 + 3

    def test_group_without_arrivals_in_the_window_exits_3(self, silent_window_file):
        rc, out, err = run_cli(
            lambda **k: cli.cmd_run(silent_window_file, None, None, env={}, **k))
        assert rc == cli.EXIT_RUNTIME
        assert err.splitlines() == [f"runtime diagnostic: scenario 'cli-test': {line}"
                                    for line in SILENT_WINDOW_DIAGNOSTICS]
        assert out.splitlines()[1:] == ["cli-test,RED_1,reno,300,1500,0,,0,0,0,0,5",
                                        "cli-test,RED_1,reno,300,375,0,,0,0,0,0,5"]

    @leaks
    def test_unconserved_audit_exits_3_naming_identity(self, scenario_file, monkeypatch,
                                                       field, delta, message):
        leak_audits(monkeypatch, field, delta)
        rc, out, err = run_cli(
            lambda **k: cli.cmd_run(scenario_file, None, None, env={}, **k))
        assert rc == cli.EXIT_RUNTIME
        assert err.startswith(f"runtime diagnostic: scenario 'cli-test': {message}")
        assert len(err.splitlines()) == 1
        assert len(out.strip().splitlines()) == 1 + 3

    def test_missing_file_exits_2(self, tmp_path):
        rc, _, err = run_cli(
            lambda **k: cli.cmd_run(str(tmp_path / "nope.scn"), None, None,
                                    env={}, **k))
        assert rc == cli.EXIT_CONFIG
        assert "nope.scn" in err

    def test_same_seed_twice_byte_identical(self, scenario_file, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert cli.cmd_run(scenario_file, a, None, env={},
                           stdout=io.StringIO(), stderr=io.StringIO()) == 0
        assert cli.cmd_run(scenario_file, b, None, env={},
                           stdout=io.StringIO(), stderr=io.StringIO()) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_seed_precedence_flag_over_env_over_file(self, scenario_file):
        def seed_of(seed_flag, env):
            _, out, _ = run_cli(
                lambda **k: cli.cmd_run(scenario_file, None, seed_flag,
                                        env=env, **k))
            return out.strip().splitlines()[1].split(",")[-1]

        assert seed_of(None, {}) == "5"
        assert seed_of(None, {"REDQSIM_SEED": "77"}) == "77"
        assert seed_of(9, {"REDQSIM_SEED": "77"}) == "9"

    def test_bad_env_seed_exits_2(self, scenario_file):
        rc, _, err = run_cli(
            lambda **k: cli.cmd_run(scenario_file, None, None,
                                    env={"REDQSIM_SEED": "soon"}, **k))
        assert rc == cli.EXIT_CONFIG
        assert "REDQSIM_SEED" in err


# ---------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------

class TestSweepCommand:
    def test_cell_seeds_derive_from_base_seed_and_index(self):
        cells = cli.sweep_cells(
            [RedVariant.RED_1, RedVariant.RED_2], [TcpVariant.RENO],
            [15.0, 80.0], base_seed=5)
        assert [c[3] for c in cells] == [
            (5 * cli.SWEEP_SEED_MULTIPLIER + i) % cli.SWEEP_SEED_MODULUS
            for i in range(4)
        ]
        assert [(c[0].value, c[2]) for c in cells] == [
            ("RED_1", 15.0), ("RED_1", 80.0), ("RED_2", 15.0), ("RED_2", 80.0)]

    def test_grid_rows_and_deterministic_order(self, scenario_file):
        rc, out, err = run_cli(
            lambda **k: cli.cmd_sweep(scenario_file, "RED_1,RED_2", "reno",
                                      "15", None, None, env={}, **k))
        assert rc == cli.EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 2 * 3
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["cli-test/RED_1-reno-15ms"] * 3 + ["cli-test/RED_2-reno-15ms"] * 3

    # Each runtime cause reaches the exit code from a forked cell too: the
    # children inherit the monkeypatches, and both job counts print the
    # same bytes.
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stalled_cell_exits_3_with_diagnostic(self, starved_file, monkeypatch, jobs):
        rc, out, err = result = sweep_two_cells(starved_file, jobs, monkeypatch)
        assert rc == cli.EXIT_RUNTIME
        assert [line for line in err.splitlines() if "stalled" in line] == [
            f"cell dumbbell-defaults/{v}-reno-15ms: runtime diagnostic: stalled: "
            "no packet reached the bottleneck in 2 s" for v in ("RED_1", "RED_3")]
        assert len(out.strip().splitlines()) == 1 + 2 * 3
        if jobs > 1:
            assert result == sweep_two_cells(starved_file, 1, monkeypatch)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_group_without_arrivals_in_the_window_exits_3(self, silent_window_file,
                                                          monkeypatch, jobs):
        rc, out, err = result = sweep_two_cells(silent_window_file, jobs, monkeypatch,
                                                "300")
        assert rc == cli.EXIT_RUNTIME
        assert err.splitlines() == [
            f"cell cli-test/{v}-reno-300ms: runtime diagnostic: {line}"
            for v in ("RED_1", "RED_3") for line in SILENT_WINDOW_DIAGNOSTICS]
        assert out.splitlines()[1:] == [
            f"cli-test/{v}-reno-300ms,{v},reno,300,{mtu},0,,0,0,0,0,{seed}"
            for v, seed in (("RED_1", 5000015), ("RED_3", 5000016)) for mtu in (1500, 375)]
        if jobs > 1:
            assert result == sweep_two_cells(silent_window_file, 1, monkeypatch, "300")

    @leaks
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unconserved_audit_exits_3_naming_identity(self, scenario_file, monkeypatch,
                                                       field, delta, message, jobs):
        leak_audits(monkeypatch, field, delta)
        rc, out, err = result = sweep_two_cells(scenario_file, jobs, monkeypatch)
        assert rc == cli.EXIT_RUNTIME
        lines = err.splitlines()
        assert len(lines) == 2
        for line, variant in zip(lines, ("RED_1", "RED_3")):
            assert line.startswith(
                f"cell cli-test/{variant}-reno-15ms: runtime diagnostic: {message}")
        assert len(out.strip().splitlines()) == 1 + 2 * 3
        if jobs > 1:
            assert result == sweep_two_cells(scenario_file, 1, monkeypatch)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_bad_jobs_exits_2_before_any_fork(self, scenario_file, monkeypatch, jobs):
        monkeypatch.setattr(parallel, "start_child", _no_fork)
        rc, out, err = run_cli(
            lambda **k: cli.cmd_sweep(scenario_file, "RED_1,RED_2", "reno", "15",
                                      None, None, jobs, env={}, **k))
        assert rc == cli.EXIT_CONFIG
        assert err.startswith("config error: jobs: ")
        assert out == ""

    def test_one_cpu_runs_cells_inline(self, scenario_file, monkeypatch):
        monkeypatch.setattr(parallel, "start_child", _no_fork)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        rc, out, _ = run_cli(
            lambda **k: cli.cmd_sweep(scenario_file, "RED_1,RED_2", "reno", "15",
                                      None, None, 4, env={}, **k))
        assert rc == cli.EXIT_OK
        assert len(out.strip().splitlines()) == 1 + 2 * 3

    def test_bad_variant_list_exits_2(self, scenario_file):
        rc, _, err = run_cli(
            lambda **k: cli.cmd_sweep(scenario_file, "RED_1,RED_9", "reno",
                                      "15", None, None, env={}, **k))
        assert rc == cli.EXIT_CONFIG
        assert "red_variant" in err

    def test_bad_delay_list_exits_2(self, scenario_file):
        rc, _, err = run_cli(
            lambda **k: cli.cmd_sweep(scenario_file, "RED_1", "reno",
                                      "15,slow", None, None, env={}, **k))
        assert rc == cli.EXIT_CONFIG
        assert "delays-ms" in err


# ---------------------------------------------------------------
# bad input to run and sweep, caught before any run
# ---------------------------------------------------------------

commands = pytest.mark.parametrize("argv", [
    ["run", "--scenario", "{scn}"],
    ["sweep", "--base", "{scn}", "--variants", "RED_1,RED_3", "--tcp", "reno",
     "--delays-ms", "15"],
], ids=["run", "sweep"])


def _no_run(_scenario):
    raise AssertionError("a scenario was run")


class TestBadInputBeforeAnyRun:
    @commands
    def test_unwritable_out_exits_2_naming_it(self, scenario_file, tmp_path,
                                              monkeypatch, capsys, argv):
        monkeypatch.setattr(cli, "run_scenario", _no_run)
        out_path = tmp_path / "no-such-dir" / "x.csv"
        argv = [arg.format(scn=scenario_file) for arg in argv] + ["--out", str(out_path)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: out: cannot write {str(out_path)!r}: ")
        assert len(err.splitlines()) == 1

    @commands
    @pytest.mark.parametrize("name", ["a,b", 'say "hi"'], ids=["comma", "quote"])
    def test_name_that_breaks_a_csv_field_exits_2(self, tmp_path, monkeypatch, capsys,
                                                   argv, name):
        monkeypatch.setattr(cli, "run_scenario", _no_run)
        path = tmp_path / "named.scn"
        path.write_text(SCENARIO_TEXT.replace("name = cli-test", f"name = {name}"))
        assert cli.main([arg.format(scn=path) for arg in argv]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: name: ")

    @commands
    @pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], "-3")],
                             ids=["flag", "env"])
    def test_negative_seed_exits_2_naming_it(self, scenario_file, monkeypatch, capsys,
                                             argv, flag, env):
        monkeypatch.setattr(cli, "run_scenario", _no_run)
        if env is not None:
            monkeypatch.setenv("REDQSIM_SEED", env)
        argv = [arg.format(scn=scenario_file) for arg in argv] + flag
        assert cli.main(argv) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "config error: seed: must be >= 0\n"

    @pytest.mark.parametrize("name", ["a\rb", "a\nb"], ids=["cr", "lf"])
    def test_line_break_in_name_rejected(self, name):
        scenario = cli.parse_scenario_text(SCENARIO_TEXT)
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(scenario, name=name)
        assert err.value.field == "name"

    @commands
    def test_out_file_holds_the_bytes_printed_to_stdout(self, scenario_file, tmp_path,
                                                        capsys, argv):
        argv = [arg.format(scn=scenario_file) for arg in argv]
        assert cli.main(argv) == cli.EXIT_OK
        printed = capsys.readouterr().out
        out_path = tmp_path / "out.csv"
        assert cli.main(argv + ["--out", str(out_path)]) == cli.EXIT_OK
        assert capsys.readouterr().out == ""
        assert out_path.read_bytes() == printed.encode()


# ---------------------------------------------------------------
# validate command
# ---------------------------------------------------------------

class TestValidateCommand:
    def test_size_blind_uniform_law_passes(self):
        rc, out, err = run_cli(
            lambda **k: cli.cmd_validate("RED_1", 0.1, "1500", 1500,
                                         120_000, 3, **k))
        assert rc == cli.EXIT_OK
        assert "TV distance" in out
        assert err == ""

    def test_small_trial_count_warns(self):
        rc, out, err = run_cli(
            lambda **k: cli.cmd_validate("RED_1", 0.1, "1500", 1500, 10, 3, **k))
        assert "meaningless" in err

    def test_unknown_variant_exits_2(self):
        rc, _, err = run_cli(
            lambda **k: cli.cmd_validate("RED_7", 0.1, "1500", 1500,
                                         120_000, 3, **k))
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "variant, p_b, sizes, field",
        [
            pytest.param("RED_1", 0.1, "wide", "sizes", id="sizes-not-numbers"),
            # The exact law's mass misses 1 by more than its tolerance.
            pytest.param("RED_1", 0.00001, "1500", "pb", id="pb-mass-tolerance"),
            # The exact law needs more than its 1,000,000-step cap.
            pytest.param("RED_5", 0.1, "1", "pb", id="pb-step-cap"),
            # The exact law holds, but 120,000 trials at a mean gap of
            # 25,000.5 arrivals are about 3e9 gatekeeper steps.
            pytest.param("RED_1", 0.00002, "1500", "trials", id="trials-work-cap"),
        ],
    )
    def test_bad_input_exits_2_naming_field(self, monkeypatch, variant, p_b,
                                            sizes, field):
        def no_trials(*_args, **_kwargs):
            raise AssertionError("Monte Carlo ran on a rejected input")

        monkeypatch.setattr(cli, "montecarlo_interdrop", no_trials)
        rc, _, err = run_cli(
            lambda **k: cli.cmd_validate(variant, p_b, sizes, 1500,
                                         120_000, 3, **k))
        assert rc == cli.EXIT_CONFIG
        assert err.startswith(f"config error: {field}: ")

    def test_threshold_breach_exits_1(self, monkeypatch):
        # Force disagreement by corrupting the sampled law.
        from redqsim import droplaw

        real = cli.montecarlo_interdrop

        def skewed(variant, p_b, stream, trials, seed):
            law = real(variant, p_b, stream, trials=trials, seed=seed)
            pmf = dict(law.pmf)
            top = max(pmf)
            moved = min(0.5, sum(p for n, p in pmf.items() if n != top))
            scale = 1.0 - moved / max(1e-12, 1.0 - pmf.get(top, 0.0))
            pmf = {n: (p * scale if n != top else p) for n, p in pmf.items()}
            pmf[top] = 1.0 - sum(p for n, p in pmf.items() if n != top)
            return droplaw.InterdropLaw(pmf=pmf)

        monkeypatch.setattr(cli, "montecarlo_interdrop", skewed)
        rc, out, _ = run_cli(
            lambda **k: cli.cmd_validate("RED_1", 0.1, "1500", 1500,
                                         120_000, 3, **k))
        assert rc == cli.EXIT_THRESHOLD
        assert "BREACH" in out


# ---------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------

class TestMainDispatch:
    def test_run_dispatch(self, scenario_file, tmp_path, capsys):
        out_path = str(tmp_path / "r.csv")
        rc = cli.main(["run", "--scenario", scenario_file, "--out", out_path])
        assert rc == 0
        header = open(out_path).readline().strip()
        assert header == ",".join(cli.CSV_COLUMNS)

    def test_sweep_jobs_defaults_to_one(self, scenario_file):
        args = cli.build_parser().parse_args(
            ["sweep", "--base", scenario_file, "--variants", "RED_1",
             "--tcp", "reno", "--delays-ms", "15"])
        assert args.jobs == 1

    def test_validate_dispatch(self, capsys):
        rc = cli.main(["validate", "--variant", "RED_1", "--pb", "0.1",
                       "--sizes", "1500", "--trials", "120000", "--seed", "3"])
        assert rc == 0
        assert "TV distance" in capsys.readouterr().out
