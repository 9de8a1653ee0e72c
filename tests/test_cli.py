import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dangermac.cli import _parse_numbers, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_point_defaults_is_unfiltered_baseline(capsys):
    code, out, _ = run_cli(capsys, "point")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:3] == ["n_vehicles", "threshold_m", "n_eff_mean"]
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["n_vehicles"] == "50"
    assert row["threshold_m"] == "benchmark"
    assert row["n_eff_mean"] == "50"
    assert row["model_mode"] == "busy_aware"
    assert float(row["tau"]) > 0


def test_point_saturated_threshold_equals_baseline(capsys):
    code, base, _ = run_cli(capsys, "point")
    code2, filt, _ = run_cli(capsys, "point", "--threshold-m", "1001")
    assert code == code2 == 0
    header, base_rows = parse_csv(base)
    _, filt_rows = parse_csv(filt)
    base_row = dict(zip(header, base_rows[0]))
    filt_row = dict(zip(header, filt_rows[0]))
    assert filt_row["threshold_m"] == "1001"
    assert filt_row["n_eff_mean"] == "50"
    for column in ("tau", "p_tr", "p_su", "pdr", "throughput", "t_td_us"):
        assert filt_row[column] == base_row[column]


def test_point_zero_threshold_reports_idle_network(capsys):
    code, out, _ = run_cli(capsys, "point", "--threshold-m", "0")
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["n_eff_mean"] == "0"
    assert row["throughput"] == "0"
    assert row["tau"] == "0"


def test_point_config_file_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_vehicles": 10, "cw_min": 15}))
    code, out, _ = run_cli(capsys, "point", "--config", str(config),
                           "--n-vehicles", "5")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][0] == "5"


def test_point_rejects_bad_config_value(capsys):
    code, _, err = run_cli(capsys, "point", "--cw-min", "0")
    assert code == 1
    assert "cw_min" in err


def test_point_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"not_a_key": 1}')
    code, _, err = run_cli(capsys, "point", "--config", str(config))
    assert code == 1
    assert "unknown config key" in err
    # throughput_mode was removed in 0.8.0: neither a saved key nor the flag
    config.write_text('{"throughput_mode": "slot_scaled"}')
    code, _, err = run_cli(capsys, "point", "--config", str(config))
    assert code == 1
    assert "unknown config key: 'throughput_mode'" in err
    for command in ("point", "sweep", "compare", "scenario"):
        code, out, _ = run_cli(capsys, command, "--throughput-mode", "slot_scaled")
        assert code == 1
        assert out == ""


def test_usage_error_exit_code(capsys):
    assert main(["bogus-command"]) == 1
    capsys.readouterr()
    assert main(["sweep", "--values", "5,3"]) == 1
    capsys.readouterr()
    assert main(["compare", "--n-list", "0", "--slots", "100"]) == 1
    capsys.readouterr()


def test_sweep_schema_and_curves(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--values", "2,5", "--trials", "30")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "x", "threshold_m", "n_eff_mean", "tau", "p_tr", "p_su", "pdr",
        "throughput", "p_emp", "p_suc", "p_own", "p_col", "p_bus", "t_td_us",
        "model_mode",
    ]
    assert len(rows) == 2 * 4  # two x values, three thresholds plus benchmark
    labels = [row[1] for row in rows[:4]]
    assert labels == ["300", "500", "700", "benchmark"]


def test_sweep_pdr_ordering_across_thresholds(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--values", "2,5,10",
                           "--trials", "200", "--seed", "3")
    assert code == 0
    header, rows = parse_csv(out)
    idx_pdr = header.index("pdr")
    idx_pcol = header.index("p_col")
    for i in range(0, len(rows), 4):
        group = rows[i:i + 4]
        pdrs = [float(r[idx_pdr]) for r in group]
        pcols = [float(r[idx_pcol]) for r in group]
        assert pdrs == sorted(pdrs, reverse=True)
        assert pcols == sorted(pcols)


def test_sweep_threshold_axis(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--x-axis", "threshold_m",
                           "--values", "100,300,900", "--trials", "50",
                           "--n-vehicles", "10")
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 6  # filtered + benchmark per threshold
    idx = header.index("n_eff_mean")
    filtered = [float(r[idx]) for r in rows if r[1] != "benchmark"]
    assert filtered == sorted(filtered)
    bench = {r[idx] for r in rows if r[1] == "benchmark"}
    assert bench == {"10"}


def test_sweep_empty_metrics_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "--values", "2,3", "--metrics", "")
    assert code == 1
    assert "metric" in err
    code, _, err = run_cli(capsys, "sweep", "--values", "2,3",
                           "--metrics", "nope")
    assert code == 1


def test_sweep_svg_requires_out(capsys):
    code, _, err = run_cli(capsys, "sweep", "--values", "2,3", "--svg")
    assert code == 1
    assert "--out" in err


def test_sweep_writes_files(tmp_path, capsys):
    out = tmp_path / "results"
    code, stdout, _ = run_cli(capsys, "sweep", "--values", "2,4",
                              "--trials", "20", "--metrics", "pdr,tau",
                              "--svg", "--out", str(out))
    assert code == 0
    assert stdout == ""
    assert (out / "sweep.csv").exists()
    assert (out / "pdr.svg").exists()
    assert (out / "tau.svg").exists()
    assert "<svg" in (out / "pdr.svg").read_text()


def test_io_failure_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code, _, err = run_cli(capsys, "point", "--out", str(blocker / "sub"))
    assert code == 3


def test_scenario_per_trial_records(capsys):
    code, out, _ = run_cli(capsys, "scenario", "--trials", "5",
                           "--thresholds", "100,500", "--seed", "8")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["trial", "threshold_m", "n_eff"]
    assert len(rows) == 10
    assert rows[0][0] == "0" and rows[-1][0] == "4"
    for row in rows:
        assert 0 <= int(row[2]) <= 50


def test_compare_schema_and_single_station_exactness(capsys):
    code, out, _ = run_cli(capsys, "compare", "--n-list", "1", "--slots", "5000")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:3] == ["n", "seed", "slots"]
    row = dict(zip(header, rows[0]))
    assert row["p_su_classic"] == "1"
    assert row["p_su_sim"] == "1"
    assert row["p_su_err_classic"] == "0"
    assert row["col_frac_err_busy"] == "0"


def test_compare_tracks_simulation(capsys):
    code, out, _ = run_cli(capsys, "compare", "--n-list", "5,10",
                           "--slots", "150000", "--seeds", "4")
    assert code == 0
    header, rows = parse_csv(out)
    for row in rows:
        record = dict(zip(header, row))
        assert float(record["tau_err_classic"]) <= 0.05
        assert float(record["p_su_err_classic"]) <= 0.05


def test_byte_identical_reruns(tmp_path, capsys):
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, _ = run_cli(capsys, "sweep", "--values", "2,4",
                             "--trials", "25", "--seed", "11",
                             "--out", str(out))
        assert code == 0
        digests.append(hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


COMMANDS = ("point", "sweep", "compare", "scenario")
HELP_AND_ERROR_ARGVS = [[], ["--help"], ["bogus"],
                        *([command, "--help"] for command in COMMANDS),
                        *([command, "--no-such-flag"] for command in COMMANDS)]


def full_parser_output(capsys, argv):
    """Exit code main gives, stdout and stderr of every command's parser on argv."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return 0 if exc.value.code in (0, None) else 1, captured.out, captured.err


def subparsers(parser):
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def flag_specs(parser):
    return [(a.option_strings, a.dest, a.default, a.choices) for a in parser._actions]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["sweep", "--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", HELP_AND_ERROR_ARGVS,
                         ids=lambda argv: " ".join(argv) or "no args")
def test_help_and_errors_read_as_with_every_commands_flags(capsys, argv):
    # main builds only the named command's flags; what it prints must not show it
    expected = full_parser_output(capsys, argv)
    assert expected[1] or expected[2]
    assert run_cli(capsys, *argv) == expected


@pytest.mark.parametrize("command", COMMANDS)
def test_one_commands_parser_has_that_commands_flags(command):
    full, one = subparsers(build_parser()), subparsers(build_parser(command))
    assert list(one) == list(full) == list(COMMANDS)
    assert flag_specs(one[command]) == flag_specs(full[command])
    for other in COMMANDS:
        if other != command:
            assert [a.dest for a in one[other]._actions] == ["help"]


def test_main_reads_sys_argv(capsys, monkeypatch):
    expected = full_parser_output(capsys, ["sweep", "--help"])
    monkeypatch.setattr(sys, "argv", ["dangermac", "sweep", "--help"])
    assert main() == 0
    assert capsys.readouterr() == expected[1:]
    assert expected[1].startswith("usage: dangermac sweep")


def test_point_large_population(capsys):
    # 1 - (1 - tau)^(n-1) rounds to 1 from about 150 contenders
    code, out, err = run_cli(capsys, "point", "--n-vehicles", "300")
    assert code == 0, err
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["n_eff_mean"] == "300"
    assert 0 < float(row["tau"]) < 2 / 9


def test_sweep_across_150_vehicles(capsys):
    code, out, err = run_cli(capsys, "sweep", "--values", "140..160")
    assert code == 0, err
    header, rows = parse_csv(out)
    assert len(rows) == 21 * 4
    idx = header.index("tau")
    bench = [float(r[idx]) for r in rows if r[1] == "benchmark"]
    assert all(a > b > 0 for a, b in zip(bench, bench[1:]))


def test_sweep_analytic_columns_ignore_trials_and_seed(capsys):
    outputs = set()
    for flags in (["--trials", "10"], ["--trials", "1000"],
                  ["--seed", "1"], ["--seed", "2"]):
        code, out, _ = run_cli(capsys, "sweep", "--values", "2,5", *flags)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_non_finite_road_length_rejected(capsys):
    code, _, err = run_cli(capsys, "point", "--road-length-m", "inf")
    assert code == 1
    assert "road_length_m" in err


def test_non_finite_timing_rejected(capsys):
    code, out, err = run_cli(capsys, "point", "--difs-us", "inf")
    assert code == 1
    assert out == ""
    assert "difs_us" in err


def test_non_finite_json_value_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"road_length_m": Infinity}')
    code, _, err = run_cli(capsys, "point", "--config", str(config))
    assert code == 1
    assert "road_length_m" in err


def test_negative_curve_threshold_rejected(capsys):
    code, _, err = run_cli(capsys, "sweep", "--values", "2,3",
                           "--thresholds", "-5,300")
    assert code == 1
    assert "thresholds" in err


def test_python_dash_m_entry_points():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for module in ("dangermac", "dangermac.cli"):
        result = subprocess.run([sys.executable, "-m", module, "--help"],
                                env=env, capture_output=True, text=True,
                                timeout=60)
        assert result.returncode == 0, result.stderr
        assert "usage: dangermac" in result.stdout


# Runs the command line once in a fresh interpreter, then reports on stderr
# which of numpy, dataclasses, json, pickle and signal got imported: the
# records are NamedTuples, dataclasses alone loads inspect, ast and dis, json
# is read only with a config file, and pickle and signal only when compare
# forks its simulator jobs.
_RUN_AND_REPORT_IMPORTS = """
import sys
from dangermac.cli import main
code = main(sys.argv[1:])
print(",".join(m for m in ("numpy", "dataclasses", "json", "pickle", "signal")
               if m in sys.modules), file=sys.stderr)
sys.exit(code)
"""


def run_fresh(*argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run([sys.executable, "-c", _RUN_AND_REPORT_IMPORTS, *argv],
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, timeout=60)
    return result.returncode, result.stdout, result.stderr.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ["point"],
    ["sweep"],
    ["compare", "--n-list", "5", "--slots", "2000"],
    ["scenario", "--trials", "20"],
], ids=["point", "sweep", "compare", "scenario"])
def test_analytic_commands_start_without_numpy(capsys, argv):
    # no command loads numpy, dataclasses, json, pickle or signal, and the fresh
    # interpreter writes the same bytes as this one, where the tests have loaded them
    code, out, loaded = run_fresh(*argv)
    assert code == 0
    assert out.count("\n") >= 2  # header and at least one row
    assert loaded == ""
    assert run_cli(capsys, *argv) == (0, out, "")


# Every count of these rows is pinned, so a change to the sampler's stream
# (its seeding, draw order or scaling) shows here. The thresholds are small
# enough that the counts differ between trials.
@pytest.mark.parametrize("metric, rows", [
    ("min_gap", "0,5,18 0,10,29 0,20,39 1,5,22 1,10,34 1,20,47 2,5,19 2,10,26 2,20,42"),
    ("front_gap_only", "0,5,11 0,10,18 0,20,27 1,5,12 1,10,20 1,20,35 2,5,11 2,10,16 2,20,33"),
])
def test_scenario_stream_is_pinned(capsys, metric, rows):
    code, out, err = run_cli(capsys, "scenario", "--trials", "3", "--seed", "1",
                             "--thresholds", "5,10,20", "--danger-metric", metric)
    assert (code, err) == (0, "")
    assert out == "trial,threshold_m,n_eff\n" + rows.replace(" ", "\n") + "\n"


def test_point_solves_deep_backoff_stages(capsys):
    # the damped iteration this solve replaced stalled on both configurations
    for argv in (["--max-stage", "8"], ["--max-stage", "12", "--n-vehicles", "149"],
                 ["--max-stage", "16"]):
        code, out, err = run_cli(capsys, "point", *argv)
        assert code == 0, (argv, err)
        header, rows = parse_csv(out)
        assert 0 < float(dict(zip(header, rows[0]))["tau"]) < 2 / 9


def test_window_cap_rejected(capsys):
    for argv in (["--max-stage", "2000"], ["--max-stage", "70"],
                 ["--cw-min", str(10**12)]):
        code, out, err = run_cli(capsys, "point", *argv)
        assert code == 1, argv
        assert out == ""
        assert "cw_min" in err and "max_stage" in err


def test_scenario_nan_threshold_rejected(capsys):
    code, out, err = run_cli(capsys, "scenario", "--trials", "2", "--thresholds", "nan")
    assert code == 1
    assert out == ""
    assert "threshold_m" in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--x-axis", "threshold_m", "--values", "0,inf"],
    ["sweep", "--values", "2,3", "--thresholds", "300,inf"],
    ["scenario", "--trials", "2", "--thresholds", "300,inf"],
])
def test_infinite_list_value_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert argv[-2] in err and "finite" in err


def test_extreme_threshold_over_tiny_road_counts_everyone(capsys):
    # d / L overflows to inf; the clipped bases must keep that silent
    code, out, err = run_cli(capsys, "point", "--threshold-m", "1e308",
                             "--road-length-m", "1e-300")
    assert code == 0, err
    header, rows = parse_csv(out)
    assert dict(zip(header, rows[0]))["n_eff_mean"] == "50"


def test_compare_rejects_empty_population(capsys):
    code, _, err = run_cli(capsys, "compare", "--n-list", "0", "--slots", "100")
    assert code == 1
    assert "--n-list" in err and "zero-size" not in err


@pytest.mark.parametrize("flag", ["--n-list", "--seeds"])
def test_compare_rejects_empty_list_flag(capsys, flag):
    code, out, err = run_cli(capsys, "compare", "--slots", "10", flag, "")
    assert code == 1
    assert out == ""
    assert f"{flag} must not be empty" in err


@pytest.mark.parametrize("message", [
    "Unable to allocate 745. GiB for an array with shape (100000000000, 1)", ""],
    ids=["numpy", "bare"])
def test_allocation_too_large_exits_one(capsys, monkeypatch, message):
    import dangermac.cli as cli_module

    def out_of_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli_module, "n_eff_samples", out_of_memory)
    code, out, err = run_cli(capsys, "scenario", "--trials", "100000000000",
                             "--thresholds", "1")
    assert code == 1
    assert out == ""
    assert err == f"error: {message or 'not enough memory'}\n"


@pytest.mark.parametrize("argv, message", [
    (["scenario", "--trials", "100000000000", "--thresholds", "1"], "not enough memory"),
    (["scenario", "--n-vehicles", "1000000000000", "--trials", "1"], "not enough memory"),
    (["scenario", "--trials", str(10**20), "--thresholds", "1"],
     f"trials must be <= {sys.maxsize}"),
    (["scenario", "--n-vehicles", str(10**20), "--trials", "1"],
     f"n must be <= {sys.maxsize}"),
    (["sweep", "--values", f"1..{10**400}"],
     f"--values: n_vehicles must fit in a float (at most {sys.float_info.max:.4g})"),
    (["sweep", "--values", f"1..{10**20}"], f"--values must hold at most {sys.maxsize} values"),
    (["scenario", "--thresholds", "0..1000000000000", "--trials", "1"], "not enough memory"),
], ids=["trials", "n-vehicles", "trials-past-index", "n-vehicles-past-index",
        "range-end-past-float", "range-past-index", "range-too-long-for-memory"])
def test_sampler_too_large_for_memory_exits_one(argv, message):
    # the sampler allocates its result and position lists whole, and a list
    # flag checks a range's ends and length before building it whole, so
    # under a capped address space the run fails at once, with a message and
    # no traceback; the cap is set in the child only
    resource = pytest.importorskip("resource")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run([sys.executable, "-m", "dangermac", *argv],
                            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                            text=True, timeout=20, preexec_fn=cap_address_space)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"error: {message}\n"


def test_compare_rejects_negative_seed(capsys):
    code, out, err = run_cli(capsys, "compare", "--n-list", "5", "--slots", "100",
                             "--seeds", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: --seeds: rng_seed must be >= 0 (got -1)\n"


def test_threshold_sweep_solves_each_distinct_count_once(capsys, monkeypatch):
    # 1,001 thresholds plus the benchmark, but only 472 distinct non-zero
    # counts: from 493 m on the expected count rounds to exactly 50
    import dangermac.pipeline as pipeline

    solve = pipeline.solve_fixed_point
    solved = []

    def counting_solve(n, *args):
        solved.append(n)
        return solve(n, *args)

    monkeypatch.setattr(pipeline, "solve_fixed_point", counting_solve)
    code, out, _ = run_cli(capsys, "sweep", "--x-axis", "threshold_m",
                           "--values", "0..1000", "--n-vehicles", "50")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 2 * 1001
    assert len(solved) == len(set(solved)) == 472


@pytest.mark.parametrize("argv, formats", [
    (["sweep", "--x-axis", "threshold_m", "--values", "0..1000", "--n-vehicles", "50"], 1001),
    (["sweep"], 3),
], ids=["threshold-axis", "default"])
def test_each_list_value_is_formatted_once(capsys, monkeypatch, argv, formats):
    # a float list value's cell is made where its flag is parsed and printed
    # from there; report cells use _REPORT_FORMAT, built at import, so only
    # list values are counted
    import dangermac.cli as cli

    class CountingCell(str):
        count = 0

        def __mod__(self, value):
            CountingCell.count += 1
            return str.__mod__(self, value)

    monkeypatch.setattr(cli, "_CELL", CountingCell(cli._CELL))
    code, _, _ = run_cli(capsys, *argv)
    assert (code, CountingCell.count) == (0, formats)


@pytest.mark.parametrize("text, key, values, cells", [
    ("1e-10,0.1,300", "threshold_m", [1e-10, 0.1, 300.0], ["1e-10", "0.1", "300"]),
    ("1..3", "n_vehicles", [1, 2, 3], ["1", "2", "3"]),
    ("0..2", "threshold_m", [0.0, 1.0, 2.0], ["0", "1", "2"]),
])
def test_a_list_flag_gives_each_value_with_its_cell(text, key, values, cells):
    parsed = _parse_numbers(text, key, "--flag")
    assert parsed == (values, cells)
    assert list(map(type, parsed[0])) == list(map(type, values))  # 1 == 1.0 too


_TOO_LARGE_FOR_A_FLOAT = "9" * 400


@pytest.mark.parametrize("argv, name", [
    (["point", "--payload-bytes", _TOO_LARGE_FOR_A_FLOAT], "payload_bytes"),
    (["point", "--header-bytes", _TOO_LARGE_FOR_A_FLOAT], "header_bytes"),
    (["point", "--n-vehicles", _TOO_LARGE_FOR_A_FLOAT], "n_vehicles"),
    (["compare", "--n-list", "5," + _TOO_LARGE_FOR_A_FLOAT, "--slots", "100"],
     "--n-list"),
    (["sweep", "--values", "1," + _TOO_LARGE_FOR_A_FLOAT], "--values"),
], ids=["payload-bytes", "header-bytes", "n-vehicles", "n-list", "values"])
def test_integer_too_large_for_a_float_rejected(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert name in err


@pytest.mark.parametrize("argv, names", [
    (["--data-rate-mbps", "1e-320"], ["data_rate_mbps", "payload_bytes"]),
    (["--rts-us", "1e308", "--cts-us", "1e308"], ["rts_us", "cts_us"]),
    # finite inputs whose delay total overflows
    (["--n-vehicles", str(10**306)], ["n_eff", "not finite"]),
    (["--slot-us", "1e308"], ["n_eff", "not finite"]),
], ids=["data-rate", "rts-cts", "n-vehicles", "slot-us"])
def test_non_finite_air_times_rejected(capsys, argv, names):
    code, out, err = run_cli(capsys, "point", *argv)
    assert code == 1
    assert out == ""
    assert all(name in err for name in names)


@pytest.mark.parametrize("argv", [
    ["compare", "--n-list", "1," + str(10**300), "--slots", "1"],
], ids=["compare"])
def test_simulator_rejects_population_too_large_for_a_list(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "n must be <=" in err



POINT_HEADER = ("n_vehicles,threshold_m,n_eff_mean,tau,p_tr,p_su,pdr,throughput,p_emp,"
                "p_suc,p_own,p_col,p_bus,t_td_us,model_mode")


# Every printed digit of these rows (9 significant digits) is pinned, so a
# change to the solver's numerics that moves one shows here.
@pytest.mark.parametrize("argv, row", [
    (["--n-vehicles", "2"],
     "2,benchmark,2,0.176515387,0.321873092,0.903198861,0.903198861,0.773553958,"
     "0.678126908,0.145357705,0.145357705,0.176515387,0.176515387,1076.5135,"
     "busy_aware"),
    (["--n-vehicles", "2", "--model-mode", "classic"],
     "2,benchmark,2,0.178457387,0.325067736,0.902029529,0.902029529,0.772788764,"
     "0.674932264,0.146610348,0.146610348,0.178457387,0,1086.53708,"
     "classic"),
    (["--n-vehicles", "50"],
     "50,benchmark,50,0.0256842182,0.727738105,0.493115171,0.493115171,0.437184951,"
     "0.272261895,0.351681526,0.007177174,0.720560931,0.720560931,57306.8042,"
     "busy_aware"),
    (["--n-vehicles", "50", "--model-mode", "classic"],
     "50,benchmark,50,0.0257735634,0.728983632,0.491770309,0.491770309,0.436030625,"
     "0.271016368,0.351322656,0.00716985012,0.721813782,0,57403.7194,"
     "classic"),
    (["--n-vehicles", "7", "--threshold-m", "350"],
     "7,350,6.90086194,0.0901201775,0.478859911,0.743853388,0.743853388,0.647451805,"
     "0.521140089,0.3045846,0.0516169676,0.427242943,0.427242943,5287.10428,"
     "busy_aware"),
])
def test_point_golden_rows(capsys, argv, row):
    code, out, _ = run_cli(capsys, "point", *argv)
    assert code == 0
    assert out.splitlines() == [POINT_HEADER, row]


def test_point_row_matches_the_same_count_in_a_sweep(capsys):
    # a solve depends only on its count, not on what was solved before it
    code, out, _ = run_cli(capsys, "point", "--n-vehicles", "7", "--threshold-m", "350")
    assert code == 0
    point_row = out.splitlines()[1]
    code, out, _ = run_cli(capsys, "sweep", "--values", "1..10", "--thresholds", "300,350")
    assert code == 0
    assert point_row in out.splitlines()
    code, out, _ = run_cli(capsys, "sweep", "--x-axis", "threshold_m", "--values", "340..360",
                           "--n-vehicles", "7")
    assert code == 0
    [row] = [line for line in out.splitlines() if line.startswith("350,350,")]
    assert row.split(",")[1:] == point_row.split(",")[1:]


def test_point_rows_are_the_sweep_rows_of_their_count(capsys):
    # point and sweep build their rows in one place: after the first cell
    # (n_vehicles in point, x in sweep) the bytes of a row are the same
    code, out, err = run_cli(capsys, "sweep", "--values", "7", "--thresholds", "350")
    assert (code, err) == (0, "")
    filtered, benchmark = out.splitlines()[1:]
    for argv, sweep_row in ((["--threshold-m", "350"], filtered), ([], benchmark)):
        code, out, err = run_cli(capsys, "point", "--n-vehicles", "7", *argv)
        assert (code, err) == (0, "")
        [point_row] = out.splitlines()[1:]
        assert point_row.split(",", 1)[1] == sweep_row.split(",", 1)[1]


# compare's whole CSV and the simulator columns of a second run, pinned at
# every printed digit: the simulator's stream, its counts and the formula
# that turns them into tau, p_su, throughput and collision fraction.
COMPARE_GOLDEN = [
    "n,seed,slots,tau_classic,tau_busy,tau_sim,tau_err_classic,tau_err_busy,"
    "p_su_classic,p_su_busy,p_su_sim,p_su_err_classic,p_su_err_busy,s_classic,"
    "s_busy,s_sim,s_err_classic,s_err_busy,col_frac_classic,col_frac_busy,"
    "col_frac_sim,col_frac_err_classic,col_frac_err_busy",
    "5,1,50000,0.110522667,0.109473093,0.109004,0.0139322151,0.00430344821,"
    "0.780422882,0.78247953,0.783498109,0.00392499692,0.00130004033,0.677122376,"
    "0.678743649,0.679565395,0.00359497256,0.00120922272,0.219577118,0.21752047,"
    "0.216501891,0.0142041608,0.00470471246",
    "50,1,50000,0.0257735634,0.0256842182,0.0255724,0.00786642614,0.0043726116,"
    "0.491770309,0.493115171,0.496359157,0.00924501492,0.0065355619,0.436030625,"
    "0.437184951,0.440009571,0.00904286158,0.00641945085,0.508229691,0.506884829,"
    "0.503640843,0.00911134963,0.00644107014",
]

# n, tau_sim, p_su_sim and s_sim of compare --n-list 1..6 --slots 3000 --seeds 7
SIM_GOLDEN = [
    "1,0.225333333,1,0.843350191",
    "2,0.1885,0.897660819,0.770166504",
    "3,0.148,0.836842105,0.721838045",
    "4,0.1235,0.809756098,0.700507174",
    "5,0.103533333,0.795886076,0.689348251",
    "6,0.0997222222,0.757316203,0.658444625",
]


def test_compare_golden_rows(capsys):
    code, out, _ = run_cli(capsys, "compare", "--n-list", "5,50", "--slots", "50000",
                           "--seeds", "1")
    assert code == 0
    assert out.splitlines() == COMPARE_GOLDEN
    code, out, _ = run_cli(capsys, "compare", "--n-list", "1..6", "--slots", "3000",
                           "--seeds", "7")
    assert code == 0
    header, rows = parse_csv(out)
    columns = [header.index(name) for name in ("n", "tau_sim", "p_su_sim", "s_sim")]
    assert [",".join(row[i] for i in columns) for row in rows] == SIM_GOLDEN


# sha256 of every file each sweep writes. The CSV and SVG writers may change
# how they format; no byte of what they write may move.
SWEEP_FILE_DIGESTS = {
    ("sweep", "--x-axis", "threshold_m", "--values", "0..1000", "--n-vehicles", "50",
     "--svg"): {
        "n_eff.svg": "8b81336e4a817cf38bcb59d3ab41ba897276f832893d64a2a1a1172962d28c0d",
        "p_bus.svg": "32e98812d8481afdc383d5fc990af79218ac67f8010ea1213b32398e1a6ee50b",
        "p_col.svg": "392f10e55bf1443536cafb2bac5b72fd40935853e97db2e28ad4d690f23b0599",
        "pdr.svg": "1435f27ceaa7170d3cbc7fe7704f5cbcf191f357ddc773ffcb57b2b0f35755f8",
        "sweep.csv": "f366ec2d4a41e9c8a77f7b34f91a2762ed88401a3936ef517558b58f8ce00770",
        "tau.svg": "e6d2e1e9bc735ad8b364058f084bfc756825981f535e83f47e0e6b1307517b04",
        "throughput.svg": "a6d43fe0db33cab0b0f84807a1f98e3d1d8e6720d2ac3c0f54c336667cc8db9a",
        "total_delay.svg": "291da311eeec6ef6f3c5af6de2fa130fd70005ebd4efb0d3bbab56d471496692",
    },
    ("sweep", "--svg"): {
        "n_eff.svg": "bf88c47805956a5ccda0659e6cc4ddd46f107c5baad34b4df52c05d84a86120f",
        "p_bus.svg": "b1724c517cc4a38382555fbad61654642ecbf70ced5521c12035c39162346778",
        "p_col.svg": "2bbc94b93bd34db48e1b55df5865206ffbc7e4bfee3a4987bbfd28d6e8d4f3e1",
        "pdr.svg": "37b555fd9bb5d9976e5183d4f7bc2e26bdc55e336f786df235efb14c3b417512",
        "sweep.csv": "d73a51444c64e5eee347e67cb8397cfeb6aaaed87f7eba466895d6050f0643c2",
        "tau.svg": "1266dfacb10eb9176375b540a54363c1abc199bcd01e8dcf373fc06ea31ef14c",
        "throughput.svg": "6008198fff9b0ac30bff8b353f3ce7ab5b53bdb64673cc8d44822405d8c26025",
        "total_delay.svg": "4d17a1847804ce99631dfe4ca8b310abea328cdf68764d4162a9fc707c9aef21",
    },
}


@pytest.mark.parametrize("argv", list(SWEEP_FILE_DIGESTS), ids=["threshold", "default"])
def test_sweep_output_bytes_are_pinned(tmp_path, capsys, argv):
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == SWEEP_FILE_DIGESTS[argv]


@pytest.mark.parametrize("argv", [
    ["point", "--threshold-m", "350"],
    ["sweep", "--x-axis", "threshold_m", "--values", "0,0.001,1e300", "--n-vehicles", "7"],
    ["compare", "--n-list", "1,5", "--slots", "2000", "--seeds", "0,1"],
    ["scenario", "--trials", "3", "--thresholds", "0,1e-300,350"],
], ids=["point", "sweep-threshold", "compare", "scenario"])
def test_csv_cells_need_no_quoting(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    rows = list(csv.reader(io.StringIO(out)))
    assert out.endswith("\n") and len(rows) == len(lines) > 1
    for line, row in zip(lines, rows):
        assert len(row) == len(rows[0])
        assert ",".join(row) == line
