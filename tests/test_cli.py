import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dangermac.cli import main


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
    code, base, _ = run_cli(capsys, "point", "--trials", "50")
    code2, filt, _ = run_cli(capsys, "point", "--trials", "50",
                             "--threshold-m", "1001")
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
    code, out, _ = run_cli(capsys, "point", "--trials", "20", "--threshold-m", "0")
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
        "model_mode", "throughput_mode",
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


def test_sweep_compare_sim_appends_columns(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--values", "2,3", "--trials", "10",
                           "--compare-sim", "--sim-slots", "2000")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[-3:] == ["sim_tau", "sim_p_su", "sim_payload_fraction"]
    assert all(len(r) == len(header) for r in rows)


def test_io_failure_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code, _, err = run_cli(capsys, "point", "--trials", "5",
                           "--out", str(blocker / "sub"))
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


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["sweep", "--help"]) == 0
    capsys.readouterr()


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


def test_compare_rejects_empty_population(capsys):
    code, _, err = run_cli(capsys, "compare", "--n-list", "0", "--slots", "100")
    assert code == 1
    assert "--n-list" in err and "zero-size" not in err


def test_compare_rejects_negative_seed(capsys):
    code, out, err = run_cli(capsys, "compare", "--n-list", "5", "--slots", "100",
                             "--seeds", "-1")
    assert code == 1
    assert out == ""
    assert "--seeds values must all be >= 0" in err


def test_sweep_rejects_zero_sim_slots(capsys):
    code, _, err = run_cli(capsys, "sweep", "--values", "2", "--compare-sim",
                           "--sim-slots", "0")
    assert code == 1
    assert "--sim-slots must be >= 1" in err


def test_sweep_compare_sim_runs_once_per_station_count(capsys, monkeypatch):
    import dangermac.cli as cli_module
    from dangermac.config import MacTimings
    from dangermac.pipeline import geometry_from
    from dangermac.slotsim import run

    argv = ["sweep", "--values", "1..6", "--compare-sim", "--sim-slots", "3000",
            "--seed", "7"]
    calls = []

    def counting_run(n, *args):
        calls.append(n)
        return run(n, *args)

    monkeypatch.setattr(cli_module, "run_sim", counting_run)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    header, rows = parse_csv(out)
    n_sims = [int(round(float(row[2]))) for row in rows]
    assert sorted(calls) == sorted(set(n_sims) - {0})
    assert len(calls) < len(rows)

    # every row holds exactly the bytes its own run would have written
    timings = MacTimings()
    geometry = geometry_from(timings)
    for row, n_sim in zip(rows, n_sims):
        if n_sim == 0:
            expected = [0.0, 1.0, 0.0]
        else:
            stats = run(n_sim, 3000, geometry, 7, timings)
            expected = [stats.tau_hat, stats.p_su_hat, stats.payload_time_fraction]
        assert row[-3:] == [format(v, ".9g") for v in expected]


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
], ids=["data-rate", "rts-cts"])
def test_non_finite_air_times_rejected(capsys, argv, names):
    code, out, err = run_cli(capsys, "point", *argv)
    assert code == 1
    assert out == ""
    assert all(name in err for name in names)
