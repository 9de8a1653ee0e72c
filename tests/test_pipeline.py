from dataclasses import fields

import pytest

import dangermac.pipeline as pipeline
from dangermac.config import MacTimings
from dangermac.pipeline import (
    REPORT_COLUMNS,
    SWEEP_METRICS,
    PerfReport,
    evaluate_point,
    evaluate_points,
    metric_value,
)

COUNTS = [5.0, 0.0, 12.5, 5.0, 0.0, 50.0, 12.5, 1.0]


@pytest.mark.parametrize("model_mode", ["busy_aware", "classic"])
def test_evaluate_points_matches_evaluate_point(model_mode):
    timings = MacTimings(cw_min=15)
    reports = evaluate_points(timings, COUNTS, model_mode)
    assert reports == [evaluate_point(timings, n, model_mode) for n in COUNTS]


def test_evaluate_points_solves_each_distinct_count_once(monkeypatch):
    solve = pipeline.solve_fixed_point
    solved = []

    def counting_solve(n, *args):
        solved.append(n)
        return solve(n, *args)

    monkeypatch.setattr(pipeline, "solve_fixed_point", counting_solve)
    timings = MacTimings()
    assert evaluate_points(timings, [], "busy_aware") == []
    evaluate_points(timings, COUNTS, "busy_aware")
    assert solved == [5.0, 12.5, 50.0, 1.0]
    # nothing is kept between calls
    evaluate_points(timings, COUNTS, "busy_aware")
    assert solved == [5.0, 12.5, 50.0, 1.0] * 2


def test_report_fields_are_its_csv_columns():
    report = evaluate_point(MacTimings(), 5.0, "busy_aware")
    assert tuple(f.name for f in fields(PerfReport)) == REPORT_COLUMNS == (
        "n_eff_mean", "tau", "p_tr", "p_su", "pdr", "throughput",
        "p_emp", "p_suc", "p_own", "p_col", "p_bus", "t_td_us")
    assert all(type(getattr(report, name)) is float for name in REPORT_COLUMNS)


def test_metric_value_reads_its_column():
    report = PerfReport(*(float(i) for i in range(1, len(REPORT_COLUMNS) + 1)))
    columns = {"pdr": "pdr", "throughput": "throughput", "total_delay": "t_td_us",
               "p_bus": "p_bus", "p_col": "p_col", "n_eff": "n_eff_mean", "tau": "tau"}
    assert SWEEP_METRICS == tuple(columns)
    for metric, column in columns.items():
        assert metric_value(report, metric) == getattr(report, column)
    with pytest.raises(ValueError, match="unknown metric: 'p_c'"):
        metric_value(report, "p_c")
