import pytest

import dangermac.pipeline as pipeline
from dangermac.config import MacTimings
from dangermac.metrics import AccessProbabilities, throughput
from dangermac.pipeline import (
    REPORT_COLUMNS,
    SWEEP_METRICS,
    PerfReport,
    evaluate_point,
    evaluate_points,
    geometry_from,
    metric_column,
    metric_value,
    simulate_points,
)
from dangermac.slotsim import run

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
    assert PerfReport._fields == REPORT_COLUMNS == (
        "n_eff_mean", "tau", "p_tr", "p_su", "pdr", "throughput",
        "p_emp", "p_suc", "p_own", "p_col", "p_bus", "t_td_us")
    assert all(type(getattr(report, name)) is float for name in REPORT_COLUMNS)


def test_metric_value_reads_its_column():
    report = PerfReport(*(float(i) for i in range(1, len(REPORT_COLUMNS) + 1)))
    columns = {"pdr": "pdr", "throughput": "throughput", "total_delay": "t_td_us",
               "p_bus": "p_bus", "p_col": "p_col", "n_eff": "n_eff_mean", "tau": "tau"}
    assert SWEEP_METRICS == tuple(columns)
    for metric, column in columns.items():
        assert metric_column(metric)(report) == getattr(report, column)
        assert metric_value(report, metric) == getattr(report, column)
    with pytest.raises(ValueError, match="unknown metric: 'p_c'"):
        metric_column("p_c")
    with pytest.raises(ValueError, match="unknown metric: 'p_c'"):
        metric_value(report, "p_c")


def test_simulate_points_gives_a_silent_network_at_count_zero(monkeypatch):
    def no_run(*args):
        raise AssertionError("count 0 needs no run")

    monkeypatch.setattr(pipeline, "run", no_run)
    assert simulate_points(MacTimings(), [0, 0], 100, 1) == [(0.0, 1.0, 0.0)] * 2
    assert simulate_points(MacTimings(), [], 100, 1) == []


def test_simulate_points_runs_each_distinct_count_once(monkeypatch):
    calls = []

    def counting_run(n, *args):
        calls.append((n, *args))
        return run(n, *args)

    monkeypatch.setattr(pipeline, "run", counting_run)
    timings = MacTimings(cw_min=15)
    counts = [5, 0, 3, 5, 0, 3, 1]
    measured = simulate_points(timings, counts, 500, 2)
    g = geometry_from(timings)
    assert calls == [(5, 500, g, 2), (3, 500, g, 2), (1, 500, g, 2)]
    assert measured[0] == measured[3] and measured[2] == measured[5]
    # nothing is kept between calls
    simulate_points(timings, counts, 500, 2)
    assert len(calls) == 6


def test_simulate_points_reads_each_run_from_its_counts():
    # tau = attempts / (n slots), p_su = success_slots / tx_slots (1 when
    # no slot was busy), throughput at p_tr = tx_slots / slots
    timings = MacTimings(cw_min=15)
    g = geometry_from(timings)
    counts = [1, 2, 7, 30]
    silent = 0
    for slots in (1, 7, 3000):
        for seed in (0, 1):
            for n, measured in zip(counts, simulate_points(timings, counts, slots, seed)):
                sim = run(n, slots, g, seed)
                p_su = sim.success_slots / sim.tx_slots if sim.tx_slots else 1.0
                access = AccessProbabilities(p_tr=sim.tx_slots / slots, p_su=p_su)
                assert measured == (sim.attempts / (n * slots), p_su,
                                    throughput(access, timings)), (n, slots, seed)
                silent += sim.tx_slots == 0
    assert silent > 0  # a one-slot run can be idle
