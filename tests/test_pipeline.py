import pytest

import dangermac.pipeline as pipeline
from dangermac.config import MacTimings
from dangermac.pipeline import evaluate_point, evaluate_points

COUNTS = [5.0, 0.0, 12.5, 5.0, 0.0, 50.0, 12.5, 1.0]


@pytest.mark.parametrize("model_mode", ["busy_aware", "classic"])
@pytest.mark.parametrize("throughput_mode", ["slot_scaled", "unscaled"])
def test_evaluate_points_matches_evaluate_point(model_mode, throughput_mode):
    timings = MacTimings(cw_min=15)
    reports = evaluate_points(timings, COUNTS, model_mode, throughput_mode)
    assert reports == [evaluate_point(timings, n, model_mode, throughput_mode)
                       for n in COUNTS]


def test_evaluate_points_solves_each_distinct_count_once(monkeypatch):
    solve = pipeline.solve_fixed_point
    solved = []

    def counting_solve(n, *args):
        solved.append(n)
        return solve(n, *args)

    monkeypatch.setattr(pipeline, "solve_fixed_point", counting_solve)
    timings = MacTimings()
    assert evaluate_points(timings, [], "busy_aware", "slot_scaled") == []
    evaluate_points(timings, COUNTS, "busy_aware", "slot_scaled")
    assert solved == [5.0, 12.5, 50.0, 1.0]
    # nothing is kept between calls
    evaluate_points(timings, COUNTS, "busy_aware", "slot_scaled")
    assert solved == [5.0, 12.5, 50.0, 1.0] * 2
