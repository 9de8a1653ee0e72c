import math
import warnings
from bisect import bisect_left

import numpy as np
import pytest

from dangermac.scenario import (
    apply_threshold,
    assess_danger,
    expected_n_eff,
    n_eff_samples,
    place_vehicles,
    trial_rng,
)


def test_place_vehicles_sorted_in_range():
    positions = place_vehicles(50, 1000.0, trial_rng(42, 0))
    assert len(positions) == 50
    assert all(0 <= x <= 1000 for x in positions)
    assert positions == sorted(positions)


def test_place_vehicles_deterministic():
    a = place_vehicles(50, 1000.0, trial_rng(42, 3))
    b = place_vehicles(50, 1000.0, trial_rng(42, 3))
    assert a == b
    c = place_vehicles(50, 1000.0, trial_rng(42, 4))
    assert a != c
    assert place_vehicles(50, 1000.0, trial_rng(-42, 3)) != a


def test_place_single_vehicle():
    positions = place_vehicles(1, 500.0, trial_rng(1, 0))
    assert len(positions) == 1
    assert 0 <= positions[0] <= 500


def test_assess_danger_hand_case():
    assert assess_danger([0.0, 100.0, 900.0]) == [100.0, 100.0, 800.0]


def test_assess_danger_equal_spacing():
    positions = [100.0 * i for i in range(10)]
    assert assess_danger(positions) == [100.0] * 10


def test_assess_danger_single_vehicle_never_dangerous():
    assert assess_danger([400.0]) == [math.inf]


def test_assess_danger_front_gap_only():
    danger = assess_danger([0.0, 100.0, 900.0], "front_gap_only")
    assert danger == [100.0, 800.0, math.inf]


def test_assess_danger_matches_all_pairs_oracle():
    # brute force: nearest distance over every pair, not just adjacent gaps
    for trial in range(20):
        positions = place_vehicles(50, 1000.0, trial_rng(7, trial))
        danger = assess_danger(positions)
        for i in range(len(positions)):
            nearest = min(
                abs(positions[i] - positions[j])
                for j in range(len(positions)) if j != i
            )
            assert danger[i] == pytest.approx(nearest, abs=1e-12)


def test_assess_danger_neighbour_consistency():
    positions = place_vehicles(30, 1000.0, trial_rng(5, 1))
    danger = assess_danger(positions)
    gaps = [b - a for a, b in zip(positions, positions[1:])]
    for i, gap in enumerate(gaps):
        assert danger[i] <= gap + 1e-12
        assert danger[i + 1] <= gap + 1e-12


def granted(danger, threshold):
    """Indices of the vehicles strictly inside the threshold, one by one."""
    return {i for i, distance in enumerate(danger) if distance < threshold}


def test_apply_threshold_hand_case():
    danger = [100.0, 100.0, 800.0]
    assert apply_threshold(danger, [300.0]) == [2]
    assert apply_threshold(danger, [0.0, 100.0, 300.0, 800.0, 801.0]) == [0, 0, 2, 2, 3]
    assert apply_threshold([800.0, 100.0, 100.0], [300.0]) == [2]  # any order


def test_apply_threshold_boundary_is_strict():
    assert apply_threshold([300.0, 299.999], [300.0]) == [1]
    assert apply_threshold([300.0, 299.999], [math.nextafter(300.0, math.inf)]) == [2]


def test_apply_threshold_extremes():
    danger = assess_danger(place_vehicles(50, 1000.0, trial_rng(3, 0)))
    assert apply_threshold(danger, [0.0]) == [0]
    assert apply_threshold(danger, [1500.0]) == [50]
    assert apply_threshold(danger, []) == []
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="threshold_m must be >= 0"):
            apply_threshold(danger, [300.0, bad])


def test_grants_monotone_in_threshold():
    thresholds = [0.0, 50.0, 150.0, 400.0, 1000.0]
    for trial in range(50):
        danger = assess_danger(place_vehicles(40, 1000.0, trial_rng(11, trial)))
        grants = [granted(danger, threshold) for threshold in thresholds]
        for smaller, larger in zip(grants, grants[1:]):
            assert smaller <= larger  # subset property
        assert apply_threshold(danger, thresholds) == [len(g) for g in grants]


def test_grants_monotone_in_density():
    # adding a vehicle can only shrink danger distances of the others
    for trial in range(20):
        positions = place_vehicles(20, 1000.0, trial_rng(13, trial))
        extra = place_vehicles(1, 1000.0, trial_rng(17, trial))[0]
        grown = sorted(positions + [extra])
        danger_before = assess_danger(positions)
        danger_after_all = assess_danger(grown)
        danger_after = [danger_after_all[bisect_left(grown, x)] for x in positions]
        assert all(a <= b + 1e-12 for a, b in zip(danger_after, danger_before))
        assert granted(danger_before, 200.0) <= granted(danger_after, 200.0)
        assert apply_threshold(danger_before, [200.0]) <= apply_threshold(danger_after, [200.0])


def test_n_eff_samples_shapes_and_bounds():
    samples = np.asarray(n_eff_samples(50, 1000.0, [0.0, 300.0, 1500.0], trials=100, seed=2))
    assert samples.shape == (100, 3)
    assert (samples[:, 0] == 0).all()
    assert (samples[:, 2] == 50).all()
    assert ((samples >= 0) & (samples <= 50)).all()
    assert (np.diff(samples, axis=1) >= 0).all()


def test_expected_n_eff_saturates_at_road_length():
    assert expected_n_eff(50, 1000.0, [1000.0]) == [50.0]


def test_expected_n_eff_monotone_in_threshold():
    means = expected_n_eff(50, 1000.0, [20.0, 40.0, 80.0])
    assert means == sorted(means)


CLOSED_FORM_THRESHOLDS = [0.0, 50.0, 300.0, 500.0, 700.0, 1000.0, 1001.0]


@pytest.mark.parametrize("metric", ["min_gap", "front_gap_only"])
@pytest.mark.parametrize("n", [1, 2, 5, 20, 50])
def test_expected_n_eff_matches_monte_carlo(n, metric):
    # the closed form against the per-trial simulation it replaces. Where
    # every sampled count is the maximum the standard error is 0 while the
    # exact mean falls short by up to 2e-5 (n = 20, d = L/2), so the bound
    # adds 1/trials, the smallest step a mean of integer counts can take
    trials = 3000
    samples = np.asarray(n_eff_samples(n, 1000.0, CLOSED_FORM_THRESHOLDS, trials,
                                       seed=2024, metric=metric))
    exact = np.array(expected_n_eff(n, 1000.0, CLOSED_FORM_THRESHOLDS, metric))
    sem = samples.std(axis=0) / math.sqrt(trials)
    assert (np.abs(samples.mean(axis=0) - exact) <= 4.0 * sem + 1.0 / trials).all()


@pytest.mark.parametrize("metric", ["min_gap", "front_gap_only"])
def test_expected_n_eff_exact_at_extremes(metric):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from d >= L/2
        for n in (1, 2, 5, 20, 50, 1000):
            full = 0 if n == 1 else (n if metric == "min_gap" else n - 1)
            means = expected_n_eff(n, 1000.0, [0.0, 500.0, 700.0, 1000.0, 1001.0, 1e9],
                                   metric)
            assert means[0] == 0.0
            assert means[3:] == [full] * 3
            if n == 1:
                assert means == [0.0] * 6


def test_expected_n_eff_rejects_bad_thresholds():
    with pytest.raises(ValueError, match="thresholds"):
        expected_n_eff(50, 1000.0, [-1.0])
    with pytest.raises(ValueError, match="thresholds"):
        expected_n_eff(50, 1000.0, [math.nan])


@pytest.mark.parametrize("function, args, message", [
    (place_vehicles, (0, 1000.0, trial_rng(1, 0)), "n must be >= 1 (got 0)"),
    (place_vehicles, (5, 0.0, trial_rng(1, 0)), "road_length_m must be > 0 (got 0.0)"),
    (assess_danger, ([0.0, 1.0], "nope"), "unknown danger metric: 'nope'"),
    (expected_n_eff, (5, 1000.0, [10.0], "nope"), "unknown danger metric: 'nope'"),
    (n_eff_samples, (5, 1000.0, [10.0], 0, 1), "trials must be >= 1 (got 0)"),
], ids=["no-vehicle", "no-road", "danger-metric", "n-eff-metric", "no-trial"])
def test_invalid_arguments_raise_one_message(function, args, message):
    with pytest.raises(ValueError) as raised:
        function(*args)
    assert str(raised.value) == message


def test_expected_n_eff_matches_independent_reimplementation():
    # same statistic from scratch: fresh stream, per-vehicle nearest distance
    # over all pairs, strict threshold, no shared code path
    n, road, threshold, trials = 50, 1000.0, 60.0, 3000
    rng = np.random.default_rng(987654)
    counts = []
    for _ in range(trials):
        xs = rng.uniform(0.0, road, size=n)
        granted = 0
        for i in range(n):
            nearest = min(abs(xs[i] - xs[j]) for j in range(n) if j != i)
            if nearest < threshold:
                granted += 1
        counts.append(granted)
    oracle_mean = float(np.mean(counts))
    oracle_sem = float(np.std(counts)) / math.sqrt(trials)

    mean = expected_n_eff(n, road, [threshold])[0]
    assert abs(mean - oracle_mean) <= 3.0 * oracle_sem * 1.5


def test_trials_order_independent():
    all_at_once = n_eff_samples(30, 1000.0, [100.0], trials=20, seed=5)
    reversed_order = [
        n_eff_samples(30, 1000.0, [100.0], trials=trial + 1, seed=5)[trial]
        for trial in reversed(range(20))
    ][::-1]
    assert all_at_once == reversed_order
