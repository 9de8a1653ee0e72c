"""Acceptance suite: one test per release criterion, with runtime guards.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output) after its assertions hold.
"""

import hashlib
import time
from pathlib import Path

import numpy as np

from dangermac.cli import _sim_checked, main
from dangermac.config import MacTimings
from dangermac.markov import ChainGeometry, solve_fixed_point
from dangermac.metrics import (
    access_probabilities,
    delay_state_probabilities,
    total_delay,
)
from dangermac.pipeline import evaluate_point
from dangermac.scenario import apply_threshold, assess_danger, n_eff_samples, place_vehicles, trial_rng
from dangermac.slotsim import run as run_sim
from test_markov import balance_states, oracle_tau_b00, stationary_tau

GRID_GEOMETRIES = [(1, 2), (2, 4), (3, 8), (5, 8)]
GRID_PROBS = [0.0, 0.2, 0.5, 0.8]


def _report(number: int, label: str, started: float) -> None:
    print(f"[criterion {number:02d}] {label}: PASS ({time.perf_counter() - started:.2f}s)")


def test_c01_stationary_normalization_grid():
    started = time.perf_counter()
    for m, w0 in GRID_GEOMETRIES:
        g = ChainGeometry(m, w0)
        for p_c in GRID_PROBS:
            for p_b in GRID_PROBS:
                stages = balance_states(p_c, p_b, g)
                assert abs(sum(s.sum() for s in stages) - 1.0) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, "stationary distribution normalizes on the full grid", started)


def test_c02_closed_form_equals_power_iteration_oracle():
    started = time.perf_counter()
    for m, w0 in GRID_GEOMETRIES:
        g = ChainGeometry(m, w0)
        for p_c in GRID_PROBS:
            for p_b in GRID_PROBS:
                tau, b00 = stationary_tau(p_c, p_b, g)
                oracle_tau, oracle_b00 = oracle_tau_b00(p_c, p_b, g)
                assert abs(tau - oracle_tau) <= 1e-9
                assert abs(b00 - oracle_b00) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(2, "closed form matches transition-matrix oracle to 1e-9", started)


def test_c03_single_station_fixed_point_is_exact():
    started = time.perf_counter()
    for w0 in (2, 4, 8, 16):
        g = ChainGeometry(5, w0)
        for mode in ("busy_aware", "classic"):
            solution = solve_fixed_point(1, g, mode)
            assert abs(solution.tau - 2.0 / (w0 + 1.0)) <= 1e-12
            assert solution.p_c == 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 0.1
    _report(3, "lone station reduces to tau = 2/(w0+1)", started)


def test_c04_reference_timing_anchors():
    started = time.perf_counter()
    t = MacTimings()  # cw_min 7, slot 13 us, difs 64 us, rts 0
    states = delay_state_probabilities(0.1, 10)
    breakdown = total_delay(states, p_tr=0.5, n_transmitter=10, t=t)
    assert breakdown.cw_star_us == 45.5
    single_collision_cost = breakdown.t_tc_us / breakdown.n_collision
    assert single_collision_cost == 64.0
    _report(4, "mean backoff 45.5 us and collision leg 64 us, exact", started)


def test_c05_simulation_validates_classic_chain():
    started = time.perf_counter()
    g = ChainGeometry(5, 8)
    timings = MacTimings()
    for n in (5, 10, 20):
        stats = run_sim(n, 1_000_000, g, seed=1234)
        report = evaluate_point(timings, float(n), "classic")
        assert abs(report.tau - stats.tau_hat) / stats.tau_hat <= 0.05
        assert abs(report.access.p_su - stats.p_su_hat) / stats.p_su_hat <= 0.05
        sim_s = _sim_checked(stats, timings)["s"]
        assert abs(report.throughput - sim_s) / sim_s <= 0.10
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(5, "classic chain within 5%/10% of the slot simulation", started)


def test_c06_delay_state_probabilities_close_exactly():
    started = time.perf_counter()
    rng = np.random.default_rng(20240601)
    for _ in range(1000):
        states = delay_state_probabilities(float(rng.uniform(0, 1)),
                                           int(rng.integers(1, 101)))
        total = states.p_emp + states.p_suc + states.p_own + states.p_col + states.p_bus
        assert total == 1.0
    _report(6, "five delay-state probabilities sum to exactly one", started)


def test_c07_filter_properties_over_random_placements():
    started = time.perf_counter()
    thresholds = [0.0, 300.0, 500.0, 700.0, 1000.0]
    for trial in range(10_000):
        danger = assess_danger(place_vehicles(50, 1000.0, trial_rng(77, trial)))
        grants = [{i for i, d in enumerate(danger) if d < threshold}
                  for threshold in thresholds]
        for smaller, larger in zip(grants, grants[1:]):
            assert smaller <= larger
        counts = apply_threshold(danger, thresholds)
        assert counts == [len(g) for g in grants]
        assert counts[0] == 0       # zero threshold grants nobody
        assert counts[-1] == 50     # road-length threshold grants all
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(7, "grant monotonicity and extreme thresholds on 10^4 placements", started)


def test_c08_threshold_trends_match_reported_orderings():
    started = time.perf_counter()
    timings = MacTimings()
    thresholds = [300.0, 500.0, 700.0]
    trials = 1000
    # a lone vehicle has no neighbour inside any threshold, so the filtered
    # network is idle at one vehicle; at the mean granted count the orderings
    # hold from two up (averaged over placements they hold from four, README)
    for x in (2, 5, 10, 15, 25, 35, 50):
        samples = np.asarray(n_eff_samples(x, 1000.0, thresholds, trials, seed=31))
        means = [float(samples[:, j].mean()) for j in range(3)] + [float(x)]
        assert all(a <= b for a, b in zip(means, means[1:]))
        reports = [evaluate_point(timings, mean, "busy_aware")
                   for mean in means]
        pdrs = [r.pdr for r in reports]
        rates = [r.throughput for r in reports]
        collisions = [r.p_c for r in reports]
        busies = [r.p_b for r in reports]
        delays = [r.delay.t_td_us for r in reports]
        assert all(a >= b for a, b in zip(pdrs, pdrs[1:]))
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert all(a <= b for a, b in zip(collisions, collisions[1:]))
        assert all(a <= b for a, b in zip(busies, busies[1:]))
        assert all(a <= b for a, b in zip(delays, delays[1:]))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(8, "tighter thresholds improve pdr/throughput and cut "
               "collision/busy/delay toward the benchmark", started)


def test_c09_cli_reruns_are_byte_identical(tmp_path, capsys):
    started = time.perf_counter()
    commands = {
        "point": ["point", "--trials", "50", "--threshold-m", "300",
                  "--seed", "5"],
        "sweep": ["sweep", "--values", "1..8", "--trials", "50", "--seed", "5"],
        "compare": ["compare", "--n-list", "1,3", "--slots", "20000",
                    "--seeds", "5"],
        "scenario": ["scenario", "--trials", "20", "--seed", "5"],
    }
    for name, argv in commands.items():
        digests = []
        for attempt in ("first", "second"):
            out_dir = tmp_path / f"{name}-{attempt}"
            assert main(argv + ["--out", str(out_dir)]) == 0
            payload = b"".join(
                path.read_bytes() for path in sorted(out_dir.iterdir())
            )
            digests.append(hashlib.sha256(payload).hexdigest())
        assert digests[0] == digests[1], f"{name} output changed between runs"
    capsys.readouterr()
    _report(9, "every command is byte-identical on rerun", started)


def test_c10_full_default_sweep_is_fast(tmp_path, capsys):
    started = time.perf_counter()
    assert main(["sweep", "--out", str(tmp_path)]) == 0
    elapsed = time.perf_counter() - started
    rows = Path(tmp_path, "sweep.csv").read_text().count("\n") - 1
    assert rows == 50 * 4  # n = 1..50, three thresholds plus benchmark
    assert elapsed < 10.0
    capsys.readouterr()
    _report(10, f"default sweep (200 rows) finished in {elapsed:.2f}s", started)
