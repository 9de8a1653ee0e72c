import random
from dataclasses import dataclass

import numpy as np
import pytest

from dangermac import slotsim
from dangermac.config import MacTimings
from dangermac.markov import ChainGeometry, solve_fixed_point
from dangermac.metrics import access_probabilities
from dangermac.slotsim import SimStats, run

G = ChainGeometry(5, 8)


# Slot-by-slot reference model: the oracle that ``run``'s one-heap calendar
# must replay exactly. It draws one scalar uniform per counter, floored by
# the window, in station-index order, which is the order ``run`` reads
# its ``random.Random(seed)`` stream in. Any generator with a scalar
# ``random()`` method serves.

Uniforms = random.Random | np.random.Generator


@dataclass
class StationState:
    stage: int
    counter: int


@dataclass(frozen=True)
class SlotOutcome:
    transmitters: tuple[int, ...]
    success: bool
    collision: bool


def _counter(rng: Uniforms, window: int) -> int:
    return min(int(rng.random() * window), window - 1)


def init_stations(n: int, g: ChainGeometry, rng: Uniforms) -> list[StationState]:
    """Fresh stations at stage 0 with uniform counters over the base window."""
    return [StationState(stage=0, counter=_counter(rng, g.w0)) for _ in range(n)]


def step_slot(
    stations: list[StationState],
    g: ChainGeometry,
    rng: Uniforms,
) -> SlotOutcome:
    """Advance every station by one slot, mutating ``stations`` in place."""
    transmitters = tuple(j for j, s in enumerate(stations) if s.counter == 0)
    success = len(transmitters) == 1
    for s in stations:
        if s.counter > 0:
            s.counter -= 1
    for j in transmitters:
        s = stations[j]
        s.stage = 0 if success else min(s.stage + 1, g.max_stage)
        s.counter = _counter(rng, g.window(s.stage))
    return SlotOutcome(
        transmitters=transmitters,
        success=success,
        collision=len(transmitters) > 1,
    )


def test_init_stations_stage_zero_uniform_window():
    rng = np.random.default_rng(0)
    stations = init_stations(10, G, rng)
    assert all(s.stage == 0 for s in stations)
    assert all(0 <= s.counter < 8 for s in stations)


def test_init_stations_deterministic():
    a = [s.counter for s in init_stations(20, G, np.random.default_rng(5))]
    b = [s.counter for s in init_stations(20, G, np.random.default_rng(5))]
    assert a == b


def test_init_counters_uniform_chi_square():
    rng = np.random.default_rng(1234)
    counters = [s.counter for s in init_stations(100_000, G, rng)]
    observed = np.bincount(counters, minlength=8)
    expected = len(counters) / 8
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < 18.475  # 1% critical value, 7 degrees of freedom


def test_step_single_station_never_collides():
    rng = np.random.default_rng(2)
    stations = init_stations(1, G, rng)
    successes = 0
    for _ in range(2000):
        outcome = step_slot(stations, G, rng)
        assert not outcome.collision
        successes += outcome.success
        assert stations[0].stage == 0
    # one success per mean backoff of (w0 - 1) / 2 plus the attempt slot
    assert successes == pytest.approx(2000 / 4.5, rel=0.15)


def test_step_two_at_zero_collide_and_escalate():
    rng = np.random.default_rng(3)
    stations = [StationState(0, 0), StationState(0, 0), StationState(2, 4)]
    outcome = step_slot(stations, G, rng)
    assert outcome.collision and not outcome.success
    assert outcome.transmitters == (0, 1)
    assert stations[0].stage == 1 and stations[1].stage == 1
    assert stations[0].counter < 16 and stations[1].counter < 16
    # the bystander keeps counting down during the busy slot
    assert stations[2].counter == 3 and stations[2].stage == 2


def test_step_success_resets_stage():
    rng = np.random.default_rng(4)
    stations = [StationState(4, 0), StationState(1, 7)]
    outcome = step_slot(stations, G, rng)
    assert outcome.success
    assert stations[0].stage == 0
    assert stations[1].counter == 6


def test_stage_never_exceeds_cap():
    rng = np.random.default_rng(5)
    g = ChainGeometry(2, 2)  # tiny windows force frequent collisions
    stations = init_stations(8, g, rng)
    for _ in range(5000):
        step_slot(stations, g, rng)
        assert all(0 <= s.stage <= 2 for s in stations)
        assert all(0 <= s.counter < g.window(s.stage) for s in stations)


def _reference_run(n: int, slots: int, g: ChainGeometry, seed: int,
                   timings: MacTimings) -> SimStats:
    # same statistics gathered the slow way, one step_slot call per slot
    from dangermac.metrics import frame_times

    rng = random.Random(seed)
    stations = init_stations(n, g, rng)
    warmup = slots // 100
    attempts = tx = succ = tagged_pairs = 0
    for slot in range(warmup + slots):
        outcome = step_slot(stations, g, rng)
        if slot < warmup:
            continue
        if outcome.transmitters:
            attempts += len(outcome.transmitters)
            tx += 1
            succ += outcome.success
            if len(outcome.transmitters) == 2 and outcome.transmitters[0] == 0:
                tagged_pairs += 1
    coll = tx - succ
    idle = slots - tx
    t_s, t_c = frame_times(timings)
    total = idle * timings.slot_us + succ * t_s + coll * t_c
    return SimStats(
        slots=slots, tx_slots=tx, success_slots=succ, collision_slots=coll,
        idle_slots=idle, tau_hat=attempts / (n * slots),
        p_su_hat=succ / tx if tx else 1.0,
        p_col_tagged_hat=tagged_pairs / slots,
        payload_time_fraction=succ * timings.payload_us / total,
    )


def test_run_matches_slot_by_slot_reference():
    timings = MacTimings()
    # the tiny windows make most slots collide and pin stations at the top stage
    cases = [(G, 1, 0), (G, 3, 1), (G, 8, 2), (ChainGeometry(2, 2), 8, 3)]
    # either side of each power of two, where the key's index field widens
    cases += [(G, n, 4 + i) for i, n in enumerate((2, 4, 7, 9, 16, 17))]
    # a window that never grows, and a wide one with ten stages
    cases += [(ChainGeometry(0, 2), 5, 10), (ChainGeometry(10, 8), 9, 11)]
    for g, n, seed in cases:
        fast = run(n, 5000, g, seed, timings)
        slow = _reference_run(n, 5000, g, seed, timings)
        assert fast == slow


@pytest.mark.parametrize("n, tx, success, collision, tagged_pairs, attempts", [
    (5, 22116, 17361, 4755, 1763, 27482),
    (50, 36606, 18117, 18489, 476, 64092),
])
def test_benchmark_stream_is_pinned(n, tx, success, collision, tagged_pairs, attempts):
    # compare_sim's simulator runs; the small-n replay above cannot see a
    # change to the stream at n = 50, these counts can
    slots = 50_000
    stats = run(n, slots, G, 1)
    assert (stats.tx_slots, stats.success_slots, stats.collision_slots) == (
        tx, success, collision)
    assert round(stats.p_col_tagged_hat * slots) == tagged_pairs
    assert round(stats.tau_hat * n * slots) == attempts


def test_run_deterministic():
    assert run(10, 20_000, G, 77) == run(10, 20_000, G, 77)
    assert run(10, 20_000, G, 77) != run(10, 20_000, G, 78)


def test_run_slot_conservation():
    stats = run(12, 30_000, G, 9)
    assert stats.tx_slots == stats.success_slots + stats.collision_slots
    assert stats.idle_slots + stats.tx_slots == stats.slots


def test_run_single_station():
    stats = run(1, 50_000, G, 3)
    assert stats.collision_slots == 0
    assert stats.p_su_hat == 1.0
    assert stats.tau_hat == pytest.approx(2 / 9, rel=0.05)


def test_contention_lowers_transmission_rate():
    assert run(50, 100_000, G, 6).tau_hat < run(10, 100_000, G, 6).tau_hat


def test_matches_classic_fixed_point():
    stats = run(5, 200_000, G, 42)
    solution = solve_fixed_point(5, G, "classic")
    assert stats.tau_hat == pytest.approx(solution.tau, rel=0.05)
    p_su = access_probabilities(solution.tau, 5).p_su
    assert stats.p_su_hat == pytest.approx(p_su, rel=0.05)


def test_dense_network_matches_classic_chain_and_throughput():
    timings = MacTimings()
    stats = run(50, 400_000, G, 2024, timings)
    solution = solve_fixed_point(50, G, "classic")
    assert stats.tau_hat == pytest.approx(solution.tau, rel=0.05)
    from dangermac.pipeline import evaluate_point
    report = evaluate_point(timings, 50.0, "classic")
    assert stats.payload_time_fraction == pytest.approx(report.throughput, rel=0.10)


def test_success_ratio_matches_product_form_at_observed_rate():
    # the analytic success probability assumes independent per-slot attempts;
    # feeding it the simulator's own attempt rate checks that approximation
    stats = run(50, 400_000, G, 2024)
    ap = access_probabilities(stats.tau_hat, 50)
    assert ap.p_su == pytest.approx(stats.p_su_hat, rel=0.05)


def test_tagged_pairwise_collision_frequency():
    stats = run(10, 400_000, G, 99)
    from dangermac.metrics import delay_state_probabilities
    states = delay_state_probabilities(stats.tau_hat, 10)
    assert states.p_col == pytest.approx(stats.p_col_tagged_hat, rel=0.10)


def test_fewer_contenders_succeed_more_often():
    for seed in (1, 2, 3):
        thinned = run(10, 50_000, G, seed)
        full = run(20, 50_000, G, seed)
        assert thinned.p_su_hat >= full.p_su_hat


def test_invalid_arguments():
    with pytest.raises(ValueError, match="slots must be >= 1"):
        run(5, 0, G, 1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        run(0, 100, G, 1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        run(5, 100, G, -1)


@pytest.mark.parametrize("window", [2**32, 2**32 - 1, 3 * 2**30, 2**31 + 1])
def test_counter_stays_below_window_at_largest_uniform(window):
    u = float(np.nextafter(1.0, 0.0))
    assert int(u * window) == window - 1


class _FixedUniforms:
    """Stands in for ``random.Random``: ``random`` hands out ``values`` in
    order, then ``fill``."""

    def __init__(self, values, fill):
        self.values = list(values)
        self.fill = fill

    def random(self):
        return self.values.pop(0) if self.values else self.fill


def _run_with_uniforms(monkeypatch, values, fill, n, slots, g):
    fake = _FixedUniforms(values, fill)
    monkeypatch.setattr(slotsim, "Random", lambda seed: fake)
    return run(n, slots, g, 0)


def test_largest_uniform_draws_top_counter(monkeypatch):
    # Every counter is window - 1: two stations at w0 = 2 both draw 1 and
    # collide every other slot, in slots 1, 3, 5, 7, 9.
    stats = _run_with_uniforms(monkeypatch, [], float(np.nextafter(1.0, 0.0)),
                               2, 10, ChainGeometry(0, 2))
    assert (stats.tx_slots, stats.collision_slots) == (5, 5)
    assert stats.p_col_tagged_hat == 5 / 10


def test_tagged_pair_counted_when_station_zero_is_listed_last(monkeypatch):
    # w0 = 8. Station 0 draws 2 and station 1 draws 0. Station 1 succeeds
    # in slot 0 and draws 4; station 0 succeeds in slot 2 and draws 2. Both
    # are then due in slot 5, station 1 booked first; the heap keys sort by
    # index within a slot, so station 0 still comes out first.
    stats = _run_with_uniforms(monkeypatch, [0.3, 0.0, 0.6, 0.3], 0.99,
                               2, 6, ChainGeometry(3, 8))
    assert (stats.tx_slots, stats.success_slots, stats.collision_slots) == (3, 2, 1)
    assert stats.p_col_tagged_hat == 1 / 6
