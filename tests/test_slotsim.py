import math
import random
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dangermac import slotsim
from dangermac.config import MacTimings
from dangermac.markov import ChainGeometry, solve_fixed_point
from dangermac.metrics import access_probabilities, frame_times
from dangermac.pipeline import geometry_from, simulate_points
from dangermac.slotsim import SimStats, run

G = ChainGeometry(5, 8)
TIMINGS = MacTimings()  # its geometry is G


def _measured(n: int, slots: int, seed: int) -> tuple[float, float, float]:
    """``simulate_points``' measured (tau, p_su, throughput) of one run over G."""
    [measured] = simulate_points(TIMINGS, [n], slots, seed)
    return measured


def test_default_timings_have_geometry_g():
    assert geometry_from(TIMINGS) == G


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


def _reference_run(n: int, slots: int, g: ChainGeometry, seed: int) -> SimStats:
    # same counts gathered the slow way, one step_slot call per slot
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
    return SimStats(slots=slots, tx_slots=tx, success_slots=succ, attempts=attempts,
                    tagged_pair_slots=tagged_pairs)


def test_sim_stats_are_integer_counts():
    stats = run(7, 2000, G, 3)
    assert all(kind is int for kind in get_type_hints(SimStats).values())
    assert all(type(count) is int for count in stats)


def test_run_matches_slot_by_slot_reference():
    # the tiny windows make most slots collide and pin stations at the top stage
    cases = [(G, 1, 0), (G, 3, 1), (G, 8, 2), (ChainGeometry(2, 2), 8, 3)]
    # either side of each power of two, where the key's index field widens
    cases += [(G, n, 4 + i) for i, n in enumerate((2, 4, 7, 9, 16, 17))]
    # a window that never grows, and a wide one with ten stages
    cases += [(ChainGeometry(0, 2), 5, 10), (ChainGeometry(10, 8), 9, 11)]
    for g, n, seed in cases:
        fast = run(n, 5000, g, seed)
        slow = _reference_run(n, 5000, g, seed)
        assert fast == slow


def _renewal_throughput(stats: SimStats, timings: MacTimings) -> float:
    # the count-based renewal form: payload air time over the channel time
    # of the counted idle, success and collision slots
    t_s, t_c = frame_times(timings)
    idle_slots = stats.slots - stats.tx_slots
    collision_slots = stats.tx_slots - stats.success_slots
    total = (idle_slots * timings.slot_us + stats.success_slots * t_s
             + collision_slots * t_c)
    return stats.success_slots * timings.payload_us / total


@pytest.mark.parametrize("timings", [
    MacTimings(), MacTimings(cw_min=31, max_stage=7, payload_bytes=100),
], ids=["default", "cw31-stage7-100B"])
def test_measured_throughput_matches_renewal_form(timings):
    # the simulator's throughput is metrics.throughput at its measured
    # access, p_tr = tx_slots / slots and p_su = success_slots / tx_slots
    g = ChainGeometry(timings.max_stage, timings.w0)
    silent = 0
    for n in (1, 2, 5, 50):
        for slots in (1, 7, 5000):
            for seed in range(4):
                stats = run(n, slots, g, seed)
                [(_, _, s)] = simulate_points(timings, [n], slots, seed)
                reference = _renewal_throughput(stats, timings)
                if stats.tx_slots == 0:
                    assert s == reference == 0.0
                    silent += 1
                else:
                    assert abs(s - reference) <= 1e-14 * reference, (n, slots, seed)
    assert silent > 0  # a one-slot run can be idle


@pytest.mark.parametrize("n, tx, success, collision, tagged_pairs, attempts", [
    (5, 22116, 17361, 4755, 1763, 27482),
    (50, 36606, 18117, 18489, 476, 64092),
])
def test_benchmark_stream_is_pinned(n, tx, success, collision, tagged_pairs, attempts):
    # compare_sim's simulator runs; the small-n replay above cannot see a
    # change to the stream at n = 50, these counts can
    slots = 50_000
    stats = run(n, slots, G, 1)
    assert (stats.tx_slots, stats.success_slots, stats.tx_slots - stats.success_slots) == (
        tx, success, collision)
    assert stats.tagged_pair_slots == tagged_pairs
    assert stats.attempts == attempts


def test_run_deterministic():
    assert run(10, 20_000, G, 77) == run(10, 20_000, G, 77)
    assert run(10, 20_000, G, 77) != run(10, 20_000, G, 78)


def test_run_slot_conservation():
    # every counted slot is idle, a success or a collision of two or more
    stats = run(12, 30_000, G, 9)
    collision_slots = stats.tx_slots - stats.success_slots
    assert 0 <= stats.success_slots <= stats.tx_slots <= stats.slots
    assert stats.attempts >= stats.success_slots + 2 * collision_slots


def test_run_single_station():
    stats = run(1, 50_000, G, 3)
    assert stats.tx_slots == stats.success_slots
    tau, p_su, _ = _measured(1, 50_000, 3)
    assert p_su == 1.0
    assert tau == pytest.approx(2 / 9, rel=0.05)


def test_contention_lowers_transmission_rate():
    [(tau_50, _, _), (tau_10, _, _)] = simulate_points(TIMINGS, [50, 10], 100_000, 6)
    assert tau_50 < tau_10


def test_matches_classic_fixed_point():
    tau, p_su_sim, _ = _measured(5, 200_000, 42)
    solution = solve_fixed_point(5, G, "classic")
    assert tau == pytest.approx(solution.tau, rel=0.05)
    p_su = access_probabilities(solution.tau, 5).p_su
    assert p_su_sim == pytest.approx(p_su, rel=0.05)


def test_dense_network_matches_classic_chain_and_throughput():
    tau, _, s = _measured(50, 400_000, 2024)
    solution = solve_fixed_point(50, G, "classic")
    assert tau == pytest.approx(solution.tau, rel=0.05)
    from dangermac.pipeline import evaluate_point
    report = evaluate_point(TIMINGS, 50.0, "classic")
    assert s == pytest.approx(report.throughput, rel=0.10)


def test_success_ratio_matches_product_form_at_observed_rate():
    # the analytic success probability assumes independent per-slot attempts;
    # feeding it the simulator's own attempt rate checks that approximation
    tau, p_su, _ = _measured(50, 400_000, 2024)
    ap = access_probabilities(tau, 50)
    assert ap.p_su == pytest.approx(p_su, rel=0.05)


def test_tagged_pairwise_collision_frequency():
    stats = run(10, 400_000, G, 99)
    from dangermac.metrics import delay_state_probabilities
    states = delay_state_probabilities(stats.attempts / (10 * stats.slots), 10)
    assert states.p_col == pytest.approx(stats.tagged_pair_slots / stats.slots, rel=0.10)


def test_fewer_contenders_succeed_more_often():
    for seed in (1, 2, 3):
        [(_, thinned, _), (_, full, _)] = simulate_points(TIMINGS, [10, 20], 50_000, seed)
        assert thinned >= full


def test_invalid_arguments():
    with pytest.raises(ValueError, match="slots must be >= 1"):
        run(5, 0, G, 1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        run(0, 100, G, 1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        run(5, 100, G, -1)


_LARGEST_UNIFORM = math.nextafter(1.0, 0.0)

# 2, 3, 3 * 2**30 and each power of two up to 2**32 with its neighbours:
# the largest uniform times the window rounds to below it, so run needs
# no clamp
_BOUNDARY_WINDOWS = sorted({2, 3, 3 * 2**30} | {
    2**k + d for k in range(2, 33) for d in (-1, 0, 1)} - {2**32 + 1})


@pytest.mark.parametrize("window", _BOUNDARY_WINDOWS)
def test_counter_stays_below_window_at_largest_uniform(window):
    assert int(_LARGEST_UNIFORM * window) == window - 1
    assert math.floor(_LARGEST_UNIFORM * float(window)) == window - 1


# every window the config accepts: w0 >= 2 and w0 * 2**stage <= 2**32
_CONFIG_WINDOWS = st.integers(0, 31).flatmap(
    lambda stage: st.integers(2, 2**32 >> stage).map(lambda w0: w0 << stage))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_CONFIG_WINDOWS)
def test_counter_stays_below_every_config_window(window):
    # the float product is monotone in the uniform, so the largest uniform
    # bounds every draw
    assert math.floor(_LARGEST_UNIFORM * float(window)) == window - 1


class _FixedUniforms:
    """Stands in for ``random.Random``: ``random`` hands out ``values`` in
    order, then ``fill``, and counts its calls in ``calls``."""

    def __init__(self, values, fill):
        self.values = list(values)
        self.fill = fill
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.values.pop(0) if self.values else self.fill


def _run_with_uniforms(monkeypatch, values, fill, n, slots, g):
    fake = _FixedUniforms(values, fill)
    monkeypatch.setattr(slotsim, "Random", lambda seed: fake)
    return run(n, slots, g, 0)


@pytest.mark.parametrize("g, n", [(G, 1), (G, 2), (G, 5), (G, 50), (ChainGeometry(2, 2), 8)],
                         ids=["n1", "n2", "n5", "n50", "n8-tiny-windows"])
def test_one_draw_per_station_and_attempt(monkeypatch, g, n):
    # below 100 slots there is no warm-up: one draw per station to start,
    # then one per attempt
    rng = random.Random(n)
    fake = _FixedUniforms([rng.random() for _ in range(100 * n)], 0.5)
    monkeypatch.setattr(slotsim, "Random", lambda seed: fake)
    stats = run(n, 99, g, 0)
    assert stats.success_slots > 0
    assert n == 1 or stats.tx_slots > stats.success_slots  # some collide
    assert fake.calls == n + stats.attempts


def test_largest_uniform_draws_top_counter(monkeypatch):
    # Every counter is window - 1: two stations at w0 = 2 both draw 1 and
    # collide every other slot, in slots 1, 3, 5, 7, 9.
    stats = _run_with_uniforms(monkeypatch, [], float(np.nextafter(1.0, 0.0)),
                               2, 10, ChainGeometry(0, 2))
    assert (stats.tx_slots, stats.tx_slots - stats.success_slots) == (5, 5)
    assert stats.tagged_pair_slots == 5


def test_tagged_pair_counted_when_station_zero_is_listed_last(monkeypatch):
    # w0 = 8. Station 0 draws 2 and station 1 draws 0. Station 1 succeeds
    # in slot 0 and draws 4; station 0 succeeds in slot 2 and draws 2. Both
    # are then due in slot 5, station 1 booked first; the heap keys sort by
    # index within a slot, so station 0 still comes out first.
    stats = _run_with_uniforms(monkeypatch, [0.3, 0.0, 0.6, 0.3], 0.99,
                               2, 6, ChainGeometry(3, 8))
    assert (stats.tx_slots, stats.success_slots, stats.tx_slots - stats.success_slots) == (
        3, 2, 1)
    assert stats.tagged_pair_slots == 1
