import heapq
import math
import random
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dangermac import slotsim
from dangermac.config import MacTimings
from dangermac.markov import ChainGeometry, solve_fixed_point
from dangermac.metrics import access_probabilities, frame_times
from dangermac.pipeline import PerfReport, geometry_from, simulate_points
from dangermac.slotsim import SimStats, run

G = ChainGeometry(5, 8)
TIMINGS = MacTimings()  # its geometry is G


def _measured(n: int, slots: int, seed: int) -> PerfReport:
    """``simulate_points``' measured report of one run over G."""
    [measured] = simulate_points(TIMINGS, [n], slots, seed)
    return measured


def test_default_timings_have_geometry_g():
    assert geometry_from(TIMINGS) == G


# Slot-by-slot reference model: the oracle that ``run``'s timing wheel
# must replay exactly. A counter over window w is getrandbits(k) with
# k = (w - 1).bit_length(), drawn again while it is w or more. Stations
# draw in station-index order, which is the order ``run`` reads its
# ``random.Random(seed)`` stream in.


@dataclass
class StationState:
    stage: int
    counter: int


@dataclass(frozen=True)
class SlotOutcome:
    transmitters: tuple[int, ...]
    success: bool
    collision: bool


def _counter(rng: random.Random, window: int) -> int:
    k = (window - 1).bit_length()
    while (counter := rng.getrandbits(k)) >= window:
        pass
    return counter


def init_stations(n: int, g: ChainGeometry, rng: random.Random) -> list[StationState]:
    """Fresh stations at stage 0 with uniform counters over the base window."""
    return [StationState(stage=0, counter=_counter(rng, g.w0)) for _ in range(n)]


def step_slot(
    stations: list[StationState],
    g: ChainGeometry,
    rng: random.Random,
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
    rng = random.Random(0)
    stations = init_stations(10, G, rng)
    assert all(s.stage == 0 for s in stations)
    assert all(0 <= s.counter < 8 for s in stations)


def test_init_stations_deterministic():
    a = [s.counter for s in init_stations(20, G, random.Random(5))]
    b = [s.counter for s in init_stations(20, G, random.Random(5))]
    assert a == b


def test_init_counters_uniform_chi_square():
    rng = random.Random(1234)
    counters = [s.counter for s in init_stations(100_000, G, rng)]
    observed = np.bincount(counters, minlength=8)
    expected = len(counters) / 8
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < 18.475  # 1% critical value, 7 degrees of freedom


def test_step_single_station_never_collides():
    rng = random.Random(2)
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
    rng = random.Random(3)
    stations = [StationState(0, 0), StationState(0, 0), StationState(2, 4)]
    outcome = step_slot(stations, G, rng)
    assert outcome.collision and not outcome.success
    assert outcome.transmitters == (0, 1)
    assert stations[0].stage == 1 and stations[1].stage == 1
    assert stations[0].counter < 16 and stations[1].counter < 16
    # the bystander keeps counting down during the busy slot
    assert stations[2].counter == 3 and stations[2].stage == 2


def test_step_success_resets_stage():
    rng = random.Random(4)
    stations = [StationState(4, 0), StationState(1, 7)]
    outcome = step_slot(stations, G, rng)
    assert outcome.success
    assert stations[0].stage == 0
    assert stations[1].counter == 6


def test_stage_never_exceeds_cap():
    rng = random.Random(5)
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


def _replayed_ratios(n: int, slots: int, g: ChainGeometry, seed: int) -> dict:
    """The exact ratios of a slot-by-slot replay, counted per station: its
    attempts, its collided attempts and the busy slots it sees (slots in
    which another station sends), each summed over the stations."""
    rng = random.Random(seed)
    stations = init_stations(n, g, rng)
    warmup = slots // 100
    attempts, collided, seen_busy = [0] * n, [0] * n, [0] * n
    idle = 0
    for slot in range(warmup + slots):
        outcome = step_slot(stations, g, rng)
        if slot < warmup:
            continue
        senders = outcome.transmitters
        idle += not senders
        for j in range(n):
            sends = j in senders
            attempts[j] += sends
            collided[j] += sends and outcome.collision
            seen_busy[j] += len(senders) > sends
    sent = sum(attempts)
    return {"tau": Fraction(sent, n * slots), "p_emp": Fraction(idle, slots),
            "p_tr": Fraction(slots - idle, slots),
            "p_col": Fraction(sum(collided), sent) if sent else Fraction(0),
            "p_bus": Fraction(sum(seen_busy), n * slots)}


@pytest.mark.parametrize("timings", [MacTimings(), MacTimings(cw_min=1, max_stage=2)],
                         ids=["default", "tiny-windows"])
def test_simulated_report_reads_the_replayed_ratios(timings):
    # simulate_points' probabilities are the run's exact per-station ratios
    g = geometry_from(timings)
    for n in (1, 2, 5, 9):
        for slots in (1, 7, 3000):
            for seed in (0, 1):
                [report] = simulate_points(timings, [n], slots, seed)
                for field, ratio in _replayed_ratios(n, slots, g, seed).items():
                    assert math.isclose(getattr(report, field), ratio, rel_tol=1e-12), (
                        field, n, slots, seed)


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
    # counters of 1,023 or more, which pass the wheel through its overflow
    # heap: six of this run's draws are, some at the start
    cases += [(ChainGeometry(1, 1500), 3, 12)]
    for g, n, seed in cases:
        fast = run(n, 5000, g, seed)
        slow = _reference_run(n, 5000, g, seed)
        assert fast == slow


def _heap_run(n: int, slots: int, g: ChainGeometry, seed: int) -> SimStats:
    """``run`` over a heap calendar: the fast reference ``run`` must equal.

    One binary heap holds one int key per station, ``(due slot << bits) |
    station``, so a slot's transmitters leave it in index order. The
    second-smallest key is a child of the root, so a success is seen by
    reading ``heap[1]`` and ``heap[2]``; two padding keys past the horizon
    keep both present for n = 1 and 2. Same draws in the same order as
    ``run``, at O(log n) per attempt.
    """
    rng = random.Random(seed)
    top = g.max_stage
    windows = [g.window(i) for i in range(top + 1)]
    w0 = windows[0]
    up = [min(i + 1, top) for i in range(top + 1)]
    stages = [0] * n
    bits = n.bit_length()
    mask = (1 << bits) - 1
    step = 1 << bits  # one slot later
    warmup = slots // 100
    horizon = warmup + slots
    heap = [horizon << bits] * 2
    for j in range(n):
        heap.append((_counter(rng, w0) << bits) | j)
    heapq.heapify(heap)
    replace = heapq.heapreplace
    for end in (warmup, horizon):
        success_slots = collision_slots = collided = tagged_pair_slots = 0
        limit = end << bits
        while (key := heap[0]) < limit:
            nxt = (key | mask) + 1  # keys below nxt are due in this slot
            if heap[1] >= nxt and heap[2] >= nxt:
                stages[key & mask] = 0
                replace(heap, key + step + (_counter(rng, w0) << bits))
                success_slots += 1
                continue
            first = key & mask
            before = collided
            while key < nxt:
                j = key & mask
                stages[j] = stage = up[stages[j]]
                replace(heap, key + step + (_counter(rng, windows[stage]) << bits))
                collided += 1
                key = heap[0]
            collision_slots += 1
            if first == 0 and collided - before == 2:
                tagged_pair_slots += 1
    return SimStats(slots, success_slots + collision_slots, success_slots,
                    success_slots + collided, tagged_pair_slots)


# the wheel's edges: a window either side of its 1,024 slots, and runs
# ending either side of the 100-slot warm-up and of a lap
_EDGE_W0 = st.sampled_from([1023, 1024, 1025])
_EDGE_SLOTS = st.sampled_from([99, 100, 101, 1023, 1024, 1025])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 300),
       w0=st.one_of(_EDGE_W0, st.integers(2, 3000)),
       max_stage=st.integers(0, 8),  # 3,000 * 2**8 is within the 2**32 window cap
       slots=st.one_of(_EDGE_SLOTS, st.integers(1, 30_000)),
       seed=st.integers(0, 2**64))
def test_run_matches_heap_reference(n, w0, max_stage, slots, seed):
    g = ChainGeometry(max_stage, w0)
    assert run(n, slots, g, seed) == _heap_run(n, slots, g, seed)


# sparse runs: 2**14- to 2**16-slot windows and one to three stations, so
# the ring is empty for most of the run and the run jumps from key to key;
# at 10**5 slots and more the warm-up ends inside the first counters' gap
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3),
       w0=st.integers(2**14, 2**16),
       max_stage=st.integers(0, 16),  # 2**16 * 2**16 is the 2**32 window cap
       slots=st.one_of(st.integers(1, 3000), st.integers(10**5, 2 * 10**6)),
       seed=st.integers(0, 2**64))
def test_sparse_run_matches_heap_reference(n, w0, max_stage, slots, seed):
    g = ChainGeometry(max_stage, w0)
    assert run(n, slots, g, seed) == _heap_run(n, slots, g, seed)


def test_widest_windows_run_in_bounded_memory():
    # 2**16- to 2**32-slot windows at 10**6 slots, where almost every
    # counter passes the wheel; a ring sized to the window, capped at the
    # run's slots, would hold 10**6 lists, 65 MB
    g = ChainGeometry(16, 65536)
    tracemalloc.start()
    try:
        stats = run(2, 10**6, g, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8_000_000
    assert stats == _heap_run(2, 10**6, g, 0)


@pytest.mark.parametrize("w0, seed, first", [(2**14, 53, [10_111, 13_978]),
                                              (2**20, 3, [249_523, 621_429])])
def test_warm_up_ends_inside_a_skipped_gap(w0, seed, first):
    # Two stations whose first counters are both past the 10,000-slot
    # warm-up, which ends 784 slots into a lap: the run jumps over the
    # empty laps before them, and the warm-up split must hold across the
    # jump. At w0 = 2**14 the first transmission comes 111 slots after the
    # warm-up, in the same lap; at 2**20 it comes hundreds of laps later.
    g = ChainGeometry(0, w0)
    rng = random.Random(seed)
    assert [rng.getrandbits(w0.bit_length() - 1) for _ in range(2)] == first
    assert run(2, 10**6, g, seed) == _heap_run(2, 10**6, g, seed)


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
                [measured] = simulate_points(timings, [n], slots, seed)
                s = measured.throughput
                reference = _renewal_throughput(stats, timings)
                if stats.tx_slots == 0:
                    assert s == reference == 0.0
                    silent += 1
                else:
                    assert abs(s - reference) <= 1e-14 * reference, (n, slots, seed)
    assert silent > 0  # a one-slot run can be idle


@pytest.mark.parametrize("n, tx, success, collision, tagged_pairs, attempts", [
    (5, 21949, 17197, 4752, 1769, 27251),
    (50, 36530, 18132, 18398, 459, 63931),
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


def test_slow_path_stream_is_pinned():
    # windows of 1,500 to 12,000 slots: not powers of two, so some counters
    # are drawn again, and above 1,023, so some wait in the overflow heap.
    # The pins above see only power-of-two windows below 1,023, where a
    # counter never leaves the one-comparison path.
    assert run(300, 20_000, ChainGeometry(3, 1500), 1) == SimStats(
        slots=20000, tx_slots=5002, success_slots=4292, attempts=5793, tagged_pair_slots=5)


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
    measured = _measured(1, 50_000, 3)
    assert measured.p_su == 1.0
    assert measured.tau == pytest.approx(2 / 9, rel=0.05)


@pytest.mark.parametrize("cw_min", [7, 10])
@pytest.mark.parametrize("n, slots", [(2, 10**6), (5, 10**6), (50, 10**5)])
def test_single_stage_attempt_rate_is_the_renewal_rate(cw_min, n, slots):
    # With one backoff stage a station's attempts are a renewal process of
    # gaps uniform on 1..W, whatever the other stations do, so tau is
    # 1/mu = 2/(W+1) with the renewal standard error sqrt(var/(mu^3 n slots)).
    w = cw_min + 1
    mu, var = (w + 1) / 2, (w * w - 1) / 12
    [measured] = simulate_points(MacTimings(cw_min=cw_min, max_stage=0), [n], slots, 0)
    z = (measured.tau - 1 / mu) / math.sqrt(var / (mu**3 * n * slots))
    assert abs(z) <= 4, z


def test_contention_lowers_transmission_rate():
    crowded, sparse = simulate_points(TIMINGS, [50, 10], 100_000, 6)
    assert crowded.tau < sparse.tau


def test_matches_classic_fixed_point():
    measured = _measured(5, 200_000, 42)
    solution = solve_fixed_point(5, G, "classic")
    assert measured.tau == pytest.approx(solution.tau, rel=0.05)
    p_su = access_probabilities(solution.tau, 5).p_su
    assert measured.p_su == pytest.approx(p_su, rel=0.05)


def test_dense_network_matches_classic_chain_and_throughput():
    measured = _measured(50, 400_000, 2024)
    solution = solve_fixed_point(50, G, "classic")
    assert measured.tau == pytest.approx(solution.tau, rel=0.05)
    from dangermac.pipeline import evaluate_point
    report = evaluate_point(TIMINGS, 50.0, "classic")
    assert measured.throughput == pytest.approx(report.throughput, rel=0.10)


def test_success_ratio_matches_product_form_at_observed_rate():
    # the analytic success probability assumes independent per-slot attempts;
    # feeding it the simulator's own attempt rate checks that approximation
    measured = _measured(50, 400_000, 2024)
    ap = access_probabilities(measured.tau, 50)
    assert ap.p_su == pytest.approx(measured.p_su, rel=0.05)


def test_tagged_pairwise_collision_frequency():
    stats = run(10, 400_000, G, 99)
    from dangermac.metrics import delay_state_probabilities
    states = delay_state_probabilities(stats.attempts / (10 * stats.slots), 10)
    assert states.p_col == pytest.approx(stats.tagged_pair_slots / stats.slots, rel=0.10)


def test_fewer_contenders_succeed_more_often():
    for seed in (1, 2, 3):
        thinned, full = simulate_points(TIMINGS, [10, 20], 50_000, seed)
        assert thinned.p_su >= full.p_su


def test_invalid_arguments():
    with pytest.raises(ValueError, match="slots must be >= 1"):
        run(5, 0, G, 1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        run(0, 100, G, 1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        run(5, 100, G, -1)


class _FakeBits:
    """Stands in for ``random.Random``: ``getrandbits(k)`` hands out
    ``values`` in order, then ``fill``, and counts its calls in ``calls``.
    Every value must fit in ``k`` bits, and ``k`` must be ``bits`` when
    given."""

    def __init__(self, values, fill, bits=None):
        self.values = iter(values)
        self.fill = fill
        self.bits = bits
        self.calls = 0

    def getrandbits(self, k):
        assert self.bits in (None, k)
        self.calls += 1
        value = next(self.values, self.fill)
        assert 0 <= value < 1 << k
        return value


def _run_with_bits(monkeypatch, fake, n, slots, g):
    monkeypatch.setattr(slotsim, "Random", lambda seed: fake)
    return run(n, slots, g, 0)


# 2, 3, 3 * 2**30 and each power of two up to 2**32 with its neighbours
_DRAW_WINDOWS = sorted({2, 3, 3 * 2**30} | {
    2**k + d for k in range(2, 33) for d in (-1, 0, 1)} - {2**32 + 1})


@pytest.mark.parametrize("window", [w for w in _DRAW_WINDOWS if w <= 2**12 + 1])
def test_first_counters_take_every_value_once(monkeypatch, window):
    # window stations draw their first counters from one pass over every
    # k-bit value in a shuffled order: the values below the window are the
    # counters, each once, and the rest are drawn again. Every slot up to
    # the window then holds one transmitter; each redraws window - 1 and
    # comes back one window later, so every counted slot is a success.
    k = (window - 1).bit_length()
    values = list(range(1 << k))
    random.Random(window).shuffle(values)
    fake = _FakeBits(values, window - 1, bits=k)
    stats = _run_with_bits(monkeypatch, fake, window, window, ChainGeometry(0, window))
    assert stats.success_slots == stats.tx_slots == stats.attempts == window
    assert fake.calls == (1 << k) + window + window // 100


@pytest.mark.parametrize("window", _DRAW_WINDOWS)
def test_counter_at_or_above_window_is_drawn_again(monkeypatch, window):
    # One station: 2**k - 1 and the window itself, where they fit in k
    # bits and are not below the window, are drawn again; the counter is
    # then window - 1, so the station sends once, in slot window - 1,
    # and its next counter is due past the run. 2**32 takes k = 32.
    k = (window - 1).bit_length()
    redrawn = sorted(v for v in {(1 << k) - 1, window} if window <= v < 1 << k)
    fake = _FakeBits([*redrawn, window - 1], window - 1, bits=k)
    stats = _run_with_bits(monkeypatch, fake, 1, window, ChainGeometry(0, window))
    assert (stats.tx_slots, stats.success_slots) == (1, 1)
    assert fake.calls == len(redrawn) + 2


class _CountingRandom(random.Random):
    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("g, n", [(G, 1), (G, 2), (G, 5), (G, 50), (ChainGeometry(2, 2), 8)],
                         ids=["n1", "n2", "n5", "n50", "n8-tiny-windows"])
def test_one_draw_per_station_and_attempt(monkeypatch, g, n):
    # below 100 slots there is no warm-up, and every window is a power of
    # two, so no value is drawn again: one draw per station to start, then
    # one per attempt
    fake = _CountingRandom(n)
    stats = _run_with_bits(monkeypatch, fake, n, 99, g)
    assert stats.success_slots > 0
    assert n == 1 or stats.tx_slots > stats.success_slots  # some collide
    assert fake.calls == n + stats.attempts


def test_counter_due_on_a_lap_start_waits_for_that_lap(monkeypatch):
    # One station at w0 = 2048 starts with counter 1024, due in slot 1024:
    # the first slot of the wheel's second lap, which shares slot 0's list.
    # Its next counter, 2027, is due past the 1,111-slot horizon.
    stats = _run_with_bits(monkeypatch, _FakeBits([1024], 2027), 1, 1100,
                           ChainGeometry(0, 2048))
    assert (stats.tx_slots, stats.success_slots) == (1, 1)


def test_tagged_pair_counted_when_station_zero_is_listed_last(monkeypatch):
    # w0 = 8. Station 0 draws 2 and station 1 draws 0. Station 1 succeeds
    # in slot 0 and draws 4; station 0 succeeds in slot 2 and draws 2. Both
    # are then due in slot 5, station 1 listed first; a slot's list is
    # sorted by index before its stations redraw, so station 0 still comes
    # out first.
    stats = _run_with_bits(monkeypatch, _FakeBits([2, 0, 4, 2], 7), 2, 6,
                           ChainGeometry(3, 8))
    assert (stats.tx_slots, stats.success_slots, stats.tx_slots - stats.success_slots) == (
        3, 2, 1)
    assert stats.tagged_pair_slots == 1


def test_collided_redraws_take_the_slow_paths(monkeypatch):
    # Windows 1,500 and 3,000: above 1,023 and not powers of two. Both
    # stations draw 150 and collide in slot 150. Station 0 redraws 4000,
    # at or above its window, and draws again: 600, due in slot 751.
    # Station 1 redraws 2000, which waits in the overflow heap for slot
    # 2151. In slot 751 station 0 draws 1800 at w0 and draws again. From
    # then on every draw is 1499, which waits in the heap and comes back
    # 1,500 slots later.
    g = ChainGeometry(1, 1500)
    values = [150, 150, 4000, 600, 2000, 1800]
    sends = [(150, [0, 1]), (751, [0]), (2151, [1]), (2251, [0]), (3651, [1]), (3751, [0])]
    for slot, _ in sends:
        for horizon in (slot, slot + 1):
            # the run whose warm-up and measured stretch end at horizon; its
            # warm-up, under 40 slots, ends before slot 150
            slots = next(s for s in range(horizon) if s + s // 100 == horizon)
            fake = _FakeBits(values, 1499)
            stats = _run_with_bits(monkeypatch, fake, 2, slots, g)
            sent = [stations for t, stations in sends if t < horizon]
            assert stats == SimStats(
                slots, len(sent), sum(len(s) == 1 for s in sent), sum(map(len, sent)),
                sum(s == [0, 1] for s in sent)), horizon
    assert fake.calls == 2 + 3 + 2 + 4  # the slot-3751 run: every draw above
