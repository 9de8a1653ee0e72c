"""Slot-level Monte Carlo simulation of n saturated backoff stations.

Time advances in logical channel slots: a slot is idle, a success (exactly
one station at counter zero), or a collision. Every station's counter
ticks once per slot, so a busy slot costs bystanders one countdown step;
real durations (slot time vs. success vs. collision) enter only when slot
counts are converted to air-time fractions. This keeps the simulator on
the same slot axis as the analytic chain, making it a like-for-like
empirical check on tau, the success probability, and throughput.

A successful station redraws at stage 0; every station involved in a
collision advances one stage (capped at the top) and redraws over its new
window. ``run`` is deterministic given its seed.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from random import Random

from .config import MacTimings
from .markov import ChainGeometry
from .metrics import frame_times


@dataclass(frozen=True)
class SimStats:
    slots: int
    tx_slots: int
    success_slots: int
    collision_slots: int
    idle_slots: int
    tau_hat: float               # attempts per station-slot
    p_su_hat: float              # successes per transmission slot
    p_col_tagged_hat: float      # station 0 colliding with exactly one other, per slot
    payload_time_fraction: float


def run(
    n: int,
    slots: int,
    g: ChainGeometry,
    seed: int,
    timings: MacTimings | None = None,
) -> SimStats:
    """Simulate ``slots`` slots after discarding a 1% warm-up stretch.

    Implemented event to event over a calendar queue: with every counter
    ticking each slot, a station drawing counter c in slot t transmits
    next in slot t + 1 + c. A heap holds the distinct future transmission
    slots and a dict maps each to the stations due in it, so idle runs
    are skipped in one jump and no slot scans all n stations. A counter
    is ``floor(u * window)`` of the next ``Random(seed).random()``
    uniform; the stations start in index order and a slot's transmitters
    redraw in index order, which fixes the draw order a slot-by-slot
    replay must follow.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1 (got {n})")
    if n > sys.maxsize:  # the station list could not be built
        raise ValueError(f"n must be <= {sys.maxsize}")
    if slots < 1:
        raise ValueError(f"slots must be >= 1 (got {slots})")
    if seed < 0:  # Random(-s) would silently replay Random(s)
        raise ValueError(f"seed must be >= 0 (got {seed})")
    timings = timings or MacTimings()
    draw = Random(seed).random
    windows = [g.window(i) for i in range(g.max_stage + 1)]
    top = g.max_stage
    stages = [0] * n
    calendar: dict[int, list[int]] = {}
    heap: list[int] = []

    def schedule(j: int, start: int, window: int) -> None:
        # station j draws a counter and is due that many slots after start
        c = int(draw() * window)
        t = start + (c if c < window else window - 1)
        due = calendar.get(t)
        if due is None:
            calendar[t] = [j]
            heapq.heappush(heap, t)
        else:
            due.append(j)

    for j in range(n):
        schedule(j, 0, windows[0])

    warmup = slots // 100
    horizon = warmup + slots
    attempts = 0
    tx_slots = 0
    success_slots = 0
    tagged_pair_slots = 0

    # every station is always on the calendar, so the heap never empties
    while heap[0] < horizon:
        t = heapq.heappop(heap)
        due = calendar.pop(t)
        k = len(due)
        if k == 1:
            stages[due[0]] = 0
            schedule(due[0], t + 1, windows[0])
        else:
            due.sort()
            for j in due:
                stage = stages[j] = min(stages[j] + 1, top)
                schedule(j, t + 1, windows[stage])
        if t >= warmup:
            attempts += k
            tx_slots += 1
            if k == 1:
                success_slots += 1
            elif k == 2 and due[0] == 0:
                tagged_pair_slots += 1

    collision_slots = tx_slots - success_slots
    idle_slots = slots - tx_slots
    t_s, t_c = frame_times(timings)
    busy_time = success_slots * t_s + collision_slots * t_c
    total_time = idle_slots * timings.slot_us + busy_time
    return SimStats(
        slots=slots,
        tx_slots=tx_slots,
        success_slots=success_slots,
        collision_slots=collision_slots,
        idle_slots=idle_slots,
        tau_hat=attempts / (n * slots),
        p_su_hat=success_slots / tx_slots if tx_slots else 1.0,
        p_col_tagged_hat=tagged_pair_slots / slots,
        payload_time_fraction=success_slots * timings.payload_us / total_time,
    )
