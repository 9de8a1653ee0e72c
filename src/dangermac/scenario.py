"""Vehicle placement, danger distances, and the transmit-grant filter.

Vehicles are dropped uniformly at random on a one-lane linear road. Each
vehicle's danger distance is its gap to the nearest immediate neighbour
(smaller gap = higher crash risk); a vehicle is granted a transmission
opportunity only when that distance falls strictly below the threshold.
Trials draw their random stream from (seed, trial index), so results do
not depend on evaluation order. The mean granted count, which is all the
analytic chain consumes, has a closed form and needs no trials at all.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from random import Random


def trial_rng(seed: int, trial: int) -> Random:
    """Independent per-trial stream; order-insensitive across trials.

    The stream is seeded from the text ``"seed,trial"``, so every pair of
    integers, negative ones included, gets its own stream.
    """
    return Random(f"{seed},{trial}")


def place_vehicles(n: int, road_length_m: float, rng: Random) -> list[float]:
    """n independent uniform positions on [0, road_length], sorted ascending."""
    if n < 1:
        raise ValueError(f"n must be >= 1 (got {n})")
    if n > sys.maxsize:  # the position list could not be built
        raise ValueError(f"n must be <= {sys.maxsize}")
    if road_length_m <= 0:
        raise ValueError(f"road_length_m must be > 0 (got {road_length_m})")
    # the list is allocated whole, but its n floats are made one at a time,
    # so a placement too large for memory can fail only partway through
    positions = [0.0] * n
    draw = rng.random
    for i in range(n):
        positions[i] = draw() * road_length_m
    positions.sort()
    return positions


def assess_danger(positions: list[float], metric: str = "min_gap") -> list[float]:
    """Danger distance per vehicle from a sorted placement.

    ``min_gap``: minimum of the gaps to the preceding and subsequent
    vehicle; the two road-end vehicles only have one neighbour. A lone
    vehicle gets +inf (nothing nearby, never in danger).

    ``front_gap_only``: gap to the next vehicle up the road only; the last
    vehicle has no one ahead and gets +inf.
    """
    gaps = [b - a for a, b in zip(positions, positions[1:])]
    if metric == "front_gap_only":
        return gaps + [math.inf]
    if metric != "min_gap":
        raise ValueError(f"unknown danger metric: {metric!r}")
    # a road end is an infinite gap
    return [a if a < b else b for a, b in zip([math.inf, *gaps], [*gaps, math.inf])]


def apply_threshold(danger: list[float], thresholds: list[float]) -> list[int]:
    """Granted count per threshold: the vehicles strictly inside it.

    The distances are sorted once; each count is then the number of
    distances strictly below the threshold, found by bisection.
    """
    ordered = sorted(danger)
    counts = []
    for threshold_m in thresholds:
        if not threshold_m >= 0:  # also rejects NaN
            raise ValueError(f"threshold_m must be >= 0 (got {threshold_m})")
        counts.append(bisect_left(ordered, threshold_m))
    return counts


def n_eff_samples(
    n: int,
    road_length_m: float,
    thresholds: list[float],
    trials: int,
    seed: int,
    metric: str = "min_gap",
) -> list[list[int]]:
    """Granted-contender counts, one list of ``len(thresholds)`` per trial.

    All thresholds are evaluated on the same placement within a trial, so
    per-trial counts are exactly nondecreasing along increasing thresholds.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1 (got {trials})")
    if trials > sys.maxsize:  # the result list could not be built
        raise ValueError(f"trials must be <= {sys.maxsize}")
    # allocated whole, so too many trials for memory fail at once
    out = [None] * trials
    for trial in range(trials):
        positions = place_vehicles(n, road_length_m, trial_rng(seed, trial))
        out[trial] = apply_threshold(assess_danger(positions, metric), thresholds)
    return out


def expected_n_eff(
    n: int,
    road_length_m: float,
    thresholds: list[float],
    metric: str = "min_gap",
) -> list[float]:
    """Exact mean granted count per threshold, for uniform placements.

    The n + 1 spacings of n uniform points on [0, L] (the two road ends
    included) are exchangeably Dirichlet(1, ..., 1) distributed, so with
    a = d / L any one gap exceeds d with probability (1 - a)^n and any
    two both do with probability (1 - 2a)_+^n (David & Nagaraja, *Order
    Statistics*). A vehicle is granted when its danger distance is below
    d, which gives

    * ``min_gap``: E[N] = 2 (1 - (1 - a)_+^n) + (n - 2) (1 - (1 - 2a)_+^n),
      the two road-end vehicles having one neighbour each;
    * ``front_gap_only``: E[N] = (n - 1) (1 - (1 - a)_+^n);
    * a lone vehicle: 0.

    The inputs are those of ``n_eff_samples``, less the trials and the
    seed. The powers are taken of clipped bases, so d = 0 gives exactly 0
    and d >= L gives exactly n (n - 1 for ``front_gap_only``).
    """
    if not all(d >= 0 for d in thresholds):  # also rejects NaN
        raise ValueError("thresholds must all be >= 0")
    a = [d / road_length_m for d in thresholds]
    one_gap = [1.0 - max(1.0 - x, 0.0) ** n for x in a]
    if n == 1:
        return [0.0] * len(a)
    if metric == "front_gap_only":
        return [(n - 1) * g for g in one_gap]
    if metric == "min_gap":
        return [2.0 * g + (n - 2) * (1.0 - max(1.0 - 2.0 * x, 0.0) ** n)
                for g, x in zip(one_gap, a)]
    raise ValueError(f"unknown danger metric: {metric!r}")
