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
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig


@dataclass(frozen=True)
class FilterOutcome:
    grants: np.ndarray  # bool per vehicle
    n_eff: int


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent per-trial stream; order-insensitive across trials."""
    return np.random.default_rng([seed, trial])


def place_vehicles(n: int, road_length_m: float, rng: np.random.Generator) -> np.ndarray:
    """n independent uniform positions on [0, road_length], sorted ascending."""
    if n < 1:
        raise ValueError(f"n must be >= 1 (got {n})")
    if road_length_m <= 0:
        raise ValueError(f"road_length_m must be > 0 (got {road_length_m})")
    positions = rng.uniform(0.0, road_length_m, size=n)
    positions.sort()
    return positions


def assess_danger(positions: np.ndarray, metric: str = "min_gap") -> np.ndarray:
    """Danger distance per vehicle from a sorted placement.

    ``min_gap``: minimum of the gaps to the preceding and subsequent
    vehicle; the two road-end vehicles only have one neighbour. A lone
    vehicle gets +inf (nothing nearby, never in danger).

    ``front_gap_only``: gap to the next vehicle up the road only; the last
    vehicle has no one ahead and gets +inf.
    """
    n = len(positions)
    if n == 1:
        return np.array([math.inf])
    gaps = np.diff(positions)
    if metric == "front_gap_only":
        return np.append(gaps, math.inf)
    if metric != "min_gap":
        raise ValueError(f"unknown danger metric: {metric!r}")
    danger = np.empty(n)
    danger[0] = gaps[0]
    danger[-1] = gaps[-1]
    danger[1:-1] = np.minimum(gaps[:-1], gaps[1:])
    return danger


def apply_threshold(danger: np.ndarray, threshold_m: float) -> FilterOutcome:
    """Grant transmission to vehicles strictly inside the danger threshold."""
    if not threshold_m >= 0:  # also rejects NaN
        raise ValueError(f"threshold_m must be >= 0 (got {threshold_m})")
    grants = danger < threshold_m
    return FilterOutcome(grants=grants, n_eff=int(grants.sum()))


def n_eff_samples(
    n: int,
    road_length_m: float,
    thresholds: list[float],
    trials: int,
    seed: int,
    metric: str = "min_gap",
) -> np.ndarray:
    """Granted-contender counts, shape (trials, len(thresholds)).

    All thresholds are evaluated on the same placement within a trial, so
    per-trial counts are exactly nondecreasing along increasing thresholds.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1 (got {trials})")
    out = np.empty((trials, len(thresholds)), dtype=np.int64)
    for trial in range(trials):
        positions = place_vehicles(n, road_length_m, trial_rng(seed, trial))
        danger = assess_danger(positions, metric)
        for j, threshold in enumerate(thresholds):
            out[trial, j] = apply_threshold(danger, threshold).n_eff
    return out


def expected_n_eff(
    cfg: ScenarioConfig,
    thresholds: list[float] | None = None,
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

    ``thresholds`` defaults to the config's single threshold. The powers
    are taken of clipped bases, so d = 0 gives exactly 0 and d >= L gives
    exactly n (n - 1 for ``front_gap_only``) without numpy warnings.
    """
    if thresholds is None:
        if cfg.threshold_m is None:
            raise ValueError("no threshold configured and none given")
        thresholds = [cfg.threshold_m]
    d = np.asarray(thresholds, dtype=np.float64)
    if not (d >= 0).all():
        raise ValueError("thresholds must all be >= 0")
    n = cfg.n_vehicles
    a = d / cfg.road_length_m
    one_gap = 1.0 - np.maximum(1.0 - a, 0.0) ** n
    if n == 1:
        means = np.zeros_like(a)
    elif cfg.danger_metric == "front_gap_only":
        means = (n - 1) * one_gap
    elif cfg.danger_metric == "min_gap":
        two_gaps = 1.0 - np.maximum(1.0 - 2.0 * a, 0.0) ** n
        means = 2.0 * one_gap + (n - 2) * two_gaps
    else:
        raise ValueError(f"unknown danger metric: {cfg.danger_metric!r}")
    return [float(m) for m in means]
