"""Danger-aware V2X MAC analysis toolkit.

A busy-probability-aware DCF backoff chain solved to a fixed point, the
derived performance metrics (delivery ratio, throughput, delay), a
danger-distance transmit filter over randomly placed vehicles, and a
slot-level simulator that cross-checks the analytic chain.
"""

from .config import (
    ConfigError,
    MacTimings,
    ScenarioConfig,
    load_config,
)
from .markov import (
    ChainGeometry,
    FixedPointSolution,
    solve_fixed_point,
)
from .metrics import (
    AccessProbabilities,
    DelayBreakdown,
    DelayStates,
    access_probabilities,
    delay_state_probabilities,
    frame_times,
    pdr,
    throughput,
    total_delay,
)
from .pipeline import (
    PerfReport,
    evaluate_point,
    evaluate_points,
    geometry_from,
    metric_column,
    metric_value,
    simulate_points,
)
from .scenario import (
    apply_threshold,
    assess_danger,
    expected_n_eff,
    n_eff_samples,
    place_vehicles,
    trial_rng,
)
from .slotsim import SimStats, run

__version__ = "0.17.0"

__all__ = [
    "AccessProbabilities", "ChainGeometry", "ConfigError", "DelayBreakdown",
    "DelayStates", "FixedPointSolution", "MacTimings",
    "PerfReport", "ScenarioConfig", "SimStats", "access_probabilities",
    "apply_threshold", "assess_danger",
    "delay_state_probabilities", "evaluate_point", "evaluate_points",
    "expected_n_eff", "frame_times", "geometry_from", "load_config",
    "metric_column", "metric_value", "n_eff_samples", "pdr", "place_vehicles", "run",
    "simulate_points", "solve_fixed_point", "throughput", "total_delay", "trial_rng",
]
