"""Danger-aware V2X MAC analysis toolkit.

A busy-probability-aware DCF backoff chain solved to a fixed point, the
derived performance metrics (delivery ratio, throughput, delay), a
danger-distance transmit filter over randomly placed vehicles, and a
slot-level simulator that cross-checks the analytic chain.
"""

from .config import (
    ConfigError,
    FrameDurations,
    MacTimings,
    ScenarioConfig,
    config_to_dict,
    derive_durations,
    load_config,
)
from .markov import (
    ChainGeometry,
    ChainInputs,
    ConvergenceError,
    FixedPointSolution,
    StationaryDistribution,
    build_transition_matrix,
    oracle_stationary,
    solve_fixed_point,
    stationary_distribution,
    tau_from_distribution,
)
from .metrics import (
    AccessProbabilities,
    DelayBreakdown,
    DelayStates,
    ThroughputReport,
    access_probabilities,
    delay_state_probabilities,
    frame_times,
    pdr,
    throughput,
    total_delay,
)
from .pipeline import PerfReport, evaluate_point, geometry_from, metric_value
from .scenario import (
    FilterOutcome,
    apply_threshold,
    assess_danger,
    expected_n_eff,
    n_eff_samples,
    place_vehicles,
    trial_rng,
)
from .slotsim import SimStats, SlotOutcome, StationState, init_stations, run, step_slot

__version__ = "0.1.0"

__all__ = [
    "AccessProbabilities", "ChainGeometry", "ChainInputs", "ConfigError",
    "ConvergenceError", "DelayBreakdown", "DelayStates", "FilterOutcome",
    "FixedPointSolution", "FrameDurations", "MacTimings", "PerfReport",
    "ScenarioConfig", "SimStats", "SlotOutcome", "StationState",
    "StationaryDistribution", "ThroughputReport", "access_probabilities",
    "apply_threshold", "assess_danger", "build_transition_matrix",
    "config_to_dict", "delay_state_probabilities",
    "derive_durations", "evaluate_point", "expected_n_eff", "frame_times",
    "geometry_from", "init_stations", "load_config", "metric_value",
    "n_eff_samples", "oracle_stationary", "pdr", "place_vehicles", "run",
    "solve_fixed_point", "stationary_distribution",
    "step_slot", "tau_from_distribution", "throughput", "total_delay",
    "trial_rng",
]
