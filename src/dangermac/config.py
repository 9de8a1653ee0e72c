"""MAC/PHY timing and road-scenario configuration.

All durations are microseconds, all road lengths are meters, and the data
rate is Mb/s (equivalently bits per microsecond). Configs are
NamedTuples: ``_replace`` copies one with fields changed, ``_asdict``
reads it as a dict and ``_fields`` names its fields.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, get_type_hints

MODEL_MODES = ("busy_aware", "classic")
DANGER_METRICS = ("min_gap", "front_gap_only")
# the allowed values of each string key
CHOICES = {"model_mode": MODEL_MODES, "danger_metric": DANGER_METRICS}


class ConfigError(ValueError):
    """Raised for unparseable input, unknown keys, or out-of-range values."""


class MacTimings(NamedTuple):
    """Channel access timing parameters and frame sizes.

    ``cw_min`` is the minimum contention window; a station at backoff
    stage 0 draws its counter uniformly from ``0..cw_min``, so the stage-0
    window holds ``cw_min + 1`` counter values. ``max_stage`` is the number
    of window doublings after which the window stops growing.
    """

    difs_us: float = 64.0
    sifs_us: float = 32.0
    slot_us: float = 13.0
    prop_delay_us: float = 1.0
    payload_bytes: int = 1023
    data_rate_mbps: float = 6.0
    header_bytes: int = 50
    ack_us: float = 44.0
    rts_us: float = 0.0
    cts_us: float = 0.0
    cw_min: int = 7
    max_stage: int = 5

    @property
    def w0(self) -> int:
        """Stage-0 window size in slots (number of counter values)."""
        return self.cw_min + 1

    @property
    def payload_us(self) -> float:
        """Payload air time at the data rate."""
        return self.payload_bytes * 8.0 / self.data_rate_mbps

    @property
    def header_us(self) -> float:
        """Header air time at the data rate."""
        return self.header_bytes * 8.0 / self.data_rate_mbps


class ScenarioConfig(NamedTuple):
    """Road scenario and evaluation knobs.

    ``threshold_m`` is the danger-distance cutoff; ``None`` disables the
    transmit filter entirely (benchmark behaviour, every vehicle contends).
    ``trials`` sizes only the ``scenario`` command; ``point`` and ``sweep``
    use the exact expected contender count and sample no placements.
    ``rng_seed`` seeds ``scenario`` and is ``compare``'s default ``--seeds``.
    """

    n_vehicles: int = 50
    road_length_m: float = 1000.0
    threshold_m: float | None = None
    trials: int = 1000
    rng_seed: int = 1
    model_mode: str = "busy_aware"
    danger_metric: str = "min_gap"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def validate_timings(t: MacTimings) -> None:
    _require(t.difs_us > 0, f"difs_us must be > 0 (got {t.difs_us})")
    _require(t.sifs_us > 0, f"sifs_us must be > 0 (got {t.sifs_us})")
    _require(t.slot_us > 0, f"slot_us must be > 0 (got {t.slot_us})")
    _require(t.prop_delay_us >= 0, f"prop_delay_us must be >= 0 (got {t.prop_delay_us})")
    _require(t.payload_bytes >= 1, f"payload_bytes must be >= 1 (got {t.payload_bytes})")
    _require(t.data_rate_mbps > 0, f"data_rate_mbps must be > 0 (got {t.data_rate_mbps})")
    _require(t.header_bytes >= 0, f"header_bytes must be >= 0 (got {t.header_bytes})")
    _require(t.ack_us >= 0, f"ack_us must be >= 0 (got {t.ack_us})")
    _require(t.rts_us >= 0, f"rts_us must be >= 0 (got {t.rts_us})")
    _require(t.cts_us >= 0, f"cts_us must be >= 0 (got {t.cts_us})")
    _require(t.cw_min >= 1, f"cw_min must be >= 1 (got {t.cw_min})")
    _require(t.max_stage >= 0, f"max_stage must be >= 0 (got {t.max_stage})")
    # testing max_stage first keeps a huge exponent from building a huge int
    _require(
        t.max_stage <= 32 and t.w0 << t.max_stage <= 2**32,
        f"the largest window (cw_min + 1) * 2**max_stage must be <= 2**32 "
        f"(got cw_min {t.cw_min}, max_stage {t.max_stage})",
    )
    # Each frame and exchange duration the metrics use sums some of these
    # non-negative terms, so a finite total keeps them all finite.
    try:
        frames_us = t.payload_us + t.header_us
    except OverflowError:  # a byte count too large for a float
        frames_us = math.inf
    _require(
        math.isfinite(frames_us + t.rts_us + t.cts_us + 3.0 * t.sifs_us + t.ack_us
                      + t.difs_us + 2.0 * t.prop_delay_us),
        "the air times derived from payload_bytes, header_bytes, data_rate_mbps, "
        "rts_us, cts_us, sifs_us, ack_us, difs_us and prop_delay_us must be finite",
    )


def validate_scenario(s: ScenarioConfig) -> None:
    _require(s.n_vehicles >= 1, f"n_vehicles must be >= 1 (got {s.n_vehicles})")
    _require(s.n_vehicles <= sys.float_info.max,
             f"n_vehicles must fit in a float (at most {sys.float_info.max:.4g})")
    _require(s.road_length_m > 0, f"road_length_m must be > 0 (got {s.road_length_m})")
    if s.threshold_m is not None:
        _require(s.threshold_m >= 0, f"threshold_m must be >= 0 (got {s.threshold_m})")
    _require(s.trials >= 1, f"trials must be >= 1 (got {s.trials})")
    _require(s.rng_seed >= 0, f"rng_seed must be >= 0 (got {s.rng_seed})")
    for key, choices in CHOICES.items():
        value = getattr(s, key)
        _require(value in choices, f"{key} must be one of {choices} (got {value!r})")


# the kind of each key is its field's type: int, float, str or float | None
_KINDS = get_type_hints(MacTimings) | get_type_hints(ScenarioConfig)


def _coerce(key: str, value):
    kind = _KINDS[key]
    if value is None:
        if kind == float | None:
            return None
        raise ConfigError(f"{key} must not be null")
    if isinstance(value, bool):
        raise ConfigError(f"{key} must be a number or string, not a boolean")
    if kind is int:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{key} must be an integer (got {value})")
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be an integer (got {value!r})") from None
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string (got {value!r})")
        return value
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number (got {value!r})") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite (got {value!r})")
    return number


def load_config(
    text: str | None = None,
    overrides: dict | None = None,
) -> tuple[MacTimings, ScenarioConfig]:
    """Build validated configs from JSON text plus explicit overrides.

    The JSON document is a single flat object whose keys are exactly the
    field names of :class:`MacTimings` and :class:`ScenarioConfig`; omitted
    keys take the defaults. Unknown keys are rejected. ``overrides`` (for
    example parsed CLI flags) are applied on top of the JSON values.
    """
    merged: dict = {}
    if text is not None and text.strip():
        import json  # here, so that a run without a config file never loads it

        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config JSON must be a flat object")
        merged.update(doc)
    if overrides:
        merged.update(overrides)

    timing_kwargs: dict = {}
    scenario_kwargs: dict = {}
    for key, value in merged.items():
        if key in MacTimings._fields:
            timing_kwargs[key] = _coerce(key, value)
        elif key in ScenarioConfig._fields:
            scenario_kwargs[key] = _coerce(key, value)
        else:
            raise ConfigError(f"unknown config key: {key!r}")

    timings = MacTimings(**timing_kwargs)
    scenario = ScenarioConfig(**scenario_kwargs)
    validate_timings(timings)
    validate_scenario(scenario)
    return timings, scenario


def config_to_dict(timings: MacTimings, scenario: ScenarioConfig) -> dict:
    """Flatten both configs into one JSON-serializable dict (round-trips)."""
    return timings._asdict() | scenario._asdict()
