import json
import math
from dataclasses import fields

import pytest

from dangermac.config import (
    ConfigError,
    MacTimings,
    ScenarioConfig,
    config_to_dict,
    load_config,
)


def test_defaults_match_reference_setup():
    t, s = load_config()
    assert t.difs_us == 64.0
    assert t.sifs_us == 32.0
    assert t.slot_us == 13.0
    assert t.prop_delay_us == 1.0
    assert t.payload_bytes == 1023
    assert t.cw_min == 7
    assert t.max_stage == 5
    assert t.data_rate_mbps == 6.0
    assert t.header_bytes == 50
    assert t.ack_us == 44.0
    assert t.rts_us == 0.0
    assert t.cts_us == 0.0
    assert s.n_vehicles == 50
    assert s.road_length_m == 1000.0
    assert s.threshold_m is None
    assert s.model_mode == "busy_aware"


def test_empty_text_gives_defaults():
    assert load_config("") == load_config()
    assert load_config("  \n") == load_config()


def test_json_keys_applied():
    t, s = load_config('{"n_vehicles": 50, "road_length_m": 1000, "cw_min": 15}')
    assert s.n_vehicles == 50
    assert s.road_length_m == 1000.0
    assert t.cw_min == 15
    assert t.w0 == 16


def test_overrides_beat_json():
    t, _ = load_config('{"cw_min": 15}', {"cw_min": 31})
    assert t.cw_min == 31


@pytest.mark.parametrize("payload,bound", [
    ('{"cw_min": 0}', "cw_min"),
    ('{"payload_bytes": 0}', "payload_bytes"),
    ('{"difs_us": 0}', "difs_us"),
    ('{"data_rate_mbps": -1}', "data_rate_mbps"),
    ('{"max_stage": -1}', "max_stage"),
    ('{"n_vehicles": 0}', "n_vehicles"),
    ('{"road_length_m": 0}', "road_length_m"),
    ('{"threshold_m": -5}', "threshold_m"),
    ('{"trials": 0}', "trials"),
    ('{"model_mode": "bogus"}', "model_mode"),
    ('{"throughput_mode": "bogus"}', "throughput_mode"),  # unknown since 0.8.0
])
def test_out_of_range_errors_name_the_field(payload, bound):
    with pytest.raises(ConfigError, match=bound):
        load_config(payload)


@pytest.mark.parametrize("key,value", [
    ("road_length_m", math.inf),
    ("difs_us", math.nan),
    ("threshold_m", -math.inf),
    ("n_vehicles", math.inf),
])
def test_non_finite_values_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        load_config(json.dumps({key: value}))  # JSON Infinity / NaN
    with pytest.raises(ConfigError, match=key):
        load_config(None, {key: value})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config('{"cwmin": 7}')
    # a key removed in 0.8.0 is unknown too
    with pytest.raises(ConfigError, match="unknown config key: 'throughput_mode'"):
        load_config('{"throughput_mode": "slot_scaled"}')


def test_non_object_json_rejected():
    with pytest.raises(ConfigError, match="flat object"):
        load_config("[1, 2]")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config("{nope")


def test_non_integer_count_rejected():
    with pytest.raises(ConfigError, match="payload_bytes"):
        load_config('{"payload_bytes": 10.5}')


def test_round_trip():
    t, s = load_config('{"cw_min": 15, "threshold_m": 300, "trials": 7}')
    text = json.dumps(config_to_dict(t, s))
    t2, s2 = load_config(text)
    assert (t2, s2) == (t, s)
    # the no-filter default survives a round trip too
    t3, s3 = load_config(json.dumps(config_to_dict(*load_config())))
    assert s3.threshold_m is None
    assert (t3, s3) == load_config()


_FIELDS = fields(MacTimings) + fields(ScenarioConfig)


@pytest.mark.parametrize("field", _FIELDS, ids=lambda field: field.name)
def test_string_value_parses_as_the_declared_type(field):
    # the CLI passes every value as a string; a key whose kind is read
    # wrongly comes back with another type, or is rejected
    value = 300.0 if field.default is None else field.default  # threshold_m
    got = config_to_dict(*load_config(None, {field.name: str(value)}))[field.name]
    assert got == value
    assert type(got) is type(value)


@pytest.mark.parametrize("field", _FIELDS, ids=lambda field: field.name)
def test_null_accepted_for_threshold_m_only(field):
    text = json.dumps({field.name: None})
    if field.name == "threshold_m":
        assert load_config(text) == load_config()
    else:
        with pytest.raises(ConfigError, match=f"{field.name} must not be null"):
            load_config(text)


def test_air_times_reference_values():
    t = MacTimings()
    assert t.payload_us == pytest.approx(1023 * 8 / 6, abs=1e-12)  # 1364 us
    assert t.payload_us == 1364.0
    assert t.slot_us == 13.0
    small = MacTimings(payload_bytes=6)
    assert small.payload_us == 8.0
    headerless = MacTimings(header_bytes=0)
    assert headerless.header_us == 0.0


def test_air_times_scale_linearly():
    base = MacTimings(payload_bytes=100).payload_us
    for factor in (2, 3, 7):
        scaled = MacTimings(payload_bytes=100 * factor).payload_us
        assert scaled == pytest.approx(base * factor, rel=1e-12)
    for rate in (2.0, 3.0, 12.0):
        at_rate = MacTimings(data_rate_mbps=rate).payload_us
        assert at_rate == pytest.approx(1023 * 8 / rate, rel=1e-12)


def test_w0_is_one_more_than_cw_min():
    assert MacTimings().w0 == 8
    assert MacTimings(cw_min=15).w0 == 16


def test_scenario_defaults_immutable():
    s = ScenarioConfig()
    with pytest.raises(Exception):
        s.n_vehicles = 10
