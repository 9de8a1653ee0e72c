"""Every config flag a command accepts changes what it prints; the flags of
the keys a command does not read are usage errors."""

import json

import pytest

from dangermac.cli import main
from dangermac.config import MacTimings, ScenarioConfig, config_to_dict, load_config

TIMINGS = MacTimings._fields
CONFIG_KEYS = TIMINGS + ScenarioConfig._fields

# The config keys each command reads, hence the flags it accepts.
ACCEPTS = {
    "point": TIMINGS + ("n_vehicles", "road_length_m", "threshold_m", "model_mode",
                        "danger_metric"),
    "sweep": TIMINGS + ("n_vehicles", "road_length_m", "trials", "rng_seed", "model_mode",
                        "danger_metric"),
    "compare": tuple(k for k in TIMINGS if k not in ("rts_us", "cts_us"))
               + ("n_vehicles", "rng_seed"),
    "scenario": ("n_vehicles", "road_length_m", "trials", "rng_seed", "danger_metric"),
}
# sweep reads neither; it accepts both for perfbench's sweep argvs
IGNORED = {("sweep", "trials"), ("sweep", "rng_seed")}

# A cheap run of each command; the scenario thresholds are small enough that
# the counts, and so the seed, matter.
BASE = {
    "point": ["point", "--threshold-m", "300"],
    "sweep": ["sweep", "--x-axis", "threshold_m", "--values", "100,300"],
    "compare": ["compare", "--slots", "2000"],
    "scenario": ["scenario", "--trials", "3", "--thresholds", "5,10,20"],
}
# One value of each key that differs from both the default and BASE.
ALTERNATIVE = {
    "difs_us": "50", "sifs_us": "16", "slot_us": "9", "prop_delay_us": "2",
    "payload_bytes": "500", "data_rate_mbps": "12", "header_bytes": "20",
    "ack_us": "30", "rts_us": "20", "cts_us": "20", "cw_min": "15", "max_stage": "3",
    "n_vehicles": "20", "road_length_m": "500", "threshold_m": "100", "trials": "5",
    "rng_seed": "2", "model_mode": "classic", "danger_metric": "front_gap_only",
}


def run_cli(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command, key",
                         [(c, k) for c in ACCEPTS for k in CONFIG_KEYS],
                         ids=[f"{c}-{k}" for c in ACCEPTS for k in CONFIG_KEYS])
def test_a_flag_is_accepted_only_where_it_changes_the_output(capsys, command, key):
    code, base, err = run_cli(capsys, BASE[command])
    assert (code, err) == (0, ""), err
    flag = "--" + key.replace("_", "-")
    code, out, err = run_cli(capsys, [*BASE[command], flag, ALTERNATIVE[key]])
    if key not in ACCEPTS[command]:
        assert (code, out) == (1, "")
        assert err.startswith("usage: dangermac") and f"unrecognized arguments: {flag}" in err
    elif (command, key) in IGNORED:
        assert (code, out, err) == (0, base, "")
    else:
        assert (code, err) == (0, ""), err
        assert out != base


def test_a_config_file_may_hold_every_key(tmp_path, capsys):
    # one file serves all commands, so each takes every key from a file;
    # the defaults written out give the same bytes as no file
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_to_dict(*load_config())))
    assert set(json.loads(config.read_text())) == set(CONFIG_KEYS)
    for argv in BASE.values():
        code, out, err = run_cli(capsys, [*argv, "--config", str(config)])
        assert (code, err) == (0, ""), (argv, err)
        assert run_cli(capsys, argv) == (0, out, "")


@pytest.mark.parametrize("argv", [
    ["sweep", "--compare-sim"],
    ["sweep", "--sim-slots", "5"],
    ["point", "--trials", "5"],
    ["compare", "--model-mode", "classic"],
], ids=["sweep-compare-sim", "sweep-sim-slots", "point-trials", "compare-model-mode"])
def test_removed_and_unread_flags_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: dangermac")
