"""Every config flag a command accepts changes what it prints; the flags of
the keys a command does not read are usage errors."""

import json

import pytest

from dangermac.cli import main
from dangermac.config import (ConfigError, MacTimings, ScenarioConfig, config_to_dict,
                              load_config)

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
IGNORED = {"trials", "rng_seed"}

# A cheap run of each command, and of sweep on each axis ("sweep" is the
# threshold_m axis); the scenario thresholds are small enough that the
# counts, and so the seed, matter.
BASE = {
    "point": ["point", "--threshold-m", "300"],
    "sweep": ["sweep", "--x-axis", "threshold_m", "--values", "100,300"],
    "sweep_n_vehicles_axis": ["sweep", "--values", "2,5"],
    "compare": ["compare", "--slots", "2000"],
    "scenario": ["scenario", "--trials", "3", "--thresholds", "5,10,20"],
}
# On the n_vehicles axis --values gives the populations, so --n-vehicles,
# which sweep accepts for the threshold_m axis, is an error there.
REFUSED = {("sweep_n_vehicles_axis", "n_vehicles")}
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


@pytest.mark.parametrize("case, key",
                         [(c, k) for c in BASE for k in CONFIG_KEYS],
                         ids=[f"{c}-{k}" for c in BASE for k in CONFIG_KEYS])
def test_a_flag_is_accepted_only_where_it_changes_the_output(capsys, case, key):
    command = BASE[case][0]
    code, base, err = run_cli(capsys, BASE[case])
    assert (code, err) == (0, ""), err
    flag = "--" + key.replace("_", "-")
    code, out, err = run_cli(capsys, [*BASE[case], flag, ALTERNATIVE[key]])
    if key not in ACCEPTS[command]:
        assert (code, out) == (1, "")
        assert err.startswith("usage: dangermac") and f"unrecognized arguments: {flag}" in err
    elif (case, key) in REFUSED:
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
    elif command == "sweep" and key in IGNORED:
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


# A run, and flags that would override part of it or repeat a chart name.
@pytest.mark.parametrize("argv, extra", [
    (["sweep", "--values", "1..3"], ["--n-vehicles", "7"]),
    (["sweep", "--x-axis", "threshold_m", "--values", "100,300"], ["--thresholds", "300"]),
    (["compare", "--slots", "2000", "--n-list", "5"], ["--n-vehicles", "7"]),
    (["compare", "--slots", "2000", "--seeds", "1"], ["--seed", "2"]),
    (["sweep", "--values", "2,3"], ["--metrics", "pdr,tau,pdr"]),
], ids=["sweep-n-vehicles", "sweep-thresholds", "compare-n-vehicles", "compare-seed",
        "sweep-metrics"])
def test_a_flag_another_flag_would_override_is_refused(capsys, argv, extra):
    assert run_cli(capsys, argv)[0] == 0
    code, out, err = run_cli(capsys, [*argv, *extra])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and extra[0] in err and err.count("\n") == 1


# Every flag that lists values of a config key, the key and a run around it.
LIST_FLAGS = {
    "sweep-values-n_vehicles": ("n_vehicles", ["sweep", "--values"]),
    "sweep-values-threshold_m": ("threshold_m", ["sweep", "--x-axis", "threshold_m",
                                                 "--values"]),
    "sweep-thresholds": ("threshold_m", ["sweep", "--values", "2", "--thresholds"]),
    "scenario-thresholds": ("threshold_m", ["scenario", "--trials", "2", "--thresholds"]),
    "compare-n-list": ("n_vehicles", ["compare", "--slots", "100", "--n-list"]),
    "compare-seeds": ("rng_seed", ["compare", "--slots", "100", "--seeds"]),
}
# A value below each key's bound; argparse reads "-1" as a value, not a flag.
BELOW = {"n_vehicles": "0", "threshold_m": "-1", "rng_seed": "-1"}
INTEGER_KEYS = {"n_vehicles", "rng_seed"}


@pytest.mark.parametrize("case, value", [
    (case, value) for case, (key, _) in LIST_FLAGS.items()
    for value in (BELOW[key], "nan", "inf", *(["1.5"] if key in INTEGER_KEYS else []))
])
def test_a_list_flag_checks_its_values_as_config_does(capsys, case, value):
    key, argv = LIST_FLAGS[case]
    flag = argv[-1]
    code, out, err = run_cli(capsys, [*argv, value])
    assert (code, out) == (1, "")
    # one line: the flag, then config's own message for the key
    assert err.startswith(f"error: {flag}: {key} must be ") and err.count("\n") == 1, err
    with pytest.raises(ConfigError) as raised:
        load_config(None, {key: value})
    assert err == f"error: {flag}: {raised.value}\n"


# Two floats that differ but agree to 9 significant digits, as a list and
# as the ends of a range.
CLASHES = {"300.0000001,300.0000002": "300.0000001 and 300.0000002 both print as 300",
           "1000000000..1000000001": "1000000000.0 and 1000000001.0 both print as 1e+09"}


@pytest.mark.parametrize("case, value", [
    (case, value) for case, (key, _) in LIST_FLAGS.items() if key == "threshold_m"
    for value in CLASHES
])
def test_a_float_list_flag_refuses_values_that_print_as_one_cell(capsys, case, value):
    # each value is written as a 9-significant-digit cell, so two values
    # that print alike would give rows the CSV cannot tell apart
    _, argv = LIST_FLAGS[case]
    code, out, err = run_cli(capsys, [*argv, value])
    assert (code, out) == (1, "")
    assert err == f"error: {argv[-1]}: {CLASHES[value]}\n"


def test_an_unknown_metric_names_the_choices(capsys):
    code, out, err = run_cli(capsys, ["sweep", "--values", "2,3", "--metrics", "pdr,nope"])
    assert (code, out) == (1, "")
    assert err == ("error: --metrics: unknown metric: 'nope' (choose from pdr, throughput, "
                   "total_delay, p_bus, p_col, n_eff, tau)\n")


@pytest.mark.parametrize("value, message", [
    (",", "--metrics must not be empty"),
    ("pdr,tau,pdr", "--metrics names 'pdr' more than once"),
])
def test_a_bad_metric_list_names_its_flag(capsys, value, message):
    code, out, err = run_cli(capsys, ["sweep", "--values", "2,3", "--metrics", value])
    assert (code, out, err) == (1, "", f"error: {message}\n")


# A flag's text or a config file's value that cannot be read.
@pytest.mark.parametrize("argv, config, message", [
    (["sweep", "--values", "1..x"], None, "bad range for --values: '1..x'"),
    (["compare", "--slots", "0"], None, "--slots must be >= 1"),
    (["point"], {"cw_min": True}, "cw_min must be a number or string, not a boolean"),
    (["point"], {"model_mode": 5}, "model_mode must be a string (got 5)"),
    (["point"], {"slot_us": [1]}, "slot_us must be a number (got [1])"),
], ids=["values-range", "slots", "config-boolean", "config-string", "config-number"])
def test_an_unreadable_value_is_one_error_line(tmp_path, capsys, argv, config, message):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
