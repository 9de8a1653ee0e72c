"""Whole command lines, each run in a fresh interpreter.

Every test here runs ``python -m dangermac`` from this checkout's ``src``,
the entry point the ``dangermac`` script calls, under its own time limit:
bytes that must not depend on the hash seed or on the CPU count, runs
that must end in time, and the exit code of a refused command line. A
hash seed is set per process, and a CPU mask is set in the child alone.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import SWEEP_FILE_DIGESTS

SRC = str(Path(__file__).resolve().parents[1] / "src")


def one_cpu():
    """Leave the calling process one of the CPUs it may use."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def dangermac(*argv, timeout=60, hash_seed=None, preexec_fn=None, cwd=None):
    """``python -m dangermac argv`` in a fresh interpreter, killed after
    ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=SRC)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run([sys.executable, "-m", "dangermac", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=preexec_fn)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The files that ``dangermac argv --out DIR`` writes, by name, from a
    run with ``hash_seed`` and on one CPU if asked; each distinct run is
    made once a module, so tests may share it."""
    runs = {}

    def write(argv, hash_seed=None, on_one_cpu=False):
        key = (tuple(argv), hash_seed, on_one_cpu)
        if key not in runs:
            out = tmp_path_factory.mktemp("out")
            result = dangermac(*argv, "--out", str(out), hash_seed=hash_seed,
                               preexec_fn=one_cpu if on_one_cpu else None)
            assert (result.returncode, result.stderr) == (0, ""), result.stderr
            runs[key] = {path.name: path.read_bytes() for path in out.iterdir()}
        return runs[key]

    return write


# the threshold sweep whose bytes test_cli pins, at 50 trials, which it ignores
PINNED_SWEEP = ("sweep", "--x-axis", "threshold_m", "--values", "0..1000", "--n-vehicles", "50",
                "--svg")
THRESHOLD_SWEEP = [*PINNED_SWEEP, "--trials", "50"]


@pytest.mark.parametrize("hash_seed", [0, 1])
def test_threshold_sweep_bytes_ignore_the_hash_seed(written, hash_seed):
    files = written(THRESHOLD_SWEEP, hash_seed)
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    assert digests == SWEEP_FILE_DIGESTS[PINNED_SWEEP]


def test_threshold_sweep_charts_fit_their_byte_budget(written):
    # each run of one report is drawn by its two ends, so the 7 charts stay
    # small (60,265 bytes; 202,554 when every x was drawn)
    files = written(THRESHOLD_SWEEP, 0)
    svgs = [data for name, data in files.items() if name.endswith(".svg")]
    assert len(svgs) == 7
    assert sum(map(len, svgs)) < 80_000


COMPARE = ["compare", "--n-list", "2,5,50", "--slots", "20000", "--seeds", "0,1"]


def test_compare_bytes_ignore_the_hash_seed(written):
    assert written(COMPARE, 0) == written(COMPARE, 1)


@pytest.mark.parametrize("argv, hash_seed", [
    (COMPARE, 0),  # the forked run is the hash-seed test's, made once
    # 1,500- to 12,000-slot windows, where a counter may be drawn again or
    # wait in the simulator's overflow heap
    (["compare", "--n-list", "3,300", "--cw-min", "1499", "--max-stage", "3",
      "--slots", "20000", "--seeds", "0,1"], None),
    # one backoff stage, where stage 0 is the top stage and its own next stage
    (["compare", "--max-stage", "0", "--n-list", "2,5,50", "--slots", "20000",
      "--seeds", "0,1"], None),
], ids=["default", "slow-path", "one-stage"])
def test_compare_on_one_cpu_writes_the_forked_bytes(written, argv, hash_seed):
    # compare runs its simulator jobs in one process per usable CPU; on one
    # CPU it forks nothing and must write the same bytes
    if not hasattr(os, "sched_setaffinity") or not hasattr(os, "fork"):
        pytest.skip("no CPU mask to narrow, or no worker to fork")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("compare forks no worker on one CPU")
    assert written(argv, hash_seed) == written(argv, on_one_cpu=True)


@pytest.mark.parametrize("argv, timeout", [
    # a long simulation: a simulator that stops advancing fails
    (["compare", "--n-list", "50", "--slots", "1000000"], 60),
    # 2**32-slot windows: every counter passes the simulator's 1,024-slot
    # wheel, so a wheel sized to the window or an overflow drain that stalls fails
    (["compare", "--n-list", "2,500", "--cw-min", "65535", "--max-stage", "16",
      "--slots", "1000000"], 60),
    # 3e9 slots of two stations at 2**32-slot windows, almost all of them in
    # empty laps, so a simulator that scans the empty laps fails
    (["compare", "--n-list", "2", "--cw-min", "65535", "--max-stage", "16",
      "--slots", "3000000000"], 30),
    (["compare", "--n-list", "1,2", "--slots", "2000", "--seeds", "0,1"], 60),
    # an idle one-slot run is a report too
    (["compare", "--n-list", "1,2", "--slots", "1"], 60),
    # charts of near-equal values, so a tick loop fails
    (["sweep", "--x-axis", "threshold_m", "--values", "999,1000", "--n-vehicles", "5",
      "--svg", "--out", "flat"], 60),
    # fixed-point solves at saturation, one stage and around p_c rounding to
    # 1, so a solve that does not terminate fails
    (["point", "--n-vehicles", "1000000"], 60),
    (["point", "--cw-min", "1", "--max-stage", "0", "--n-vehicles", "50"], 60),
    (["sweep", "--values", "140..160", "--metrics", "tau"], 60),
    # the report builder's edge branches: less than one contender
    # (0 < n_eff < 1), and no contender and less than one next to a full
    # population in one sweep
    (["point", "--threshold-m", "0.001"], 60),
    (["sweep", "--x-axis", "threshold_m", "--values", "0,0.001,1000", "--n-vehicles", "2"],
     60),
], ids=["compare-1e6-slots", "compare-wide-windows", "compare-empty-laps",
        "compare-seeds", "compare-one-slot", "sweep-flat-chart", "point-saturated",
        "point-one-stage", "sweep-across-150", "point-below-one-contender",
        "sweep-edge-counts"])
def test_run_exits_zero_in_time(tmp_path, argv, timeout):
    result = dangermac(*argv, timeout=timeout, cwd=tmp_path)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr


@pytest.mark.parametrize("argv", [
    # a flag that another flag overrides
    ["compare", "--n-list", "5", "--n-vehicles", "7"],
    # a list flag's values are checked against their config key's range
    ["compare", "--seeds", "-1"],
], ids=["compare-n-vehicles", "compare-negative-seed"])
def test_refused_run_prints_one_error_line(argv):
    result = dangermac(*argv)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
