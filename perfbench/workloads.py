"""The benchmark's workloads: the argv each one passes to ``dangermac.cli.main``
and the check its output must pass.

Every check is an invariant that later speed work on the solver, the
contender count or the simulator must keep. ``check`` returns the number
of CSV data rows written and a list of problems, empty when the output
is correct.
"""

from __future__ import annotations

import csv
from pathlib import Path

N_VEHICLES = 50          # the README's benchmark population
SWEEP_SVGS = 7           # one chart per sweep metric
THRESHOLD_GRID = "0..1000"
THRESHOLD_TRIALS = 50
DEFAULT_TRIALS = 200     # the README default is 1,000; see SweepDefault
COMPARE_N = (5, 50)
COMPARE_SLOTS = 50_000
# Acceptance criterion C05: classic-chain error against the simulator.
C05_BOUNDS = {"tau": 0.05, "p_su": 0.05, "s": 0.10}


def _read_csv(out_dir: Path, name: str) -> list[dict]:
    with open(out_dir / name, newline="") as handle:
        return list(csv.DictReader(handle))


def _ordered(values: list[float], direction: str) -> bool:
    if direction == "up":
        return all(a <= b for a, b in zip(values, values[1:]))
    return all(a >= b for a, b in zip(values, values[1:]))


def _svg_problems(out_dir: Path) -> list[str]:
    count = len(list(out_dir.glob("*.svg")))
    return [] if count == SWEEP_SVGS else [f"{count} SVG files, expected {SWEEP_SVGS}"]


class SweepDefault:
    """``sweep --svg`` at the README defaults (n = 1..50, thresholds
    300/500/700 plus the benchmark curve) but with 200 trials, not 1,000.
    The user-facing default run: the scenario module dominates it and it
    never calls the simulator. Fewer trials keep a call near 0.35 s, short
    enough for the probes around it to tell how fast the host ran during
    it (see ``probe.py``)."""

    name = "sweep_default"
    rows = 50 * 4
    sim_slots = 0
    # C08: along thresholds 300 < 500 < 700 < benchmark the contender
    # count grows, delivery and throughput fall, collision, busy and delay rise.
    orderings = {"n_eff_mean": "up", "pdr": "down", "throughput": "down",
                 "p_col": "up", "p_bus": "up", "t_td_us": "up"}

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        return ["sweep", "--svg", "--trials", str(DEFAULT_TRIALS),
                "--out", str(out_dir), "--seed", str(seed)]

    def check(self, out_dir: Path) -> tuple[int, list[str]]:
        rows = _read_csv(out_dir, "sweep.csv")
        problems = _svg_problems(out_dir)
        if len(rows) != self.rows:
            problems.append(f"{len(rows)} rows, expected {self.rows}")
        curves: dict[int, list[dict]] = {}
        for row in rows:
            curves.setdefault(int(row["x"]), []).append(row)
        for x, group in curves.items():
            labels = [row["threshold_m"] for row in group]
            if labels != ["300", "500", "700", "benchmark"]:
                problems.append(f"x={x}: curves {labels}")
            elif x >= 2:
                for column, direction in self.orderings.items():
                    if not _ordered([float(row[column]) for row in group], direction):
                        problems.append(f"x={x}: {column} not ordered {direction}")
        return len(rows), problems


class SweepThreshold:
    """``sweep --x-axis threshold_m`` over 1,001 thresholds from 0 to 1000 m
    at n = 50 with 50 placements. It uses the scenario module the other way
    round (few placements, many thresholds each), puts the solver at about
    half the time and writes the largest CSV and SVG output."""

    name = "sweep_threshold"
    rows = 2 * 1001
    sim_slots = 0

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        return ["sweep", "--x-axis", "threshold_m", "--values", THRESHOLD_GRID,
                "--n-vehicles", str(N_VEHICLES), "--trials", str(THRESHOLD_TRIALS),
                "--svg", "--out", str(out_dir), "--seed", str(seed)]

    def check(self, out_dir: Path) -> tuple[int, list[str]]:
        rows = _read_csv(out_dir, "sweep.csv")
        problems = _svg_problems(out_dir)
        if len(rows) != self.rows:
            problems.append(f"{len(rows)} rows, expected {self.rows}")
        filtered = [(float(row["x"]), float(row["n_eff_mean"]))
                    for row in rows if row["threshold_m"] != "benchmark"]
        if not _ordered([n for _, n in filtered], "up"):
            problems.append("filtered n_eff_mean decreases as the threshold grows")
        for x, n_eff in filtered:
            if x == 0 and n_eff != 0:
                problems.append(f"n_eff_mean {n_eff} at threshold 0, expected 0")
            if x >= 1000 and n_eff != N_VEHICLES:
                problems.append(f"n_eff_mean {n_eff} at threshold {x}, "
                                f"expected {N_VEHICLES}")
        return len(rows), problems


class CompareSim:
    """``compare --n-list 5,50 --slots 5e4``: the simulator takes 99% or
    more of the time and there are only 4 solves. The two population sizes
    show whether the cost per simulated event grows with n. 5e4 slots, not
    the 3e5 first planned, keep a call near 0.55 s (see ``SweepDefault``)
    and the C05 errors below 2.3% for seeds 0-29."""

    name = "compare_sim"
    sim_slots = len(COMPARE_N) * COMPARE_SLOTS  # simulated after warm-up

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        return ["compare", "--n-list", ",".join(map(str, COMPARE_N)),
                "--slots", str(COMPARE_SLOTS), "--seeds", str(seed),
                "--out", str(out_dir)]

    def check(self, out_dir: Path) -> tuple[int, list[str]]:
        rows = _read_csv(out_dir, "compare.csv")
        problems = []
        if [int(row["n"]) for row in rows] != list(COMPARE_N):
            problems.append(f"rows for n={[row['n'] for row in rows]}, "
                            f"expected {list(COMPARE_N)}")
        for row in rows:
            for quantity, bound in C05_BOUNDS.items():
                err = float(row[f"{quantity}_err_classic"])
                if not err <= bound:
                    problems.append(f"n={row['n']}: {quantity}_err_classic "
                                    f"{err} above {bound}")
        return len(rows), problems


WORKLOADS = {w.name: w for w in (SweepDefault(), SweepThreshold(), CompareSim())}
