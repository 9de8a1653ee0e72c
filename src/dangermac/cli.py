"""Command-line front end: point evaluations, sweeps, simulator comparison.

Commands::

    dangermac point      one analytic evaluation, one CSV row
    dangermac sweep      sweep contender count or threshold, CSV + SVG charts
    dangermac compare    analytic model vs slot simulation, side by side
    dangermac scenario   per-trial granted-contender counts

All commands are deterministic for a given seed and emit CSV with floats
printed at 9 significant digits. Exit codes: 0 success, 1 usage or
validation error, 2 solver non-convergence, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import fields, replace
from pathlib import Path

from .charts import line_chart
from .config import (
    ConfigError,
    DANGER_METRICS,
    MODEL_MODES,
    THROUGHPUT_MODES,
    MacTimings,
    ScenarioConfig,
    load_config,
)
from .markov import ConvergenceError
from .pipeline import SWEEP_METRICS, PerfReport, evaluate_point, geometry_from, metric_value
from .scenario import expected_n_eff, n_eff_samples
from .slotsim import run as run_sim

_POINT_COLUMNS = [
    "n_vehicles", "threshold_m", "n_eff_mean", "tau", "p_tr", "p_su", "pdr",
    "throughput", "p_emp", "p_suc", "p_own", "p_col", "p_bus", "t_td_us",
    "model_mode", "throughput_mode",
]
_SWEEP_COLUMNS = ["x"] + _POINT_COLUMNS[1:]
_SIM_COLUMNS = ["sim_tau", "sim_p_su", "sim_payload_fraction"]
_SCENARIO_COLUMNS = ["trial", "threshold_m", "n_eff"]
_COMPARE_COLUMNS = ["n", "seed", "slots"]
for _name in ("tau", "p_su", "s", "col_frac"):
    _COMPARE_COLUMNS += [f"{_name}_classic", f"{_name}_busy", f"{_name}_sim",
                         f"{_name}_err_classic", f"{_name}_err_busy"]


class _UsageError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".9g")


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _emit(args, filename: str, text: str) -> None:
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(text)
    else:
        sys.stdout.write(text)


# Every config field is a flag of the same name; values stay strings here
# and are parsed and checked by ``config.load_config``.
_CONFIG_FIELDS = [f.name for f in fields(MacTimings) + fields(ScenarioConfig)]
_CHOICES = {"model_mode": MODEL_MODES, "throughput_mode": THROUGHPUT_MODES,
            "danger_metric": DANGER_METRICS}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", metavar="PATH", help="JSON config file")
    for key in _CONFIG_FIELDS:
        flags = ["--" + key.replace("_", "-")]
        if key == "rng_seed":
            flags.insert(0, "--seed")
        group.add_argument(*flags, dest=key, choices=_CHOICES.get(key),
                           help=f"override config key {key}")


def _build_config(args) -> tuple[MacTimings, ScenarioConfig]:
    text = None
    if args.config:
        text = Path(args.config).read_text()
    overrides = {}
    for key in _CONFIG_FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return load_config(text, overrides)


def _parse_numbers(text: str, kind, what: str) -> list:
    text = text.strip()
    if not text:
        raise _UsageError(f"{what} must not be empty")
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise _UsageError(f"bad range for {what}: {text!r}") from None
        values = [kind(v) for v in range(lo, hi + 1)]
    else:
        try:
            values = [kind(part) for part in text.split(",")]
        except ValueError:
            raise _UsageError(f"bad value list for {what}: {text!r}") from None
    if not values:
        raise _UsageError(f"{what} must not be empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise _UsageError(f"{what} must be strictly increasing")
    return values


def _report_fields(report: PerfReport, cfg: ScenarioConfig) -> list:
    return [
        report.n_eff,
        report.tau,
        report.access.p_tr,
        report.access.p_su,
        report.pdr,
        report.throughput.s,
        report.states.p_emp,
        report.states.p_suc,
        report.states.p_own,
        report.p_c,
        report.p_b,
        report.delay.t_td_us,
        cfg.model_mode,
        cfg.throughput_mode,
    ]


def cmd_point(args) -> int:
    timings, cfg = _build_config(args)
    if cfg.threshold_m is None:
        label = "benchmark"
        n_eff = float(cfg.n_vehicles)
    else:
        label = _fmt(cfg.threshold_m)
        n_eff = expected_n_eff(cfg)[0]
    report = evaluate_point(timings, n_eff, cfg.model_mode, cfg.throughput_mode)
    row = [cfg.n_vehicles, label] + _report_fields(report, cfg)
    _emit(args, "point.csv", _csv_text(_POINT_COLUMNS, [row]))
    return 0


def cmd_sweep(args) -> int:
    timings, cfg = _build_config(args)
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not metrics:
        raise _UsageError("at least one metric is required")
    for metric in metrics:
        if metric not in SWEEP_METRICS:
            raise _UsageError(
                f"unknown metric {metric!r} (choose from {', '.join(SWEEP_METRICS)})")
    if args.svg and not args.out:
        raise _UsageError("--svg requires --out")
    if args.compare_sim and args.sim_slots < 1:
        raise _UsageError("--sim-slots must be >= 1")

    # Each x gets one filtered count per curve, evaluated separately, and
    # a benchmark curve of its whole population, evaluated once per size.
    if args.x_axis == "n_vehicles":
        xs = _parse_numbers(args.values, int, "--values")
        if xs[0] < 1:
            raise _UsageError("--values must all be >= 1 for the n_vehicles axis")
        thresholds = _parse_numbers(args.thresholds, float, "--thresholds")
        curves = [_fmt(t) for t in thresholds]
        populations = xs
        n_effs = [expected_n_eff(replace(cfg, n_vehicles=x), thresholds) for x in xs]
    else:
        xs = _parse_numbers(args.values, float, "--values")
        if xs[0] < 0:
            raise _UsageError("--values must all be >= 0 for the threshold_m axis")
        curves = ["filtered"]
        populations = [cfg.n_vehicles] * len(xs)
        n_effs = [[mean] for mean in expected_n_eff(cfg, xs)]

    def evaluate(n_eff: float) -> PerfReport:
        return evaluate_point(timings, n_eff, cfg.model_mode, cfg.throughput_mode)

    benchmarks = {n: evaluate(float(n)) for n in sorted(set(populations))}
    rows = []
    reports: dict[tuple, PerfReport] = {}
    for x, n, means in zip(xs, populations, n_effs):
        row_labels = curves if args.x_axis == "n_vehicles" else [_fmt(x)]
        for curve, row_label, mean in zip(curves, row_labels, means):
            report = reports[(x, curve)] = evaluate(mean)
            rows.append([x, row_label] + _report_fields(report, cfg))
        reports[(x, "benchmark")] = benchmarks[n]
        rows.append([x, "benchmark"] + _report_fields(benchmarks[n], cfg))
    curve_labels = curves + ["benchmark"]

    header = list(_SWEEP_COLUMNS)
    if args.compare_sim:
        header += _SIM_COLUMNS
        geometry = geometry_from(timings)
        # a run depends only on its station count here, so rows that round
        # to the same count share one
        sim_columns = {0: [0.0, 1.0, 0.0]}
        for row in rows:
            n_sim = int(round(row[2]))  # n_eff_mean column
            if n_sim not in sim_columns:
                stats = run_sim(n_sim, args.sim_slots, geometry, cfg.rng_seed,
                                timings)
                sim_columns[n_sim] = [stats.tau_hat, stats.p_su_hat,
                                      stats.payload_time_fraction]
            row += sim_columns[n_sim]

    _emit(args, "sweep.csv", _csv_text(header, rows))

    if args.svg:
        for metric in metrics:
            series = []
            for label in curve_labels:
                ys = [metric_value(reports[(x, label)], metric) for x in xs]
                series.append((label, [float(x) for x in xs], ys))
            x_label = ("number of vehicles" if args.x_axis == "n_vehicles"
                       else "danger threshold (m)")
            _emit(args, f"{metric}.svg", line_chart(metric, x_label, metric, series))
    return 0


def cmd_compare(args) -> int:
    timings, cfg = _build_config(args)
    n_list = (_parse_numbers(args.n_list, int, "--n-list")
              if args.n_list else [cfg.n_vehicles])
    if n_list[0] < 1:
        raise _UsageError("--n-list values must all be >= 1")
    seeds = (_parse_numbers(args.seeds, int, "--seeds")
             if args.seeds else [cfg.rng_seed])
    if seeds[0] < 0:
        raise _UsageError("--seeds values must all be >= 0")
    if args.slots < 1:
        raise _UsageError("--slots must be >= 1")
    geometry = geometry_from(timings)

    def rel_err(analytic: float, simulated: float) -> float:
        if analytic == simulated:
            return 0.0
        if simulated == 0.0:
            return float("inf")
        return abs(analytic - simulated) / abs(simulated)

    rows = []
    for n in n_list:
        classic = evaluate_point(timings, float(n), "classic", "slot_scaled")
        busy = evaluate_point(timings, float(n), "busy_aware", "slot_scaled")
        for seed in seeds:
            sim = run_sim(n, args.slots, geometry, seed, timings)
            sim_col_frac = (sim.collision_slots / sim.tx_slots
                            if sim.tx_slots else 0.0)
            row = [n, seed, args.slots]
            for a_cl, a_bu, s in [
                (classic.tau, busy.tau, sim.tau_hat),
                (classic.access.p_su, busy.access.p_su, sim.p_su_hat),
                (classic.throughput.s, busy.throughput.s, sim.payload_time_fraction),
                (1.0 - classic.access.p_su, 1.0 - busy.access.p_su, sim_col_frac),
            ]:
                row += [a_cl, a_bu, s, rel_err(a_cl, s), rel_err(a_bu, s)]
            rows.append(row)
    _emit(args, "compare.csv", _csv_text(_COMPARE_COLUMNS, rows))
    return 0


def cmd_scenario(args) -> int:
    _, cfg = _build_config(args)
    thresholds = _parse_numbers(args.thresholds, float, "--thresholds")
    samples = n_eff_samples(cfg.n_vehicles, cfg.road_length_m, thresholds,
                            cfg.trials, cfg.rng_seed, cfg.danger_metric)
    rows = []
    for trial in range(cfg.trials):
        for j, threshold in enumerate(thresholds):
            rows.append([trial, threshold, int(samples[trial, j])])
    _emit(args, "scenario.csv", _csv_text(_SCENARIO_COLUMNS, rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dangermac",
        description="Danger-aware V2X MAC model: analytic chain, transmit "
                    "filter, and slot simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate one configuration")
    p_point.add_argument("--out", metavar="DIR")
    _add_config_flags(p_point)
    p_point.set_defaults(func=cmd_point)

    p_sweep = sub.add_parser("sweep", help="sweep an axis and emit CSV/SVG")
    p_sweep.add_argument("--x-axis", choices=("n_vehicles", "threshold_m"),
                         default="n_vehicles")
    p_sweep.add_argument("--values", default="1..50",
                         help="comma list or inclusive range like 1..50")
    p_sweep.add_argument("--thresholds", default="300,500,700",
                         help="curve thresholds for the n_vehicles axis")
    p_sweep.add_argument("--metrics", default=",".join(SWEEP_METRICS))
    p_sweep.add_argument("--compare-sim", action="store_true")
    p_sweep.add_argument("--sim-slots", type=int, default=100_000)
    p_sweep.add_argument("--svg", action="store_true")
    p_sweep.add_argument("--out", metavar="DIR")
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="analytic model vs slot simulation")
    p_cmp.add_argument("--n-list", help="contender counts, e.g. 5,10,20")
    p_cmp.add_argument("--slots", type=int, default=200_000)
    p_cmp.add_argument("--seeds", help="simulator seeds, e.g. 1,2,3")
    p_cmp.add_argument("--out", metavar="DIR")
    _add_config_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_scn = sub.add_parser("scenario", help="per-trial granted contender counts")
    p_scn.add_argument("--thresholds", default="300,500,700")
    p_scn.add_argument("--out", metavar="DIR")
    _add_config_flags(p_scn)
    p_scn.set_defaults(func=cmd_scenario)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (_UsageError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
