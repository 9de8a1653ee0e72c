"""Command-line front end: point evaluations, sweeps, simulator comparison.

Commands::

    dangermac point      one analytic evaluation, one CSV row
    dangermac sweep      sweep contender count or threshold, CSV + SVG charts
    dangermac compare    analytic model vs slot simulation, side by side
    dangermac scenario   per-trial granted-contender counts

All commands are deterministic for a given seed and emit CSV with floats
printed at 9 significant digits. Exit codes: 0 success, 1 usage or
validation error or a run too large for memory, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import product
from pathlib import Path

from .charts import line_chart
from .config import CHOICES, MacTimings, ScenarioConfig, load_config
from .pipeline import (REPORT_COLUMNS, SWEEP_METRICS, evaluate_points, metric_column,
                       simulate_points)
from .scenario import expected_n_eff, n_eff_samples

_CELL = "%.9g"
_REPORT_FORMAT = ",".join([_CELL] * len(REPORT_COLUMNS))
_POINT_COLUMNS = ["n_vehicles", "threshold_m", *REPORT_COLUMNS, "model_mode"]
_SWEEP_COLUMNS = ["x"] + _POINT_COLUMNS[1:]
_SIM_COLUMNS = ["sim_tau", "sim_p_su", "sim_payload_fraction"]
_SCENARIO_COLUMNS = ["trial", "threshold_m", "n_eff"]
# The quantities compare checks, in column order.
_CHECKED = ("tau", "p_su", "s", "col_frac")
_COMPARE_COLUMNS = ["n", "seed", "slots"]
for _name in _CHECKED:
    _COMPARE_COLUMNS += [f"{_name}_classic", f"{_name}_busy", f"{_name}_sim",
                         f"{_name}_err_classic", f"{_name}_err_busy"]


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return _CELL % value


def _csv_line(row: list) -> str:
    return ",".join(map(_fmt, row))


def _csv_text(header: list[str], lines: list[str]) -> str:
    """CSV text of a header and data lines, joined with no quoting: every
    cell is a number, a fixed label or a ``CHOICES`` value."""
    return "\n".join([",".join(header), *lines, ""])


def _emit(args, filename: str, text: str) -> None:
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(text)
    else:
        sys.stdout.write(text)


# Every config field is a flag of the same name; values stay strings here
# and are parsed and checked by ``config.load_config``.
_CONFIG_FIELDS = MacTimings._fields + ScenarioConfig._fields


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", metavar="PATH", help="JSON config file")
    for key in _CONFIG_FIELDS:
        flags = ["--" + key.replace("_", "-")]
        if key == "rng_seed":
            flags.insert(0, "--seed")
        group.add_argument(*flags, dest=key, choices=CHOICES.get(key),
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
        raise ValueError(f"{what} must not be empty")
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise ValueError(f"bad range for {what}: {text!r}") from None
        values = [kind(v) for v in range(lo, hi + 1)]
    else:
        try:
            values = [kind(part) for part in text.split(",")]
        except ValueError:
            raise ValueError(f"bad value list for {what}: {text!r}") from None
        if any(abs(v) == math.inf for v in values):
            raise ValueError(f"{what} values must be finite (got {text!r})")
    if not values:
        raise ValueError(f"{what} must not be empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{what} must be strictly increasing")
    return values


def cmd_point(args) -> int:
    timings, cfg = _build_config(args)
    if cfg.threshold_m is None:
        label = "benchmark"
        n_eff = float(cfg.n_vehicles)
    else:
        label = _fmt(cfg.threshold_m)
        n_eff = expected_n_eff(cfg.n_vehicles, cfg.road_length_m, [cfg.threshold_m],
                               cfg.danger_metric)[0]
    [report] = evaluate_points(timings, [n_eff], cfg.model_mode)
    row = [cfg.n_vehicles, label, *report, cfg.model_mode]
    _emit(args, "point.csv", _csv_text(_POINT_COLUMNS, [_csv_line(row)]))
    return 0


def cmd_sweep(args) -> int:
    timings, cfg = _build_config(args)
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not metrics:
        raise ValueError("at least one metric is required")
    for metric in metrics:
        if metric not in SWEEP_METRICS:
            raise ValueError(
                f"unknown metric {metric!r} (choose from {', '.join(SWEEP_METRICS)})")
    if args.svg and not args.out:
        raise ValueError("--svg requires --out")
    if args.compare_sim and args.sim_slots < 1:
        raise ValueError("--sim-slots must be >= 1")

    # Rows run x-major: each x has one count per curve, the benchmark curve
    # (its whole population) last.
    if args.x_axis == "n_vehicles":
        xs = _parse_numbers(args.values, int, "--values")
        if xs[0] < 1 or xs[-1] > sys.float_info.max:
            raise ValueError(
                "--values must all be >= 1 and fit in a float for the n_vehicles axis")
        thresholds = _parse_numbers(args.thresholds, float, "--thresholds")
        curves = [_fmt(t) for t in thresholds] + ["benchmark"]
        n_effs = [n for x in xs
                  for n in expected_n_eff(x, cfg.road_length_m, thresholds, cfg.danger_metric)
                  + [float(x)]]
    else:
        xs = _parse_numbers(args.values, float, "--values")
        if xs[0] < 0:
            raise ValueError("--values must all be >= 0 for the threshold_m axis")
        curves = ["filtered", "benchmark"]
        n_effs = [n for mean in expected_n_eff(cfg.n_vehicles, cfg.road_length_m, xs,
                                               cfg.danger_metric)
                  for n in (mean, float(cfg.n_vehicles))]
    reports = evaluate_points(timings, n_effs, cfg.model_mode)
    # equal counts share one report, so each distinct count is formatted once
    texts = {n: _REPORT_FORMAT % r for n, r in dict(zip(n_effs, reports)).items()}
    # a filtered row's threshold_m label is its own x
    lines = [f"{x},{x if curve == 'filtered' else curve},{texts[n]},{cfg.model_mode}"
             for (x, curve), n in zip(product(map(_fmt, xs), curves), n_effs)]

    header = list(_SWEEP_COLUMNS)
    if args.compare_sim:
        header += _SIM_COLUMNS
        sims = simulate_points(timings, [round(n) for n in n_effs], args.sim_slots,
                               cfg.rng_seed)
        lines = [f"{line},{_csv_line(sim)}" for line, sim in zip(lines, sims)]

    _emit(args, "sweep.csv", _csv_text(header, lines))

    if args.svg:
        x_values = [float(x) for x in xs]
        x_label = ("number of vehicles" if args.x_axis == "n_vehicles"
                   else "danger threshold (m)")
        for metric in metrics:
            column = metric_column(metric)
            series = [(curve, x_values, list(map(column, reports[j::len(curves)])))
                      for j, curve in enumerate(curves)]
            _emit(args, f"{metric}.svg", line_chart(metric, x_label, metric, series))
    return 0


def cmd_compare(args) -> int:
    timings, cfg = _build_config(args)
    n_list = (_parse_numbers(args.n_list, int, "--n-list")
              if args.n_list is not None else [cfg.n_vehicles])
    if n_list[0] < 1 or n_list[-1] > sys.float_info.max:
        raise ValueError("--n-list values must all be >= 1 and fit in a float")
    seeds = (_parse_numbers(args.seeds, int, "--seeds")
             if args.seeds is not None else [cfg.rng_seed])
    if seeds[0] < 0:
        raise ValueError("--seeds values must all be >= 0")
    if args.slots < 1:
        raise ValueError("--slots must be >= 1")

    def rel_err(analytic: float, simulated: float) -> float:
        if analytic == simulated:
            return 0.0
        if simulated == 0.0:
            return float("inf")
        return abs(analytic - simulated) / abs(simulated)

    counts = [float(n) for n in n_list]
    models = [[(r.tau, r.p_su, r.throughput) for r in evaluate_points(timings, counts, mode)]
              for mode in ("classic", "busy_aware")]
    runs = [simulate_points(timings, n_list, args.slots, seed) for seed in seeds]
    rows = []
    for i, n in enumerate(n_list):
        for seed, sim in zip(seeds, runs):
            row = [n, seed, args.slots]
            # the _CHECKED values of the two chains and the run: (tau, p_su, s), 1 - p_su
            checked = [(*source[i], 1.0 - source[i][1]) for source in (*models, sim)]
            for a_cl, a_bu, s in zip(*checked):
                row += [a_cl, a_bu, s, rel_err(a_cl, s), rel_err(a_bu, s)]
            rows.append(row)
    _emit(args, "compare.csv", _csv_text(_COMPARE_COLUMNS, list(map(_csv_line, rows))))
    return 0


def cmd_scenario(args) -> int:
    _, cfg = _build_config(args)
    thresholds = _parse_numbers(args.thresholds, float, "--thresholds")
    samples = n_eff_samples(cfg.n_vehicles, cfg.road_length_m, thresholds,
                            cfg.trials, cfg.rng_seed, cfg.danger_metric)
    lines = [_csv_line([trial, threshold, count])
             for trial, counts in enumerate(samples)
             for threshold, count in zip(thresholds, counts)]
    _emit(args, "scenario.csv", _csv_text(_SCENARIO_COLUMNS, lines))
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
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'not enough memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
