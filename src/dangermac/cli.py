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
import csv
import io
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

from .charts import line_chart
from .config import CHOICES, ConfigError, MacTimings, ScenarioConfig, load_config
from .metrics import AccessProbabilities, throughput
from .pipeline import REPORT_COLUMNS, SWEEP_METRICS, evaluate_points, geometry_from, metric_value
from .scenario import expected_n_eff, n_eff_samples
from .slotsim import SimStats, run as run_sim

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


def _checked(tau: float, access: AccessProbabilities, timings: MacTimings) -> dict[str, float]:
    """The ``_CHECKED`` values of one source: the chain's fixed point, or a
    simulator run's measured frequencies (``_sim_checked``)."""
    return dict(zip(_CHECKED, (tau, access.p_su, throughput(access, timings),
                               1.0 - access.p_su)))


def _sim_checked(stats: SimStats, timings: MacTimings) -> dict[str, float]:
    """``_checked`` at a run's measured access, ``p_tr = tx_slots / slots``
    and ``p_su = p_su_hat``."""
    access = AccessProbabilities(p_tr=stats.tx_slots / stats.slots, p_su=stats.p_su_hat)
    return _checked(stats.tau_hat, access, timings)


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
        if any(abs(v) == math.inf for v in values):
            raise _UsageError(f"{what} values must be finite (got {text!r})")
    if not values:
        raise _UsageError(f"{what} must not be empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise _UsageError(f"{what} must be strictly increasing")
    return values


def cmd_point(args) -> int:
    timings, cfg = _build_config(args)
    if cfg.threshold_m is None:
        label = "benchmark"
        n_eff = float(cfg.n_vehicles)
    else:
        label = _fmt(cfg.threshold_m)
        n_eff = expected_n_eff(cfg)[0]
    [report] = evaluate_points(timings, [n_eff], cfg.model_mode)
    row = [cfg.n_vehicles, label, *[get(report) for get in REPORT_COLUMNS.values()],
           cfg.model_mode]
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

    # Rows run x-major: each x has one count per curve, the benchmark curve
    # (its whole population) last.
    if args.x_axis == "n_vehicles":
        xs = _parse_numbers(args.values, int, "--values")
        if xs[0] < 1 or xs[-1] > sys.float_info.max:
            raise _UsageError(
                "--values must all be >= 1 and fit in a float for the n_vehicles axis")
        thresholds = _parse_numbers(args.thresholds, float, "--thresholds")
        curves = [_fmt(t) for t in thresholds] + ["benchmark"]
        labels = curves * len(xs)
        n_effs = [n for x in xs
                  for n in expected_n_eff(replace(cfg, n_vehicles=x), thresholds) + [float(x)]]
    else:
        xs = _parse_numbers(args.values, float, "--values")
        if xs[0] < 0:
            raise _UsageError("--values must all be >= 0 for the threshold_m axis")
        curves = ["filtered", "benchmark"]
        labels = [label for x in xs for label in (_fmt(x), "benchmark")]
        n_effs = [n for mean in expected_n_eff(cfg, xs)
                  for n in (mean, float(cfg.n_vehicles))]
    reports = evaluate_points(timings, n_effs, cfg.model_mode)
    width = len(curves)
    rows = [[xs[i // width], label, *[get(report) for get in REPORT_COLUMNS.values()],
             cfg.model_mode]
            for i, (label, report) in enumerate(zip(labels, reports))]

    header = list(_SWEEP_COLUMNS)
    if args.compare_sim:
        header += _SIM_COLUMNS
        geometry = geometry_from(timings)
        # a run depends only on its station count here, so rows that round
        # to the same count share one
        sim_columns = {0: [0.0, 1.0, 0.0]}
        for row, report in zip(rows, reports):
            n_sim = int(round(report.n_eff))
            if n_sim not in sim_columns:
                sim = _sim_checked(run_sim(n_sim, args.sim_slots, geometry, cfg.rng_seed),
                                   timings)
                sim_columns[n_sim] = [sim["tau"], sim["p_su"], sim["s"]]
            row += sim_columns[n_sim]

    _emit(args, "sweep.csv", _csv_text(header, rows))

    if args.svg:
        x_values = [float(x) for x in xs]
        for metric in metrics:
            series = [(curve, x_values, [metric_value(r, metric) for r in reports[j::width]])
                      for j, curve in enumerate(curves)]
            x_label = ("number of vehicles" if args.x_axis == "n_vehicles"
                       else "danger threshold (m)")
            _emit(args, f"{metric}.svg", line_chart(metric, x_label, metric, series))
    return 0


def cmd_compare(args) -> int:
    timings, cfg = _build_config(args)
    n_list = (_parse_numbers(args.n_list, int, "--n-list")
              if args.n_list is not None else [cfg.n_vehicles])
    if n_list[0] < 1 or n_list[-1] > sys.float_info.max:
        raise _UsageError("--n-list values must all be >= 1 and fit in a float")
    seeds = (_parse_numbers(args.seeds, int, "--seeds")
             if args.seeds is not None else [cfg.rng_seed])
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

    counts = [float(n) for n in n_list]
    models = [[_checked(r.tau, r.access, timings)
               for r in evaluate_points(timings, counts, mode)]
              for mode in ("classic", "busy_aware")]
    rows = []
    for n, classic, busy in zip(n_list, *models):
        for seed in seeds:
            sim = _sim_checked(run_sim(n, args.slots, geometry, seed), timings)
            row = [n, seed, args.slots]
            for name in _CHECKED:
                a_cl, a_bu, s = classic[name], busy[name], sim[name]
                row += [a_cl, a_bu, s, rel_err(a_cl, s), rel_err(a_bu, s)]
            rows.append(row)
    _emit(args, "compare.csv", _csv_text(_COMPARE_COLUMNS, rows))
    return 0


def cmd_scenario(args) -> int:
    _, cfg = _build_config(args)
    thresholds = _parse_numbers(args.thresholds, float, "--thresholds")
    samples = n_eff_samples(cfg.n_vehicles, cfg.road_length_m, thresholds,
                            cfg.trials, cfg.rng_seed, cfg.danger_metric)
    rows = [[trial, threshold, count]
            for trial, counts in enumerate(samples)
            for threshold, count in zip(thresholds, counts)]
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
