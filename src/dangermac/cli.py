"""Command-line front end: point evaluations, sweeps, simulator comparison.

Commands::

    dangermac point      one analytic evaluation, one CSV row
    dangermac sweep      sweep contender count or threshold, CSV + SVG charts
    dangermac compare    analytic model vs slot simulation, side by side
    dangermac scenario   per-trial granted-contender counts

All commands are deterministic and emit CSV with floats printed at 9
significant digits. Each command accepts the flags of only the config keys
it reads, and a list flag's values are parsed and checked as its config
key's are. A call builds the flags of its own command alone; usage, help
and errors read as they do with every command's. A flag that another
flag would override is an error. Exit codes: 0 success, 1 usage or
validation error, a run too large for memory or a simulator worker that
died, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from operator import attrgetter
from pathlib import Path

from .charts import line_chart, x_axis
from .config import (CHOICES, ConfigError, MacTimings, ScenarioConfig, _coerce, load_config,
                     validate_scenario)
from .pipeline import (REPORT_COLUMNS, SWEEP_METRICS, WorkerError, _simulate_runs,
                       evaluate_points, metric_column)
from .scenario import expected_n_eff, n_eff_samples

_CELL = "%.9g"
_REPORT_FORMAT = ",".join([_CELL] * len(REPORT_COLUMNS))
_POINT_COLUMNS = ["n_vehicles", "threshold_m", *REPORT_COLUMNS, "model_mode"]
_SWEEP_COLUMNS = ["x"] + _POINT_COLUMNS[1:]
_THRESHOLDS = "300,500,700"  # the default --thresholds
_SCENARIO_COLUMNS = ["trial", "threshold_m", "n_eff"]
_SCENARIO_FORMAT = f"%d,{_CELL},%d"
# The quantities compare checks, in column order, each read off a report.
_CHECKED = {"tau": attrgetter("tau"), "p_su": attrgetter("p_su"),
            "s": attrgetter("throughput"), "col_frac": lambda report: 1.0 - report.p_su}
_COMPARE_COLUMNS = ["n", "seed", "slots"]
for _name in _CHECKED:
    _COMPARE_COLUMNS += [f"{_name}_classic", f"{_name}_busy", f"{_name}_sim",
                         f"{_name}_err_classic", f"{_name}_err_busy"]
_COMPARE_FORMAT = ",".join(["%d"] * 3 + [_CELL] * (len(_COMPARE_COLUMNS) - 3))


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


# Each config key a command reads is a flag of the same name; values stay
# strings here and are parsed and checked by ``config.load_config``. A
# ``--config`` file may hold every key, since one file serves all commands.
_CONFIG_FIELDS = MacTimings._fields + ScenarioConfig._fields
_POINT_KEYS = (*MacTimings._fields, "n_vehicles", "road_length_m", "threshold_m",
               "model_mode", "danger_metric")
# sweep reads neither trials nor rng_seed: it solves at the exact expected
# count and samples nothing. The sweep workloads of perfbench/workloads.py
# pass --trials and --seed, so sweep accepts both until those argvs drop them.
_SWEEP_KEYS = (*MacTimings._fields, "n_vehicles", "road_length_m", "trials", "rng_seed",
               "model_mode", "danger_metric")
# rts_us and cts_us enter only t_td_us, which compare does not print;
# n_vehicles and rng_seed are the defaults of --n-list and --seeds, and
# an error beside them
_COMPARE_KEYS = (*(k for k in MacTimings._fields if k not in ("rts_us", "cts_us")),
                 "n_vehicles", "rng_seed")
_SCENARIO_KEYS = ("n_vehicles", "road_length_m", "trials", "rng_seed", "danger_metric")


def _add_config_flags(parser: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", metavar="PATH", help="JSON config file")
    for key in keys:
        flags = ["--" + key.replace("_", "-")]
        if key == "rng_seed":
            flags.insert(0, "--seed")
        group.add_argument(*flags, dest=key, choices=CHOICES.get(key),
                           help=f"override config key {key}")


def _build_config(args) -> tuple[MacTimings, ScenarioConfig]:
    text = Path(args.config).read_text() if args.config else None
    flags = {key: getattr(args, key, None) for key in _CONFIG_FIELDS}
    return load_config(text, {key: value for key, value in flags.items() if value is not None})


def _parse_numbers(text: str, key: str, flag: str) -> list:
    """The values of config key ``key`` that ``flag`` lists, as ``a,b,c`` or an
    inclusive integer range ``lo..hi``: coerced, checked, strictly increasing
    and, for a float key, each written as its own ``_CELL`` cell."""
    lo, dots, hi = text.partition("..")
    try:
        if dots:
            try:
                span = range(int(lo), int(hi) + 1)
            except ValueError:
                raise ValueError(f"bad range for {flag}: {text!r}") from None
            # coercing the endpoints' text shows a float key's overflow as inf
            kind = type(_coerce(key, lo))
            _coerce(key, hi)
            values = list(map(kind, span))
        else:
            values = [_coerce(key, part) for part in text.split(",")] if text.strip() else []
        if not values:
            raise ValueError(f"{flag} must not be empty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError(f"{flag} must be strictly increasing")
        if type(values[0]) is float:  # each is written as a cell, so the cells must differ
            cells = list(map(_CELL.__mod__, values))
            for a, b, cell, next_cell in zip(values, values[1:], cells, cells[1:]):
                if cell == next_cell:
                    raise ValueError(f"{flag}: {a!r} and {b!r} both print as {cell}")
        for value in (values[0], values[-1]):  # so the ends bound every value
            validate_scenario(ScenarioConfig(**{key: value}))
    except ConfigError as exc:
        raise ConfigError(f"{flag}: {exc}") from None
    return values


def _report_lines(timings: MacTimings, model_mode: str, rows: list) -> tuple[list, list]:
    """The CSV lines and reports of ``(x text, threshold_m cell, n_eff)`` rows;
    equal counts share one report, so each distinct count is formatted once."""
    n_effs = [n for _, _, n in rows]
    reports = evaluate_points(timings, n_effs, model_mode)
    texts = {n: _REPORT_FORMAT % r for n, r in dict(zip(n_effs, reports)).items()}
    lines = [f"{x},{cell},{texts[n]},{model_mode}" for x, cell, n in rows]
    return lines, reports


def cmd_point(args) -> int:
    timings, cfg = _build_config(args)
    if cfg.threshold_m is None:
        row = (str(cfg.n_vehicles), "benchmark", float(cfg.n_vehicles))
    else:
        row = (str(cfg.n_vehicles), _CELL % cfg.threshold_m,
               expected_n_eff(cfg.n_vehicles, cfg.road_length_m, [cfg.threshold_m],
                              cfg.danger_metric)[0])
    lines, _ = _report_lines(timings, cfg.model_mode, [row])
    _emit(args, "point.csv", _csv_text(_POINT_COLUMNS, lines))
    return 0


def cmd_sweep(args) -> int:
    timings, cfg = _build_config(args)
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not metrics:
        raise ValueError("--metrics must not be empty")
    try:
        columns = list(map(metric_column, metrics))  # refuses an unknown name
    except ValueError as exc:
        raise ValueError(f"--metrics: {exc}") from None
    for metric in metrics:
        if metrics.count(metric) > 1:
            raise ValueError(f"--metrics names {metric!r} more than once")
    if args.svg and not args.out:
        raise ValueError("--svg requires --out")

    # --values gives the x values, so the flag that would give them too is refused
    flag, given = (("--n-vehicles", args.n_vehicles) if args.x_axis == "n_vehicles"
                   else ("--thresholds", args.thresholds))
    if given is not None:
        raise ValueError(f"{flag} does not apply on the {args.x_axis} axis, "
                         "where --values gives the x values")

    # Rows run x-major: each x has one count per curve, the benchmark curve
    # (its whole population) last.
    if args.x_axis == "n_vehicles":
        xs = _parse_numbers(args.values, "n_vehicles", "--values")
        thresholds = _parse_numbers(_THRESHOLDS if args.thresholds is None else args.thresholds,
                                    "threshold_m", "--thresholds")
        curves = [*map(_CELL.__mod__, thresholds), "benchmark"]
        rows = [(text, curve, n) for x, text in zip(xs, map(str, xs))
                for curve, n in zip(curves, [*expected_n_eff(x, cfg.road_length_m, thresholds,
                                                              cfg.danger_metric), float(x)])]
    else:
        xs = _parse_numbers(args.values, "threshold_m", "--values")
        curves = ["filtered", "benchmark"]
        whole = float(cfg.n_vehicles)
        # a filtered row's threshold_m cell is its own x
        rows = [row for text, mean in zip(map(_CELL.__mod__, xs),
                                          expected_n_eff(cfg.n_vehicles, cfg.road_length_m,
                                                         xs, cfg.danger_metric))
                for row in ((text, text, mean), (text, "benchmark", whole))]
    lines, reports = _report_lines(timings, cfg.model_mode, rows)
    _emit(args, "sweep.csv", _csv_text(_SWEEP_COLUMNS, lines))

    if args.svg:
        x_values = [float(x) for x in xs]
        axis = x_axis(x_values)
        x_label = ("number of vehicles" if args.x_axis == "n_vehicles"
                   else "danger threshold (m)")
        for metric, column in zip(metrics, columns):
            series = [(curve, x_values, list(map(column, reports[j::len(curves)])))
                      for j, curve in enumerate(curves)]
            _emit(args, f"{metric}.svg", line_chart(metric, x_label, metric, series, axis))
    return 0


def cmd_compare(args) -> int:
    timings, cfg = _build_config(args)
    if args.n_list is not None and args.n_vehicles is not None:
        raise ValueError("--n-vehicles and --n-list both give the populations; pass one")
    if args.seeds is not None and args.rng_seed is not None:
        raise ValueError("--seed and --seeds both give the seeds; pass one")
    n_list = (_parse_numbers(args.n_list, "n_vehicles", "--n-list")
              if args.n_list is not None else [cfg.n_vehicles])
    seeds = (_parse_numbers(args.seeds, "rng_seed", "--seeds")
             if args.seeds is not None else [cfg.rng_seed])
    if args.slots < 1:
        raise ValueError("--slots must be >= 1")

    def rel_err(analytic: float, simulated: float) -> float:
        if analytic == simulated:
            return 0.0
        if simulated == 0.0:
            return float("inf")
        return abs(analytic - simulated) / abs(simulated)

    counts = [float(n) for n in n_list]
    models = [evaluate_points(timings, counts, mode) for mode in ("classic", "busy_aware")]
    # one row per (n, seed) job, and one call that runs every job side by side
    jobs = [(n, seed) for n in n_list for seed in seeds]
    chains = [pair for pair in zip(*models) for _ in seeds]
    lines = []
    for (n, seed), (classic, busy), sim in zip(jobs, chains,
                                               _simulate_runs(timings, jobs, args.slots)):
        row = [n, seed, args.slots]
        for get in _CHECKED.values():
            a_cl, a_bu, s = get(classic), get(busy), get(sim)
            row += [a_cl, a_bu, s, rel_err(a_cl, s), rel_err(a_bu, s)]
        lines.append(_COMPARE_FORMAT % tuple(row))
    _emit(args, "compare.csv", _csv_text(_COMPARE_COLUMNS, lines))
    return 0


def cmd_scenario(args) -> int:
    _, cfg = _build_config(args)
    thresholds = _parse_numbers(args.thresholds, "threshold_m", "--thresholds")
    samples = n_eff_samples(cfg.n_vehicles, cfg.road_length_m, thresholds,
                            cfg.trials, cfg.rng_seed, cfg.danger_metric)
    lines = [_SCENARIO_FORMAT % (trial, threshold, count)
             for trial, counts in enumerate(samples)
             for threshold, count in zip(thresholds, counts)]
    _emit(args, "scenario.csv", _csv_text(_SCENARIO_COLUMNS, lines))
    return 0


_COMMANDS = ("point", "sweep", "compare", "scenario")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, with flags for ``command`` alone if named.

    All four commands are registered with their help either way, so the
    top-level usage, help and errors read the same; flags go only to
    ``command``'s subparser, or to all four when ``command`` is None.
    """
    parser = argparse.ArgumentParser(
        prog="dangermac",
        description="Danger-aware V2X MAC model: analytic chain, transmit "
                    "filter, and slot simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate one configuration")
    if command in (None, "point"):
        p_point.add_argument("--out", metavar="DIR")
        _add_config_flags(p_point, _POINT_KEYS)
        p_point.set_defaults(func=cmd_point)

    p_sweep = sub.add_parser("sweep", help="sweep an axis and emit CSV/SVG")
    if command in (None, "sweep"):
        p_sweep.add_argument("--x-axis", choices=("n_vehicles", "threshold_m"),
                             default="n_vehicles")
        p_sweep.add_argument("--values", default="1..50",
                             help="comma list or inclusive range like 1..50")
        p_sweep.add_argument("--thresholds", help="curve thresholds for the n_vehicles "
                                                  f"axis (default {_THRESHOLDS})")
        p_sweep.add_argument("--metrics", default=",".join(SWEEP_METRICS))
        p_sweep.add_argument("--svg", action="store_true")
        p_sweep.add_argument("--out", metavar="DIR")
        _add_config_flags(p_sweep, _SWEEP_KEYS)
        p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="analytic model vs slot simulation")
    if command in (None, "compare"):
        p_cmp.add_argument("--n-list", help="contender counts, e.g. 5,10,20")
        p_cmp.add_argument("--slots", type=int, default=200_000)
        p_cmp.add_argument("--seeds", help="simulator seeds, e.g. 1,2,3")
        p_cmp.add_argument("--out", metavar="DIR")
        _add_config_flags(p_cmp, _COMPARE_KEYS)
        p_cmp.set_defaults(func=cmd_compare)

    p_scn = sub.add_parser("scenario", help="per-trial granted contender counts")
    if command in (None, "scenario"):
        p_scn.add_argument("--thresholds", default=_THRESHOLDS)
        p_scn.add_argument("--out", metavar="DIR")
        _add_config_flags(p_scn, _SCENARIO_KEYS)
        p_scn.set_defaults(func=cmd_scenario)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named command gets only its own flags; --help, a bare call or an
    # unknown word gets every command's
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, WorkerError) as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'not enough memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
