"""Benchmark of the dangermac command line, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_default --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

One run imports ``dangermac`` from ``src/`` of the checkout and calls
``dangermac.cli.main(argv)`` in this process, again and again for
``--seconds`` seconds, each time into a fresh temp directory under
``.bench_out/``. The argv comes from the workload and ``--seed`` (see
``workloads.py``). Every call's output is checked, and every call must
write the same bytes as the first; a call that exits non-zero or fails
either check counts as failed.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
medians of the calls, each scaled by how fast the host ran around it (see
``probe.py``), and the median of fresh imports, scaled the same way.
``--trace 1`` alternates untraced calls with calls traced by ``spans.py``
and reports the per-layer metrics of the traced call with the median wall
time.
``--workload all`` runs every workload with both settings in child
processes and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The machine, the
provenance, every sample and the spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from probe import probe, speed_factor
from spans import Tracer, instrument, layer_metrics, spans_as_json
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_IMPORTS = 15  # fresh interpreters timed per run for setup_s
# Printed for information, not part of the result line.
INFO_UNITS = {"sim_slots_per_s": "1/s", "speed_factor": "1",
              "median_wall_raw_s": "s",
              "trace.self_sum_s": "s"}


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head.strip() if head else None
    ref = head[5:].strip()
    loose = _read(git / ref)
    if loose:
        return loose.strip()
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def src_digest() -> str:
    """SHA-256 over the package sources: identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "dangermac").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_info(loadavg: str | None) -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip()
                for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "loadavg_start": loadavg.strip() if loadavg else None,
    }


IMPORT_COMMAND = [sys.executable, "-c", "import dangermac.cli"]


def time_import() -> float:
    """Wall time of a fresh interpreter that runs ``import dangermac.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run(IMPORT_COMMAND, env=env, check=True)
    return time.perf_counter() - start


def output_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def max_column(out_dir: Path, column: str) -> float:
    """Largest value of ``column`` in compare.csv; 0 when there is none."""
    path = out_dir / "compare.csv"
    if not path.exists():
        return 0.0
    rows = path.read_text().splitlines()
    index = rows[0].split(",").index(column)
    return max(float(row.split(",")[index]) for row in rows[1:])


def one_call(cli, workload, seed: int, tracer: Tracer | None) -> dict:
    """Run the workload once and check what it wrote."""
    out_dir = Path(tempfile.mkdtemp(dir=OUT / "tmp"))
    try:
        argv = workload.argv(seed, out_dir)
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with instrument(tracer):
                    code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a failed run
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - start
        call = {"wall_s": wall, "traced": tracer is not None, "exit": code,
                "problems": [], "rows": 0}
        if code != 0:
            call["problems"].append(f"exit code {code}")
            return call
        try:
            call["rows"], call["problems"] = workload.check(out_dir)
        except (OSError, KeyError, ValueError) as exc:
            call["problems"].append(f"unreadable output: {exc!r}")
            return call
        call["digest"] = output_digest(out_dir)
        call["csv_bytes"] = sum(p.stat().st_size for p in out_dir.glob("*.csv"))
        call["tau_relerr_classic"] = max_column(out_dir, "tau_err_classic")
        call["tau_relerr_busy"] = max_column(out_dir, "tau_err_busy")
        return call
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def measure(cli, workload, seed: int, seconds: int, trace: bool):
    """Calls for ``seconds`` seconds; with ``trace``, every other one traced.

    An untraced run first makes one untimed import that writes the
    bytecode. Then a probe (``probe.py``) runs just before every call and
    once more after the last, and ``SETUP_IMPORTS`` fresh imports, each
    between two probes of its own, are spread evenly over the run between
    calls. A call starts only if a call of median length would end in time,
    so a run overshoots ``seconds`` by little. At least two untraced calls
    (and one traced) run, so that every run has a rerun to compare bytes
    with.
    """
    calls, tracers, probes, setup = [], [], [], []
    if not trace:
        time_import()
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        traced = trace and len(calls) % 2 == 1
        tracer = Tracer() if traced else None
        if not trace:
            while (len(setup) < SETUP_IMPORTS and time.perf_counter()
                   >= start + len(setup) * seconds / SETUP_IMPORTS):
                setup.append((probe(), time_import(), probe()))
            probes.append(probe())
        calls.append(one_call(cli, workload, seed, tracer))
        tracers.append(tracer)
        untraced = sum(not c["traced"] for c in calls)
        typical = statistics.median(c["wall_s"] for c in calls)
        if (time.perf_counter() + typical > deadline and untraced >= 2
                and (not trace or untraced < len(calls))):
            break
    if not trace:
        probes.append(probe())
        while len(setup) < SETUP_IMPORTS:
            setup.append((probe(), time_import(), probe()))
    first = next((c["digest"] for c in calls if "digest" in c), None)
    for call in calls:
        if call.get("digest") not in (None, first):
            call["problems"].append("output differs from the first call's")
    return calls, tracers, probes, setup


def median_index(values: list[float]) -> int:
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


def scaled(samples: list[tuple[float, float, float]]) -> list[float]:
    """Each ``(probe before, time, probe after)`` as a time at reference speed."""
    return [t * speed_factor(before, after) for before, t, after in samples]


def end_to_end(calls: list[dict], setup: list[tuple], probes: list[float]) -> dict:
    """Medians of the calls and of the imports, each scaled by its probes.

    Probe ``i`` runs just before call ``i``, and probe ``i + 1`` follows
    call ``i``, at times after a fresh import.
    """
    good = [i for i, c in enumerate(calls) if not c["problems"]]
    around = [(probes[i], calls[i]["wall_s"], probes[i + 1]) for i in good]
    walls = scaled(around)
    return {
        "wall_s": statistics.median(walls),
        "rows_per_s": statistics.median(calls[i]["rows"] / w
                                        for i, w in zip(good, walls)),
        "setup_s": statistics.median(scaled(setup)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "speed_factor": statistics.median(speed_factor(b, a) for b, _, a in around),
        "median_wall_raw_s": statistics.median(t for _, t, _ in around),
    }


def per_layer(calls: list[dict], tracers: list) -> tuple[dict, list]:
    """Layer metrics of the traced call with the median wall time."""
    good = [i for i, c in enumerate(calls) if not c["problems"]]
    traced = [i for i in good if calls[i]["traced"]]
    plain = [calls[i]["wall_s"] for i in good if not calls[i]["traced"]]
    if not traced or not plain:
        return {}, []
    pick = traced[median_index([calls[i]["wall_s"] for i in traced])]
    metrics = layer_metrics(tracers[pick].spans)
    metrics["cli.csv_bytes"] = calls[pick]["csv_bytes"]
    metrics["slotsim.tau_relerr_classic"] = calls[pick]["tau_relerr_classic"]
    metrics["slotsim.tau_relerr_busy"] = calls[pick]["tau_relerr_busy"]
    metrics["trace.overhead_s"] = (
        statistics.median(calls[i]["wall_s"] for i in traced) - statistics.median(plain))
    return metrics, tracers[pick].spans


def run_one(args, loadavg: str | None) -> int:
    if not (SRC / "dangermac" / "cli.py").is_file():
        print(f"error: no dangermac sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    import dangermac.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "dangermac":
        print(f"error: imported dangermac from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    machine = machine_info(loadavg)
    print("machine:", json.dumps(machine, sort_keys=True))

    workload = WORKLOADS[args.workload]
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    calls, tracers, probes, setup = measure(cli, workload, args.seed, args.seconds,
                                            bool(args.trace))
    failed = sum(bool(c["problems"]) for c in calls)
    for i, call in enumerate(calls):
        for problem in call["problems"]:
            print(f"check failed, call {i}: {problem}", file=sys.stderr)

    units = {e["name"]: e["unit"] for e in declared}
    spans = []
    values: dict = {}
    if failed < len(calls):
        if args.trace:
            values, spans = per_layer(calls, tracers)
        else:
            values = end_to_end(calls, setup, probes)
    correct = failed == 0
    if args.trace and values:
        gap = abs(values["trace.self_sum_s"] - values["trace.wall_s"])
        if gap > 1e-6:
            print(f"check failed: layer self times sum to "
                  f"{values['trace.self_sum_s']} s, traced wall is "
                  f"{values['trace.wall_s']} s", file=sys.stderr)
            correct = False

    samples = sum(not c["traced"] for c in calls)
    print(f"workload {workload.name}, seed {args.seed}, {len(calls)} calls "
          f"({samples} untraced), failed_frac {failed / len(calls):.6g}")
    if not args.trace and values:
        print(f"  setup_s: median of {len(setup)} fresh imports; the others: "
              f"median of {samples} calls; each scaled by the probes around it")
        if workload.sim_slots:
            values["sim_slots_per_s"] = workload.sim_slots / values["wall_s"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for name, unit in INFO_UNITS.items():
        if name in values:
            print(f"  ({name} = {values[name]:.6g} {unit})")
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        correct = False

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "argv": workload.argv(args.seed, Path("OUT_DIR")),
              "machine": machine, "calls": calls, "probes_s": probes,
              "setup_s": setup, "values": values}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans_as_json(spans)))
    print(json.dumps({"correct": correct, "attempted": len(calls),
                      "failed": failed, "metrics": metrics}))
    return 0


# Layer self times, in the order of the table printed by ``--workload all``.
LAYER_SELF = ("scenario.s", "markov.s", "pipeline.self_s", "metrics.s",
              "slotsim.s", "charts.s", "cli.self_s", "config.load_s")


def run_all(args, loadavg: str | None) -> int:
    """Every workload, untraced then traced, each in a child process."""
    OUT.mkdir(exist_ok=True)
    summary = {"seed": args.seed, "seconds": args.seconds,
               "loadavg_start": loadavg, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        entry = summary["workloads"][name] = {}
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            sys.stdout.write("".join(f"{line}\n" for line in lines[:-1]))
            if done.returncode != 0 or not lines:
                print(f"error: {name} --trace {trace} exited {done.returncode}",
                      file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            entry[f"trace{trace}"] = result
            if trace == 0:
                entry["machine"] = json.loads(lines[0].split(":", 1)[1])
                entry["failed_frac"] = result["failed"] / result["attempted"]
            else:
                layer = {k: v["value"] for k, v in result["metrics"].items()}
                wall = layer["trace.wall_s"]
                entry["self_s_sum"] = sum(layer[k] for k in LAYER_SELF)
                entry["shares"] = {k.split(".")[0]: layer[k] / wall
                                   for k in LAYER_SELF}
    print()
    print("share of traced wall time by layer (self time)")
    print(f"{'layer':<10}" + "".join(f"{w:>17}" for w in WORKLOADS))
    for key in LAYER_SELF:
        layer = key.split(".")[0]
        cells = [summary["workloads"][w].get("shares", {}).get(layer)
                 for w in WORKLOADS]
        print(f"{layer:<10}" + "".join(
            f"{c:>16.1%} " if c is not None else f"{'-':>17}" for c in cells))
    path = OUT / f"summary-seed{args.seed}.json"
    path.write_text(json.dumps(summary, indent=1))
    print(f"summary written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": ok, "workloads": list(WORKLOADS)}))
    return 0 if ok else 1


def main() -> int:
    loadavg = _read("/proc/loadavg")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed, >= 0; the CLI's --seed")
    parser.add_argument("--seconds", type=int, required=True,
                        help="how long one run keeps calling the CLI")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args, loadavg)
    return run_one(args, loadavg)


if __name__ == "__main__":
    sys.exit(main())
