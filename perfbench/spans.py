"""In-memory span tracing of the dangermac layers, applied from outside.

``instrument(tracer)`` replaces each function in ``TRACED`` by a wrapper
that records a span (name, start, end, parent) and restores the originals
on exit. A function is replaced in every loaded ``dangermac`` module that
holds it, because names bound with ``from .x import f`` are looked up in
the importing module: ``dangermac.cli.evaluate_point``,
``dangermac.cli.run_sim`` and ``dangermac.pipeline.solve_fixed_point`` are
the objects the program actually calls. No file under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# Layer (module) -> functions wrapped at its boundary. Only functions that
# are called across a module boundary are wrapped: the per-trial helpers
# inside ``scenario.n_eff_samples`` run 50,000 times in a default sweep,
# and a span each would cost more than the work it measures. Their time is
# part of the scenario layer's self time.
TRACED = {
    "cli": ("main",),
    "config": ("load_config",),
    "scenario": ("n_eff_samples",),
    "markov": ("solve_fixed_point",),
    "pipeline": ("evaluate_point", "geometry_from", "metric_value"),
    "metrics": ("access_probabilities", "delay_state_probabilities",
                "frame_times", "pdr", "throughput", "total_delay"),
    "slotsim": ("run",),
    "charts": ("line_chart",),
}

# Counts recorded at the span boundary, taken from the call's result.
NOTES = {
    "scenario.n_eff_samples": lambda out: {"trials": out.shape[0],
                                           "threshold_checks": out.size},
    "markov.solve_fixed_point": lambda out: {"iterations": out.iterations,
                                             "residual": out.residual},
    "slotsim.run": lambda out: {"tx_events": out.tx_slots},
    "charts.line_chart": lambda out: {"svg_bytes": len(out.encode())},
}

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    """Spans of one traced run, each ``[name, start, end, parent, notes]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, note=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else None, None]
            open_.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()
            if note is not None:
                span[NOTE] = note(result)
            return result

        return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every call of a ``TRACED`` function through ``tracer``."""
    modules = [m for key, m in sorted(sys.modules.items())
               if key == "dangermac" or key.startswith("dangermac.")]
    patched = []
    try:
        for layer, names in TRACED.items():
            home = sys.modules[f"dangermac.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                name = f"{layer}.{fname}"
                wrapper = tracer.wrap(name, original, NOTES.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times of one traced ``cli.main`` call."""
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    notes: dict[str, float] = defaultdict(float)
    max_residual = 0.0
    for span, t in zip(spans, own):
        layer = span[NAME].split(".", 1)[0]
        self_s[layer] += t
        calls[layer] += 1
        for key, value in (span[NOTE] or {}).items():
            if key == "residual":
                max_residual = max(max_residual, value)
            else:
                notes[f"{layer}.{key}"] += value
    roots = [s for s in spans if s[PARENT] is None]
    trials = notes["scenario.trials"]
    solves = calls["markov"]
    tx_events = notes["slotsim.tx_events"]
    return {
        "scenario.calls": calls["scenario"],
        "scenario.trials": int(trials),
        "scenario.threshold_checks": int(notes["scenario.threshold_checks"]),
        "scenario.s": self_s["scenario"],
        "scenario.us_per_trial": 1e6 * self_s["scenario"] / trials if trials else 0.0,
        "markov.solves": solves,
        "markov.iterations": int(notes["markov.iterations"]),
        "markov.s": self_s["markov"],
        "markov.us_per_solve": 1e6 * self_s["markov"] / solves if solves else 0.0,
        "markov.max_residual": max_residual,
        "pipeline.calls": calls["pipeline"],
        "pipeline.self_s": self_s["pipeline"],
        "metrics.calls": calls["metrics"],
        "metrics.s": self_s["metrics"],
        "slotsim.runs": calls["slotsim"],
        "slotsim.tx_events": int(tx_events),
        "slotsim.s": self_s["slotsim"],
        "slotsim.us_per_event": 1e6 * self_s["slotsim"] / tx_events if tx_events else 0.0,
        "charts.calls": calls["charts"],
        "charts.s": self_s["charts"],
        "charts.svg_bytes": int(notes["charts.svg_bytes"]),
        "cli.self_s": self_s["cli"],
        "config.load_s": self_s["config"],
        "trace.wall_s": sum(s[END] - s[START] for s in roots),
        "trace.self_sum_s": sum(own),
    }


def spans_as_json(spans: list[list]) -> list[dict]:
    """Spans with times in seconds from the first span's start."""
    origin = spans[0][START] if spans else 0.0
    return [{"name": s[NAME], "start": s[START] - origin, "end": s[END] - origin,
             "parent": s[PARENT], "notes": s[NOTE]} for s in spans]
