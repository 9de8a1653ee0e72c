"""A fixed reference job that measures how fast the host runs right now.

The shared host the benchmark was sized on slows down by up to 2x, in
bursts of a fraction of a second and in spells that last minutes, and a
slow spell hits both cores at once. Process time rises with wall time, so
it is a slower CPU, not preemption. ``probe()`` runs the same work every
time, before and after each of the workload's calls, and ``run.py``
scales each call by how fast the host ran around it (see
``speed_factor``). The probe's code never changes with the
program, so a change to the program moves the scaled times by its own
effect.

The job mixes the two kinds of work the dangermac calls do: interpreted
Python (the slot simulator's event loop, argument and CSV handling) and
many small numpy operations (a generator per placement, distance filters,
the fixed-point solver's vector updates). Its arrays are small, so it does
not move ``peak_rss_mb``.
"""

from __future__ import annotations

import time

import numpy as np

# The probe's time, in seconds, on the host the benchmark was sized on
# (2-core Intel Xeon at 2.0 GHz, Python 3.11.7, numpy 2.4.6) in its fast
# state. Scaled times read as seconds on that host at its fastest.
REFERENCE_S = 0.0170


def _interpreted() -> int:
    state = [0] * 64
    total = 0
    for i in range(60_000):
        j = i & 63
        state[j] = (state[j] * 31 + i) % 1_000_003
        if state[j] & 1:
            total += j
    return total


def _numpy_small() -> float:
    total = 0.0
    for trial in range(300):
        rng = np.random.default_rng([17, trial])
        x = rng.uniform(0.0, 1000.0, 50)
        near = np.abs(x[:, None] - x[None, :]) <= 300.0
        counts = near.sum(axis=1)
        p = np.exp(-counts / 50.0)
        total += float(p @ x) + int(rng.integers(0, 32))
    return total


def probe() -> float:
    """Wall time of one run of the reference job."""
    start = time.perf_counter()
    _interpreted()
    _numpy_small()
    return time.perf_counter() - start


def speed_factor(before_s: float, after_s: float) -> float:
    """How fast the host ran around a call, from the probes on each side.

    ``REFERENCE_S`` over the faster of the two probe times: below 1 on a
    slower host. The faster one, because a burst can double a probe as
    short as this one, while a call lasts long enough to average bursts
    over.
    """
    return REFERENCE_S / min(before_s, after_s)
