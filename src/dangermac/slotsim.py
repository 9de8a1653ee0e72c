"""Slot-level Monte Carlo simulation of n saturated backoff stations.

Time advances in logical channel slots: a slot is idle, a success (exactly
one station at counter zero), or a collision. Every station's counter
ticks once per slot, so a busy slot costs bystanders one countdown step.
The simulator counts slots and nothing else, which keeps it on the same
slot axis as the analytic chain: a like-for-like empirical check on tau
and the slot access probabilities.

A successful station redraws at stage 0; every station involved in a
collision advances one stage (capped at the top) and redraws over its new
window. A counter over window w is ``getrandbits(k)`` with
``k = (w - 1).bit_length()``, drawn again while it is w or more: exactly
uniform on every window the config accepts, one 32-bit Mersenne-Twister
word per draw up to w = 2**32, and under two draws on average. ``run`` is
deterministic given its seed.

The calendar is a timing wheel (Varghese & Lauck, SOSP 1987): a fixed
ring of 1,024 per-slot station lists that the run scans a lap at a time,
with the rare counter of 1,023 or more parked in a small overflow heap.
Memory is O(1,024 + n) for every window the config accepts. An attempt
costs O(1) calendar work where a heap of n keys cost O(log n): at the
default geometry, 200,000 slots, seed 1 (2-core Xeon, Python 3.11.7,
medians of 10 runs), an attempt takes 0.28, 0.29, 0.33 and 0.37 us at
n = 2, 5, 50 and 500. The wheel steps over idle slots at 19-29 ns each,
which shows in sparse runs: n = 2 at w0 1024 takes 1.24 ms per 50,000
slots, where a heap took 0.10 ms. While every station waits in the
overflow heap the ring is empty and is not scanned: the run jumps to the
first due key's slot, and a scan that leaves the ring empty stops there.
A jump may land mid-lap, and the scan starts there without stepping over
the lists before it, so n = 2 at 2**32-slot windows takes 0.35-0.42 ms
per 10**6 slots, about 0.15 ms of it the run's fixed set-up.
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush
from itertools import compress, islice
from random import Random
from typing import NamedTuple

from .markov import ChainGeometry


class SimStats(NamedTuple):
    slots: int
    tx_slots: int            # slots with at least one transmitter
    success_slots: int       # slots with exactly one
    attempts: int            # transmissions, summed over stations
    tagged_pair_slots: int   # station 0 colliding with exactly one other


def run(n: int, slots: int, g: ChainGeometry, seed: int) -> SimStats:
    """Simulate ``slots`` slots after discarding a 1% warm-up stretch.

    Implemented event to event over a timing wheel: with every counter
    ticking each slot, a station drawing counter c in slot t transmits
    next in slot t + 1 + c. Slot s's stations are listed in
    ``ring[s % 1024]``. A lap scans the ring from index i0 with
    ``compress`` over a list ``offsets`` of the ring's indices and over the
    ring, both as list iterators set to start at i0. That skips empty lists
    in C, so an idle slot runs no Python bytecode and allocates nothing. A list
    with one station is a success; a longer one is sorted, so a
    collision's stations redraw in index order. A counter below 1,023
    lands in a later list of this lap or an earlier one of the next,
    never in the list being read. A larger counter, possible only in a
    window above 1,023, waits in an overflow heap as the key
    ``(due slot << bits) | station`` with ``bits = n.bit_length()``, and
    each pass over a lap starts by moving the keys due in the lap onto
    the ring. The stations start in that heap, as if each had drawn in
    slot -1.

    A counter is drawn from ``Random(seed).getrandbits`` by the rule in
    the module docstring, from a per-stage ``(bits, window)`` table. The
    stations start in index order and a slot's transmitters redraw in
    index order, which fixes the draw order a slot-by-slot replay must
    follow. With every station in the overflow heap the ring is empty, so
    a scan that leaves it so stops at that slot, and the run moves to the
    heap's first due slot, or to the end of the warm-up or of the run if
    that comes first, so the warm-up split stays where it was.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1 (got {n})")
    if n > sys.maxsize:  # the station list could not be built
        raise ValueError(f"n must be <= {sys.maxsize}")
    if slots < 1:
        raise ValueError(f"slots must be >= 1 (got {slots})")
    if seed < 0:  # Random(-s) would silently replay Random(s)
        raise ValueError(f"seed must be >= 0 (got {seed})")
    rand = Random(seed).getrandbits
    top = g.max_stage
    # each stage's (bits, window) for the draw rule above
    draws = [((w - 1).bit_length(), w) for w in map(g.window, range(top + 1))]
    k0, w0 = draws[0]
    up = [min(i + 1, top) for i in range(top + 1)]  # stage after a collision
    stages = [0] * n
    bits = n.bit_length()
    mask = (1 << bits) - 1
    warmup = slots // 100
    horizon = warmup + slots

    ring = [[] for _ in range(1024)]
    offsets = list(range(1024))  # a range would make an int per slot scanned
    # ahead[i + c] is ring[(i + 1 + c) % 1024] for i < 1024 and c < 1023:
    # the list of the slot a counter c drawn in ring slot i is due in
    ahead = (ring * 2)[1:]
    overflow = []
    for j in range(n):
        c = rand(k0)
        while c >= w0:
            c = rand(k0)
        overflow.append((c << bits) | j)
    heapify(overflow)

    # run the warm-up, then the measured slots, with the counts reset between
    t = 0
    for end in (warmup, horizon):
        success_slots = collision_slots = collided = tagged_pair_slots = 0
        while t < end:
            if len(overflow) == n:
                # the ring is empty: go to the first key's slot, or to the
                # stretch's end if that comes first
                t = min(overflow[0] >> bits, end)
            i0 = t & 1023
            base = t - i0
            limit = (base + 1024) << bits
            while overflow and overflow[0] < limit:
                key = heappop(overflow)
                ring[(key >> bits) & 1023].append(key & mask)
            stop = min(end - base, 1024)
            # both scans start at i0 by setting the list iterators' index, in
            # O(1); islice(x, i0, stop) would step over the i0 entries first
            at, lists = iter(offsets), iter(ring)
            at.__setstate__(i0)
            lists.__setstate__(i0)
            for i in compress(islice(at, stop - i0), lists):
                here = ring[i]
                j = here.pop()
                if not here:  # one due: a success
                    stages[j] = 0
                    success_slots += 1
                    c = rand(k0)
                    while c >= w0:
                        c = rand(k0)
                    if c < 1023:
                        ahead[i + c].append(j)
                    else:
                        heappush(overflow, ((base + i + 1 + c) << bits) | j)
                        if len(overflow) == n:  # the ring is empty: end the scan here
                            stop = i + 1
                            break
                    continue
                here.append(j)
                here.sort()
                m = len(here)
                collided += m
                collision_slots += 1
                if m == 2 and here[0] == 0:
                    tagged_pair_slots += 1
                for j in here:
                    stages[j] = stage = up[stages[j]]
                    k, w = draws[stage]
                    c = rand(k)
                    while c >= w:
                        c = rand(k)
                    if c < 1023:
                        ahead[i + c].append(j)
                    else:
                        heappush(overflow, ((base + i + 1 + c) << bits) | j)
                here.clear()
            t = base + stop

    return SimStats(slots, success_slots + collision_slots, success_slots,
                    success_slots + collided, tagged_pair_slots)
