"""Slot-level Monte Carlo simulation of n saturated backoff stations.

Time advances in logical channel slots: a slot is idle, a success (exactly
one station at counter zero), or a collision. Every station's counter
ticks once per slot, so a busy slot costs bystanders one countdown step.
The simulator counts slots and nothing else, which keeps it on the same
slot axis as the analytic chain: a like-for-like empirical check on tau
and the slot access probabilities.

A successful station redraws at stage 0; every station involved in a
collision advances one stage (capped at the top) and redraws over its new
window. ``run`` is deterministic given its seed.

The calendar is one binary heap holding one int key per station,
``(due slot << bits) | station``, so stepping from one transmission slot
to the next skips idle stretches and never scans all n stations.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from random import Random

from .markov import ChainGeometry


@dataclass(frozen=True)
class SimStats:
    slots: int
    tx_slots: int            # slots with at least one transmitter
    success_slots: int       # slots with exactly one
    attempts: int            # transmissions, summed over stations
    tagged_pair_slots: int   # station 0 colliding with exactly one other


def run(n: int, slots: int, g: ChainGeometry, seed: int) -> SimStats:
    """Simulate ``slots`` slots after discarding a 1% warm-up stretch.

    Implemented event to event over a calendar queue: with every counter
    ticking each slot, a station drawing counter c in slot t transmits
    next in slot t + 1 + c. The calendar is one binary heap of n keys
    ``(due slot << bits) | station`` with ``bits = n.bit_length()``, so a
    slot's transmitters leave it in index order. The second-smallest key
    is a child of the root, so a success is seen by reading ``heap[1]``
    and ``heap[2]`` and costs one ``heapreplace``; each station in a
    collision is ``heapreplace``d too, to a slot past t. Two padding keys
    past the horizon keep both children present for n = 1 and 2. A
    counter is ``floor(u * window)`` of the next ``Random(seed).random()``
    uniform; the stations start in index order and a slot's transmitters
    redraw in index order, which fixes the draw order a slot-by-slot
    replay must follow.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1 (got {n})")
    if n > sys.maxsize:  # the station list could not be built
        raise ValueError(f"n must be <= {sys.maxsize}")
    if slots < 1:
        raise ValueError(f"slots must be >= 1 (got {slots})")
    if seed < 0:  # Random(-s) would silently replay Random(s)
        raise ValueError(f"seed must be >= 0 (got {seed})")
    draw = Random(seed).random
    windows = [g.window(i) for i in range(g.max_stage + 1)]
    w0 = windows[0]
    top = g.max_stage
    stages = [0] * n
    bits = n.bit_length()
    mask = (1 << bits) - 1
    warmup = slots // 100
    horizon = warmup + slots

    # the two padding keys lie past the horizon and keep heap[1] and
    # heap[2] valid for n = 1 and 2
    heap = [horizon << bits] * 2
    for j in range(n):
        c = int(draw() * w0)
        heap.append(((c if c < w0 else w0 - 1) << bits) | j)
    heapq.heapify(heap)
    replace = heapq.heapreplace

    # run the warm-up, then the measured slots, with the counts reset between
    for end in (warmup, horizon):
        success_slots = collision_slots = collided = tagged_pair_slots = 0
        limit = end << bits
        while (key := heap[0]) < limit:
            # keys below nxt are due in this slot
            nxt = (key | mask) + 1
            if heap[1] >= nxt and heap[2] >= nxt:
                # the second-smallest key is a child of the root: one due
                stages[key & mask] = 0
                c = int(draw() * w0)
                replace(heap, key + (((c if c < w0 else w0 - 1) + 1) << bits))
                success_slots += 1
                continue
            first = key & mask
            k = 0
            while key < nxt:
                j = key & mask
                stage = stages[j] + 1
                if stage > top:  # min() here made run about 20% slower
                    stage = top
                stages[j] = stage
                w = windows[stage]
                c = int(draw() * w)
                # the new slot is a later one, so j is not popped again here
                replace(heap, key + (((c if c < w else w - 1) + 1) << bits))
                k += 1
                key = heap[0]
            collision_slots += 1
            collided += k
            if k == 2 and first == 0:
                tagged_pair_slots += 1

    return SimStats(slots, success_slots + collision_slots, success_slots,
                    success_slots + collided, tagged_pair_slots)
