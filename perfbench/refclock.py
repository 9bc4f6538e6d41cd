"""Fixed pure-Python loops that measure how fast the host runs Python now.

The benchmark runs on a few cores of a shared machine whose speed drifts
by a fifth or more from one half-minute to the next, and every program on
it, these loops included, slows down and speeds up together.  run.py
times the loops right before and right after each operation it measures
and reports every time scaled to one fixed reference speed:

    scaled = measured * NOMINAL_S / (mean of the two loop times around it)

A sample is two loops of about equal length: one of integer arithmetic
and small-dict updates, which follows the speed of the core, and one that
chases indices through a 4 MB table, which follows the memory contention
of the shared host.  The loops are the benchmark's own code, so no change
to endoclass changes their time.  They run with the garbage collector off
and allocate nothing the collector tracks, so a large heap in the process
that times them does not slow them down; the table adds 4 MB to the
resident set of a process that samples.

    python3 perfbench/refclock.py      # prints a few loop times
"""

from __future__ import annotations

import functools
import gc
import time
from array import array

# A sample's time at the reference speed: about its median on a 2-core
# x86-64 host with CPython 3.11.  Scaled times are seconds at that speed.
NOMINAL_S = 0.2
ITERATIONS = 400_000
CHASE_STEPS = 500_000
CHASE_BITS = 20

_TABLE = tuple((i * 167 + 13) & 255 for i in range(256))


@functools.cache
def _chase_table() -> array:
    """2**CHASE_BITS indices forming one cycle, j -> (5 j + 1) mod 2**CHASE_BITS,
    so that the chase jumps across the whole table."""
    mask = (1 << CHASE_BITS) - 1
    return array("I", ((5 * j + 1) & mask for j in range(mask + 1)))


def sample() -> float:
    """Seconds one run of both loops takes right now."""
    table, chase = _TABLE, _chase_table()
    counts: dict[int, int] = {}
    acc, j = 1, 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(ITERATIONS):
            a = table[i & 255]
            b = table[(i >> 3) & 255]
            acc = (acc * 31 + (a ^ b)) & 0xFFFF
            counts[a] = counts.get(a, 0) + b
        for _ in range(CHASE_STEPS):
            j = chase[j]
        seconds = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    return seconds


if __name__ == "__main__":
    print(" ".join(f"{sample():.4f}" for _ in range(10)))
