"""Host-speed calibration: a fixed pure-Python loop timed between ops.

On a shared host the same code runs at speeds up to 1.8x apart, over
periods of seconds to minutes.  Process CPU time moves with wall time, so
the process cannot see such a slowdown except by timing known work.  A
calibration slice does the same kind of work as the classifier engine:
shift, mask, XOR and a 512-row table lookup on a 1744-bit integer.  It
shares no code with the library, so no change to the library can move it.

An op's time is scaled by REFERENCE_S / (median time of the slices
nearest the op, NEAR on each side).  The result reads as it would on this
host when a slice takes REFERENCE_S, which is about its median time on a
2-vCPU Xeon VM under Python 3.11.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

BITS = 1744
ITERATIONS = 2000
REFERENCE_S = 0.001    # one slice at reference speed
NEAR = 2               # slices on each side of an op whose median sets its scale
EVERY_S = 0.025        # a slice runs before the first op that starts this long after the last slice


class Speed:
    """Calibration slices taken through a run, and the scale they give each op."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        rng = random.Random(0)
        self._table = tuple(rng.getrandbits(BITS) for _ in range(512))
        self.times: list[float] = []     # when each slice ended
        self.slices: list[float] = []    # how long each slice took
        for _ in range(NEAR):
            self.sample()

    def _slice(self) -> float:
        table, mask, shift = self._table, (1 << (BITS - 9)) - 1, BITS - 9
        reg = table[1]
        start = self.clock()
        for i in range(ITERATIONS):
            reg = (((reg & mask) << 9) | (i & 511)) ^ table[reg >> shift]
        return self.clock() - start

    def sample(self) -> None:
        """Time one slice."""
        took = self._slice()
        self.slices.append(took)
        self.times.append(self.clock())
        self.next_at = self.times[-1] + EVERY_S

    def maybe_sample(self) -> None:
        """Time one slice if one is due."""
        if self.clock() >= self.next_at:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor to reference speed for work done between start and end.

        Uses the median of the NEAR slices before start and the NEAR
        slices after end, so a slowdown during a long op is seen from
        both sides.
        """
        before = bisect.bisect_left(self.times, start)
        after = bisect.bisect_right(self.times, end)
        near = self.slices[max(0, before - NEAR):before] + self.slices[after:after + NEAR]
        return REFERENCE_S / statistics.median(near)
