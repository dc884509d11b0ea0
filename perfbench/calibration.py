"""CPU-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts: on a 2-vCPU
virtual machine (Intel Xeon, shared host), this module's loop took
anywhere from 0.6 to 1.1 ms from one minute to the next.
Timings are therefore reported at a reference speed: a time measured
while the loop took `s` seconds is scaled by REFERENCE_SLICE_S / s, with
`s` the median of slices taken while the work ran.

The slices are taken on a timer signal (SliceTimer), so they sample the
whole of a batch evenly, the seconds of a long search included.  On that
machine, over twelve batches of the same curves operations, this cut the
spread of the batch times (standard deviation over mean) from 0.069
unscaled to 0.037; slices taken only between operations, which miss the
seconds a long operation runs, raised it to 0.116.
"""

from __future__ import annotations

import signal
import statistics
import time

CALIBRATION_LOOP = 4000
# The loop's time at the usual speed of that machine.
REFERENCE_SLICE_S = 0.0007


def calibration_slice() -> float:
    """Seconds for a fixed pure-Python loop that does not use braidfact.

    The loop keeps only ints, which the garbage collector does not track:
    a slice taken inside an operation must not move the point at which the
    collector next runs, or a collection the program would have paid for
    could run inside the slice and be taken out of its time.
    """
    t0 = time.perf_counter()
    acc, table = 0, {}
    for k in range(CALIBRATION_LOOP):
        table[k & 63] = acc
        acc = (acc * 31 + k) % 1000003
    return time.perf_counter() - t0


def speed_factor(slices) -> float:
    """Multiply a time measured alongside these slices by this factor."""
    return REFERENCE_SLICE_S / statistics.median(slices)


class SliceTimer:
    """Takes a calibration slice every `every` seconds of wall time, inside
    whatever Python code is running, from a SIGALRM handler.

    `slices` are the slices' times and `pauses` the (start, end) of each
    handler run, in time.perf_counter() readings, so that the caller can
    take them out of what it measures.  With every=None it takes none.
    """

    def __init__(self, every: float | None):
        self.every = every
        self.slices: list[float] = []
        self.pauses: list[tuple[float, float]] = []

    def _take(self, signum, frame):
        t0 = time.perf_counter()
        self.slices.append(calibration_slice())
        self.pauses.append((t0, time.perf_counter()))

    def paused(self, start: float, end: float, since: int = 0) -> float:
        """Seconds of handler runs between start and end, looking only at
        pauses[since:]."""
        return sum(e - s for s, e in self.pauses[since:] if s >= start and e <= end)

    def __enter__(self):
        if self.every:
            self._previous = signal.signal(signal.SIGALRM, self._take)
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        if self.every:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
