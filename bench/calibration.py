"""Machine speed, measured alongside what the benchmark times.

On a shared host the same operation's wall time swings by 20-40% within a
minute as other tenants load the machine, and the swings last from seconds
to minutes, so no run short enough for the benchmark averages them out.
A fixed pure-Python loop (`calibration_slice`) slows down with the program:
run in the benchmark's own thread, at the same moments as an operation, its
time tracks the operation's time with a correlation above 0.9.

`reference_seconds` turns a wall time into seconds at the reference speed,
the speed at which one slice takes REF_SLICE_S: the wall time, less the time
the slices themselves took, times the mean of REF_SLICE_S / slice time.
A change to the program moves that figure as it moves the wall time; a
change in the load of other tenants moves both the wall time and the slices,
and cancels.

This module imports nothing outside the standard library, so that a fresh
interpreter can load it before timing its own set-up.
"""

from __future__ import annotations

import signal
import time
from array import array

CAL_ITERS = 6000
# About the slice's median time on the host the benchmark was tuned on, so
# that reference seconds read close to wall seconds there.
REF_SLICE_S = 0.6e-3
# One slice every PERIOD_S during an operation costs about 1% of its time.
PERIOD_S = 0.05
# Slices taken before and after a span too short to sample inside.
BRACKET_SLICES = 8


def calibration_slice() -> float:
    """Seconds one fixed pure-Python loop takes now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CAL_ITERS):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


def reference_seconds(wall: float, slices, own: float = 0.0) -> float:
    """`wall - own` seconds, scaled to the reference speed that `slices`
    (calibration slice times) measured."""
    rate = sum(REF_SLICE_S / s for s in slices) / len(slices)
    return (wall - own) * rate


class Sampler:
    """Calibration slices every PERIOD_S seconds, from a SIGALRM timer, for
    the duration of a `with` block in the main thread."""

    def __enter__(self) -> "Sampler":
        self.slices = array("d")
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        self.slices.append(calibration_slice())

    def reference_seconds(self) -> float:
        """The block's wall time at the reference speed."""
        return reference_seconds(self.wall, self.slices, sum(self.slices))
