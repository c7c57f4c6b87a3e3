"""Op timing corrected for the speed of a shared host.

A host shared with other machines runs the same Python code at speeds
that differ by up to about 1.8x, and it switches between them within
seconds or stays slow for minutes.  CPU time moves with wall time, so
neither hides the switch.  The benchmark therefore times a fixed probe
after every op: pure Python work of the kind the library does
(``Fraction`` sums in a dict keyed by tuples) that calls no library code,
so no change to the library can change it.  The probe runs twice with
the garbage collector paused, and its time is the faster of the two: a
collection of the library's heap, or an interrupt, would otherwise read
as a slow host.

An op's scaled time is its measured time times the ratio of
``REFERENCE_PROBE_S`` to the host's pace, raised to ``EXPONENT``; the
pace is the median of the probes that end within ``WINDOW_S`` of the op,
which always takes in the probe that follows it.  ``REFERENCE_PROBE_S``
is about the probe's time on a 2-vCPU x86-64 cloud host at full speed.

The exponent is measured, not derived.  On that host the library's op
times moved with a power of the probe's time below one (a log-log slope
of 0.56 over 79 passes of four catalog fixtures): the probe is short and
compute-bound and feels a busy neighbour more than the library's longer
ops do.  Over six seeds of every workload, run
while the host switched speed, scaling by the full ratio left the
metrics spread by up to 17% (quartile distance over median), the square
root by up to 13%, and the 0.75th power by at most 7%; unscaled, up to
27%.  A window of 0.3 s did better than 1 or 2 s.
"""
from __future__ import annotations

import bisect
import dataclasses
import gc
import statistics
import time
from fractions import Fraction
from typing import Callable

PROBE_TERMS = 3000
REFERENCE_PROBE_S = 0.0075
EXPONENT = 0.75
WINDOW_S = 0.3


def _work() -> float:
    t0 = time.perf_counter()
    acc: dict[tuple, Fraction] = {}
    for i in range(PROBE_TERMS):
        key = (i % 97, i * 7 % 31, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 13, 7)
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds for the fixed probe work, about 8 ms at full speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_work(), _work())
    finally:
        if enabled:
            gc.enable()


@dataclasses.dataclass
class Timing:
    start: float                      # time.perf_counter() values
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Clock:
    """Times calls; with ``calibrate``, probes the host after each one.

    Without ``calibrate`` (the benchmark's tests) no probe runs and a
    scaled time is the measured time.
    """

    def __init__(self, calibrate: bool = False):
        self.calibrate = calibrate
        self.probe_times: list[float] = []    # when each probe ended
        self.probes: list[float] = []         # its seconds
        if calibrate:
            self.sample()

    def sample(self) -> None:
        """Run the probe once and keep its time."""
        seconds = probe()
        self.probe_times.append(time.perf_counter())
        self.probes.append(seconds)

    def time(self, body: Callable, *args):
        """(timing, result, exception) of one call."""
        t0 = time.perf_counter()
        try:
            result, exc = body(*args), None
        except Exception as err:       # an op that raises counts as failed
            result, exc = None, err
        timing = Timing(t0, time.perf_counter())
        if self.calibrate:
            self.sample()
        return timing, result, exc

    def pace(self, timing: Timing) -> float:
        """Median probe seconds within ``WINDOW_S`` of a timed call."""
        lo = bisect.bisect_left(self.probe_times, timing.start - WINDOW_S)
        hi = bisect.bisect_right(self.probe_times, timing.end + WINDOW_S)
        # the probe after the call ends within the window, as it takes
        # far less than WINDOW_S
        return statistics.median(self.probes[lo:hi])

    def scaled(self, timing: Timing) -> float:
        """Seconds on a host that runs the probe in ``REFERENCE_PROBE_S``."""
        if not self.calibrate:
            return timing.seconds
        return timing.seconds * (REFERENCE_PROBE_S / self.pace(timing)) ** EXPONENT
