"""Machine-speed calibration for a shared, noisy host.

On a host shared with other tenants the same pure-Python work can take 40 %
longer from one minute to the next.  The run times a fixed calibration
slice, written without the library, about ten times a second between cases,
and scales each case's time by ``REFERENCE_S / median(nearby slice times)``:
the times a run reports are those of a machine on which the slice takes
``REFERENCE_S``.  The slice does small-object arithmetic and method calls,
the same kind of work as the library's, so a slowdown of the host stretches
both alike and cancels, while a change to the library moves only the cases.
"""

from __future__ import annotations

import gc
import statistics
import time

# median slice time on the host this benchmark was written on
REFERENCE_S = 1.0e-3
INTERVAL_S = 0.1
# a case is scaled by the median of the 2 * WINDOW + 1 slices around it
WINDOW = 2


class _Elem:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        return _Elem(self.v * other.v % 101)

    def __add__(self, other):
        return _Elem((self.v + other.v) % 101)


def _slice():
    """Small-object arithmetic, method calls and tuple slicing, with the
    garbage collector paused so that the time does not depend on how many
    objects the library keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        elems = [_Elem(v) for v in range(1, 41)]
        acc = _Elem(0)
        for x in elems:
            for y in elems:
                acc = acc + x * y
        row = tuple(range(50))
        for i in range(400):
            acc.v += len(row[i % 7:i % 13 + 20])
    finally:
        if enabled:
            gc.enable()
    return acc.v


class Speed:
    """Calibration slices taken through a run, in order."""

    def __init__(self):
        self.samples = []
        self._last = 0.0

    def sample(self):
        start = time.perf_counter()
        _slice()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._last = end

    def maybe_sample(self):
        """One slice if none was taken in the last ``INTERVAL_S``; returns
        the index of the latest slice."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()
        return len(self.samples) - 1

    def factor(self, lo=0, hi=None):
        """Multiply a time measured while slices ``lo:hi`` were taken by
        this to get reference-host time."""
        return REFERENCE_S / statistics.median(self.samples[lo:hi])

    def factor_near(self, i):
        """The factor over the slices around slice ``i``."""
        return self.factor(max(0, i - WINDOW), i + WINDOW + 1)
