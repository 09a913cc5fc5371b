"""Host-speed probe: steadies timings taken on a shared host.

On a shared host the speed of pure Python code drifts by a quarter or more,
switching every second or so and in phases lasting minutes, so that two runs
of the same calls can differ by a third.  The probe is a fixed piece of
pure-Python complex arithmetic, independent of the library: a 15-point
Gauss-Kronrod sum of ``(1 - u**n)**(-(n-1)/n)``, the shape of squig's inner
loop.  While the benchmark's calls run, a wall-clock timer (SIGALRM, in the
benchmark's only thread) runs one slice of it every EVERY_S, wherever the
thread is.  Each call's time then excludes the slices that ran inside it and
is scaled by ``REFERENCE_S / (trimmed mean of the slices during the call)``,
or of the nearest MIN_READINGS slices for a short call.  A reported time is
thus the time the call would take on a host where one slice takes
REFERENCE_S.

Measured on a 2-vCPU shared host: fixed ``sin_n`` batches moved by +-20%
between 7-second windows while their ratio to the probe moved by +-2%; for
``maclaurin(ctx, 80)`` and ``run_all()`` calls, the quartile distance of the
per-call time fell from 0.06-0.11 of the median to 0.014-0.017.
"""

from __future__ import annotations

import cmath
import gc
import signal
import statistics
from bisect import bisect_left
from time import perf_counter

# one slice's time at the reference host speed (about this host's median)
REFERENCE_S = 0.0006
EVERY_S = 0.02      # timer period; one slice per period costs about 3%
MIN_READINGS = 8    # readings behind the scale of a call
TRIM = 0.1          # share of readings dropped at each end before the mean
WARMUP = 10         # slices run before the first reading

_XK = (0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
       0.586087235467691, 0.405845151377397, 0.207784955007898)
_WK = (0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
       0.169004726639267, 0.190350578064785, 0.204432940075298)
_W0 = 0.209482141084728


def _work() -> complex:
    acc = 0j
    for r in range(60):
        n = 3 + r % 6
        ex = -(n - 1) / n
        h = 0.35 * cmath.exp(1j * (0.1 + 0.01 * r))
        s = _W0 * (1 - h ** n) ** ex
        for x, w in zip(_XK, _WK):
            s += w * ((1 - (h + h * x) ** n) ** ex + (1 - (h - h * x) ** n) ** ex)
        acc += s * h
    return acc


def probe_slice() -> float:
    """Wall time of one slice of the fixed work, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def warm_up() -> None:
    # the specialising interpreter settles after a few runs of the code
    for _ in range(WARMUP):
        probe_slice()


def trimmed_mean(values) -> float:
    values = sorted(values)
    k = max(1, int(len(values) * TRIM))
    return statistics.fmean(values[k:len(values) - k])


class Probe:
    """Timer-driven readings over a ``with`` block; then ``scaled(t0, t1)``.

    Times ``t0``, ``t1`` are ``perf_counter()`` values read in the block.  A
    reading runs between two bytecodes of the thread, never inside a clock
    read, so it lies wholly inside or wholly outside each timed interval.
    """

    def __init__(self) -> None:
        warm_up()
        self.starts: list[float] = []
        self.values: list[float] = []
        self._stolen = [0.0]   # _stolen[i]: wall time of the first i readings
        self._busy = False
        self._previous = None

    def _read(self, *_) -> None:
        if self._busy:   # an alarm that arrives during a slice is dropped
            return
        self._busy = True
        start = perf_counter()
        value = probe_slice()
        self._stolen.append(self._stolen[-1] + perf_counter() - start)
        self.starts.append(start)
        self.values.append(value)
        self._busy = False

    def __enter__(self) -> "Probe":
        for _ in range(MIN_READINGS):
            self._read()
        self._previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(MIN_READINGS):
            self._read()

    @property
    def seconds(self) -> float:
        """Wall time spent in the probe."""
        return self._stolen[-1]

    def scaled(self, t0: float, t1: float) -> float:
        """Time from t0 to t1 without the slices inside it, at REFERENCE_S."""
        lo = bisect_left(self.starts, t0)
        hi = bisect_left(self.starts, t1)
        inside = self._stolen[hi] - self._stolen[lo]
        if hi - lo < MIN_READINGS:   # a short call: the nearest readings
            lo = max(0, min(lo - (MIN_READINGS - (hi - lo)) // 2,
                            len(self.values) - MIN_READINGS))
            hi = lo + MIN_READINGS
        return (t1 - t0 - inside) * REFERENCE_S / trimmed_mean(self.values[lo:hi])
