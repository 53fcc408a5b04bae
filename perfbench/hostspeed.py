"""Host-speed calibration: one fixed slice of pure-Python work, timed.

On a shared host the CPU's speed drifts by tens of percent from one minute
to the next, and every piece of code slows down with it.  The benchmark
times this slice between operations and reports timings scaled to a host
on which one slice takes ``REF_S``: a latency ``t`` measured while the
slice took ``c`` is reported as ``t * REF_S / c``.  The slice mixes the
kinds of work henonlab does (complex arithmetic, big-integer arithmetic as
in mpmath's Python backend, float formatting as in the exporters) and calls
no henonlab code, so a change to henonlab cannot move it.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.002      # one slice on the reference host; a shared 2-vCPU Xeon VM took 1.1-2.1 ms
PERIOD_S = 0.2     # the timed loop calibrates after an operation once this much has passed
BURST = 3          # one calibration is the median of this many slices
WINDOW = 1         # an operation is scaled by the calibrations just before and after it
_P = (1 << 521) - 1


def calibrate() -> float:
    """Seconds that one calibration slice takes now: the median of a burst,
    because a single slice is now and then stretched by an interruption."""
    return statistics.median(_slice() for _ in range(BURST))


def _slice() -> float:
    t0 = time.perf_counter()
    z, c = 0j, complex(-0.4, 0.6)
    for _ in range(1600):
        z = z * z + c
        if abs(z) > 2.0:
            z = 0j
    x = 3 ** 300
    for _ in range(600):
        x = (x * x + 7) % _P
    ",".join([repr(k * 0.1) for k in range(600)])
    return time.perf_counter() - t0


def scale(cal_s: list, k: int) -> float:
    """Factor for an operation that ran after calibration ``k - 1`` and
    before calibration ``k``: ``REF_S`` over the median of those around it."""
    near = cal_s[max(0, k - WINDOW):k + WINDOW]
    return REF_S / statistics.median(near)
