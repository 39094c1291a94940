"""Machine-speed scaling of the benchmark's timings.

The shared VMs the benchmark runs on change speed by up to 1.9x over
seconds to minutes, and process CPU time slows with wall time, so the
CPU itself slows.  Two runs of the same code minutes apart can then
differ by more than any regression worth catching.  To take most of
that out, a fixed probe is timed before every op and every set-up
sample: a pure-Python integer and dict loop, and a numpy batch of 2x2
matrix products with a sorted-array lookup (about 3 ms each, the median
of REPEATS), independent of expanderlab.  Each timing is multiplied by
REF_PROBE_S / (the probe time around it), so it reads as the time the
op would take on a machine where the probe takes REF_PROBE_S.

One probe is noisy, so an interval is scaled by the median of the
NEIGHBOURS probes nearest in time to its midpoint.  The probe tracks
slow spells only in part: over 8-s blocks it took the spread of op
times from 13-17% down to 5-9%.
"""
from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# median probe (the geometric mean of the two parts) on the 2-vCPU VM,
# Intel Xeon with one BLAS thread, that the benchmark was written on
REF_PROBE_S = 0.0034
REPEATS = 3
NEIGHBOURS = 9

_RNG = np.random.default_rng(0)
_MATS = _RNG.integers(0, 53, size=(3000, 2, 2))
_SORTED = np.sort(_RNG.integers(0, 1 << 40, size=20_000))
_QUERIES = _RNG.integers(0, 1 << 40, size=20_000)


def _python_work() -> int:
    s = 0
    d = {}
    for i in range(20_000):
        s += (i * i) % 7
        d[i & 255] = s
    return s


def _numpy_work() -> int:
    # a batch of small matrix products and a sorted-array lookup: the
    # shape of numpy work in the group tables, without calling them
    prod = np.einsum("nij,njk->nik", _MATS, _MATS) % 53
    return int(prod[0, 0, 0] + np.searchsorted(_SORTED, _QUERIES)[0])


def _typical(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe() -> float:
    return math.sqrt(_typical(_python_work) * _typical(_numpy_work))


class SpeedTrack:
    """Probe times stamped with the moment they were taken."""

    def __init__(self):
        self.stamps: list[float] = []
        self.values: list[float] = []

    def sample(self) -> None:
        value = probe()
        self.stamps.append(time.perf_counter())
        self.values.append(value)

    def scale(self, start: float, seconds: float) -> float:
        """seconds, measured from perf_counter() == start, at reference speed."""
        mid = start + seconds / 2
        i = bisect.bisect(self.stamps, mid)
        lo, hi = i, i
        while hi - lo < NEIGHBOURS and (lo > 0 or hi < len(self.stamps)):
            if lo == 0 or (hi < len(self.stamps)
                           and self.stamps[hi] - mid < mid - self.stamps[lo - 1]):
                hi += 1
            else:
                lo -= 1
        return seconds * REF_PROBE_S / statistics.median(self.values[lo:hi])

    def factor(self) -> float:
        """Median probe over the run relative to the reference; above 1
        means this machine ran slower than the reference machine."""
        return statistics.median(self.values) / REF_PROBE_S
