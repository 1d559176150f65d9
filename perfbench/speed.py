"""Machine-speed probe, so times measured on a shared host can be compared.

The host this benchmark was built on is shared with other tenants. Its
speed drifts by tens of percent over seconds to minutes, for pure Python
and numpy code alike. That drift shows in process CPU time as much as in
wall time. A short fixed loop that uses no zqgeom code tracks it: the loop
is timed every INTERVAL_S seconds of wall time (SIGALRM) while the ops run.
Each op's time, net of the probes taken inside it, is then scaled by
NOMINAL_S over the median probe seen during the op, or over the last
probes before it when the op is shorter than the interval.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# median probe time on the reference machine (2-vCPU Xeon, Python 3.11.7,
# numpy 2.4.6) when it is quiet: scaled times are seconds at that speed
NOMINAL_S = 0.002
INTERVAL_S = 0.1


_ARRAY = np.random.default_rng(0).integers(0, 2**31, size=20_000)


def probe() -> float:
    """Time one fixed loop of integer arithmetic plus a numpy sort.

    It creates no container objects, so it never triggers the garbage
    collector and its time does not depend on the program's heap.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(12_000):
        acc = (acc * 31 + (i ^ acc)) % 1_000_003
    np.sort(_ARRAY)
    return time.perf_counter() - t0


def probe_median(n: int = 5) -> float:
    return statistics.median(probe() for _ in range(n))


class SpeedMeter:
    """Samples the probe on a wall-clock timer while in a `with` block."""

    def __init__(self, probing: bool = True):
        self.probing = probing
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in probes, to take out of op times

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedMeter":
        if not self.probing:
            return self
        for _ in range(5):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if not self.probing:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn):
        """Call fn; return (result, error, net seconds, scaled seconds).

        Without probing the scaled seconds are the net ones.
        """
        n0, spent0 = len(self.samples), self.spent
        error = result = None
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0 - (self.spent - spent0)
        if not self.probing:
            return result, error, seconds, seconds
        during = self.samples[n0:] or self.samples[-5:]
        return result, error, seconds, seconds * NOMINAL_S / statistics.median(during)
