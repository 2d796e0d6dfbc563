"""Machine-speed probe, so that time metrics survive a noisy shared host.

On the 2-CPU virtual machine the bounds in ``BENCHMARK.json`` were set on,
the CPU speed that one process sees drifts with the neighbours' load: a
fixed piece of ``Fraction`` arithmetic took anywhere from 0.66 to 1.3 ms,
in episodes lasting from seconds to minutes, so raw wall times of the same
work spread by 20-40% from run to run however long a run was.

A run therefore interleaves :func:`probe` between items (at most every
``EVERY_S`` seconds, plus once before the first and after the last) and
reports each measured interval at the reference speed::

    t_ref = t_wall * REF_PROBE_S / (mean of the probes around the interval)

The probe shares no code with ``fwsets``, so a change to the library moves
the scaled times exactly as it moves wall times at a steady machine speed.
Raw wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

# the probe's time at the reference speed: its median reading on that
# machine, so scaled times stay close to typical wall times there
REF_PROBE_S = 0.001
EVERY_S = 0.25


def probe() -> float:
    """Seconds for a fixed sum of 299 fractions, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = Fraction(0)
        for i in range(1, 300):
            s += Fraction(1, i)
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedLog:
    """Probe readings in time order; an interval measured between reading
    ``k`` and reading ``k + 1`` is scaled by their mean."""

    def __init__(self):
        self.readings: list[float] = []
        self._last = float("-inf")

    def sample(self) -> int:
        """Take a reading now; returns its index."""
        self.readings.append(probe())
        self._last = time.perf_counter()
        return len(self.readings) - 1

    def sample_if_due(self) -> int:
        """Take a reading if ``EVERY_S`` has passed; returns the index of
        the latest reading."""
        if time.perf_counter() - self._last >= EVERY_S:
            return self.sample()
        return len(self.readings) - 1

    def latest_scale(self) -> float:
        """Factor from the latest reading alone, for a running total."""
        return REF_PROBE_S / self.readings[-1]

    def scale(self, k: int) -> float:
        """Factor from wall time to reference time for an interval that
        lies between readings ``k`` and ``k + 1``."""
        return REF_PROBE_S / ((self.readings[k] + self.readings[k + 1]) / 2)
