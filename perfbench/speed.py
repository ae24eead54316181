"""Machine-speed normalisation of measured times.

On a shared box the speed of pure-Python code drifts: on the 2-vCPU
virtual machine this benchmark was defined on, the same in-process
``report-all`` took 15 ms for some seconds and 25 ms for the next, and a
fixed probe loop slowed by the same factor.  A ``Gauge`` times that probe
between measured requests and reports each request's time at the speed
where the probe takes ``REFERENCE_S``: wall time x REFERENCE_S / probe time,
the probe time being the mean of the probes just before and just after
the request.  The probe touches nothing of ``epwcalc``, so no change to the
program moves it.  Run with the process pinned to one CPU (``pin``), so
that the probe and any child process share the CPU whose speed it tracks.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

#: probe time at the fast state of the box the benchmark was defined on
REFERENCE_S = 0.0006
#: requests closer together than this share one pair of probes
INTERVAL_S = 0.025


def pin() -> None:
    """Keep this process and its children on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _loop() -> None:
    acc = Fraction(0)
    for i in range(1, 70):
        acc += Fraction(i, i + 7) * Fraction(3, i)
    table = {}
    for i in range(600):
        table[str(i)] = i * i


def probe() -> float:
    """Seconds for one probe loop, the fastest of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


class Gauge:
    """Scale factors to the reference speed, one per ``mark``ed request."""

    def __init__(self):
        self.factors: list[float] = []
        self._pending = 0
        self._last = probe()
        self._since = time.perf_counter()

    def mark(self) -> None:
        """Call after each measured request."""
        self._pending += 1
        if time.perf_counter() - self._since >= INTERVAL_S:
            self.flush()

    def flush(self) -> list[float]:
        if self._pending:
            now = probe()
            factor = 2 * REFERENCE_S / (self._last + now)
            self.factors.extend([factor] * self._pending)
            self._pending = 0
            self._last = now
            self._since = time.perf_counter()
        return self.factors

    def scale(self, raw: list[float]) -> list[float]:
        """``raw`` (one entry per mark, in order) at the reference speed."""
        return [r * f for r, f in zip(raw, self.flush(), strict=True)]
