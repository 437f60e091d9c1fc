"""Machine-speed probe: rescales measured times to a reference speed.

The benchmark's host is shared, and its speed swings in phases of a
few seconds between a fast mode and one 1.5-1.8x slower (neighbours on
the same physical cores), on both vCPUs, while the process's CPU time
tracks its wall time.  No amount of work in one run averages that out.
So while a measured stretch runs, a timer signal interrupts it every
:data:`INTERVAL` seconds to time a fixed pure-Python probe.  Time
between two probes is rescaled by ``REFERENCE / pace``, where the pace
is the median probe duration over the surrounding ``2 * WINDOW + 2``
probes: the time that stretch would have taken at the speed where the
probe takes :data:`REFERENCE` seconds.  The probes' own time is left
out.  The program's outputs cannot change: the handler touches nothing
of ``repro`` and allocates nothing the collector tracks.

The probe allocates nothing: a probe built from Fractions and
frozensets tracked the program worse, because its duration followed the
program's heap and it set off the program's collections.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Seconds between probes (wall clock).
INTERVAL = 0.05
#: Probes on each side of a gap whose median paces it (~0.25 s).
WINDOW = 5
#: The probe's duration on this host's fast mode (0.16-0.17 ms), so
#: rescaled times read as fast-mode seconds here.
REFERENCE = 0.00017


_KEYS = [(i % 7, i % 5, i) for i in range(400)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}


def _probe() -> int:
    """Tuple hashing and dict lookups over a small prebuilt table: no
    allocation, so neither the program's heap nor a collection can
    change its duration, only the machine's speed."""
    total = 0
    for _ in range(3):
        for key in _KEYS:
            total += _TABLE[key] + hash(key) % 3
    return total


class SpeedProbe:
    """Timer-driven probes over a measured stretch of one process."""

    def __init__(self) -> None:
        #: Each sample's start and end, and its timed probe's duration
        #: (the second of two back-to-back probes: the first warms the
        #: caches the interrupted program left cold).
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._paces: list[float] | None = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _probe()
        timed = time.perf_counter()
        _probe()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.durations.append(end - timed)

    def __enter__(self) -> "SpeedProbe":
        _probe()  # first-call costs
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def paces(self) -> list[float]:
        """Smoothed pace of each gap between consecutive probes."""
        if self._paces is None:
            durations = self.durations
            self._paces = [
                statistics.median(durations[max(gap - WINDOW, 0) : gap + WINDOW + 2])
                for gap in range(len(durations) - 1)
            ]
        return self._paces

    def rescaled(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` (``time.perf_counter`` instants inside
        the probed stretch) would take at the reference speed, probe time
        excluded."""
        starts, ends, paces = self.starts, self.ends, self.paces()
        total = 0.0
        for gap in range(max(bisect.bisect_right(ends, start) - 1, 0), len(paces)):
            low, high = max(ends[gap], start), min(starts[gap + 1], end)
            if high > low:
                total += (high - low) * REFERENCE / paces[gap]
            if starts[gap + 1] >= end:
                break
        return total

    def pace(self) -> float:
        """Median probe duration over the whole stretch."""
        return statistics.median(self.durations)

    def probe_seconds(self) -> float:
        """Time the samples took, warm-up probes included."""
        return sum(end - start for start, end in zip(self.starts, self.ends))
