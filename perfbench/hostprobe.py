"""The host-speed probe, and time measured against it.

On a shared host the same Python code runs at a speed that drifts by tens
of percent within seconds, with the process on the CPU the whole time
(its CPU time drifts with its wall time, so this is not descheduling).
A benchmark that reports plain wall time then measures the neighbours.

The probe is a fixed piece of work, independent of the program: set
algebra over frozensets of a few hundred to a thousand integers.  It is
timed between operations throughout a run, and between the steps of
every set-up.  An interval's *host factor* is the median probe reading
around it divided by ``REFERENCE_MS``, and its normalized duration is its
wall duration divided by that factor: the time the interval would have
taken on a host where the probe reads ``REFERENCE_MS``.  A program change
does not move the probe, so it moves a normalized time as much as a wall
time.

Of three candidates timed between program operations on a 2-CPU host
(set algebra, dictionary lookups, a loop allocating small objects and
frozensets), the set algebra tracked them best: the slope of an
operation's log time against the probe's log reading was 0.91 for a
subsumption completion and 0.84 for view evaluations, against 0.83 and
0.76 for the allocation loop.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

#: Probe reading of the reference host (ms): about the fastest tenth of
#: the readings on a 2-CPU host (the median there was about 1.45 ms).
#: Only ratios to it matter.
REFERENCE_MS = 1.0
#: Seconds between two probes in a timed phase.
PROBE_EVERY = 0.1
#: An interval's factor is the median of the probes taken within this many
#: seconds before its start or after its end.
HALF_WINDOW = 0.5


#: The probe's operands: eight sets of about 570 to 1,330 integers.
_SETS = [frozenset(range(start, 4000, 3 + start % 5)) for start in range(8)]
#: Passes over the operand pairs per reading (about 1.4 ms on a 2-CPU host).
_PASSES = 4


def probe_seconds() -> float:
    """Wall time of one run of the probe's fixed work."""
    start = time.perf_counter()
    total = 0
    for _ in range(_PASSES):
        for index in range(8):
            left, right = _SETS[index], _SETS[(index + 3) % 8]
            total += len(left & right) + len(left - right)
    elapsed = time.perf_counter() - start
    if total < 0:  # pragma: no cover - keeps the work observable
        raise AssertionError
    return elapsed


class HostProbe:
    """Probe readings of one run, with the time each was taken."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.readings: List[float] = []

    def sample(self) -> None:
        """Take one probe reading."""
        when = time.perf_counter()
        self.readings.append(probe_seconds())
        self.times.append(when)

    def factor(self, start: float, end: float) -> float:
        """Host slowness around ``[start, end]`` relative to the reference."""
        low = bisect.bisect_left(self.times, start - HALF_WINDOW)
        high = bisect.bisect_right(self.times, end + HALF_WINDOW)
        near = self.readings[low:high]
        if not near:
            # No probe close by: the nearest one on each side.
            near = self.readings[max(low - 1, 0) : low + 1]
        return 1e3 * statistics.median(near) / REFERENCE_MS

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.readings)


class Stopwatch:
    """Times one long piece of work in segments, probing between them.

    The work calls ``tick`` between its steps; when the current segment is
    ``PROBE_EVERY`` long, the clock stops, the probe runs, and a new
    segment starts.  Probe time is not part of the work's time.
    """

    def __init__(self, probe: HostProbe) -> None:
        self.probe = probe
        self.segments: List[tuple] = []
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self.probe.sample()
        self._start = time.perf_counter()
        return self

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self._start >= PROBE_EVERY:
            self.segments.append((self._start, now))
            self.probe.sample()
            self._start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.segments.append((self._start, time.perf_counter()))
        self.probe.sample()

    def wall(self) -> float:
        return sum(end - start for start, end in self.segments)

    def normalized(self) -> float:
        return sum(
            (end - start) / self.probe.factor(start, end) for start, end in self.segments
        )
