"""Seconds at reference speed.

The benchmark's host lends its cores to other tenants, and for stretches of
several seconds a core runs Python up to twice as slowly as usual.  A wall
time therefore says as much about the neighbours as about the program: a
20-second run can fall entirely in a slow stretch.  To report the
program's own cost, each timed process probes its speed while it works: a
timer signal runs ``work_unit``, a fixed piece of interpreter work that
shares no code with ``monofloer`` and allocates nothing that lives on,
every 50 ms, on the same core and at the same moment as the program.  An
interval is then reported as the seconds it would have taken at the speed
at which the unit takes ``REFERENCE_PROBE_S``: its measured seconds, minus
the probes' own time, times the mean of ``REFERENCE_PROBE_S / probe time``
over the probes inside it (or the nearest probe, for an interval without
one).  A faster program does less work and so reports fewer reference
seconds; a slower neighbour no longer shows.
"""

from __future__ import annotations

import bisect

# seconds of one work_unit on an uncontended core of the reference machine
REFERENCE_PROBE_S = 0.0004


def work_unit() -> int:
    x = 12345
    for _ in range(3000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return x


class Speed:
    """The probes of one process: start times and durations, in order."""

    def __init__(self, at: list[float], took: list[float]):
        if not at:
            raise ValueError("no speed probes")
        pairs = sorted(zip(at, took))
        self.at = [a for a, _ in pairs]
        self.took = [t for _, t in pairs]

    def _inside(self, start: float, end: float) -> tuple[list[float], float]:
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        inside = self.took[lo:hi]
        if inside:
            return inside, sum(inside)
        nearest = min((i for i in (lo - 1, lo) if 0 <= i < len(self.at)),
                      key=lambda i: min(abs(self.at[i] - start),
                                        abs(self.at[i] - end)))
        return [self.took[nearest]], 0.0

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per working second over the interval."""
        sample, _ = self._inside(start, end)
        return sum(REFERENCE_PROBE_S / t for t in sample) / len(sample)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the program's work in the interval."""
        sample, busy = self._inside(start, end)
        speed = sum(REFERENCE_PROBE_S / t for t in sample) / len(sample)
        return (end - start - busy) * speed
