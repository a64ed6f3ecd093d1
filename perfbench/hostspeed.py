"""Host speed, tracked with a fixed pure-Python reference loop.

The benchmark runs on hosts shared with other tenants, where the same
work can take twice as long from one few-second stretch to the next
while the process keeps its whole CPU: busy neighbours slow every
instruction. A reference loop run between ops slows by about the same
factor, so dividing an op's wall time by the reference loop's time
around it removes the host's state from the figure and keeps the
program's. The loop has three parts of about equal time, each in an
idiom of the library: a grid scan that builds tuples and updates a dict,
Euclid's algorithm on small integers, and a walk of small slotted
objects through method calls. Over 45 s in 1 s windows on a 2-core
shared host, their sum cut the spread of the log of an op's time from
0.19-0.28 to 0.04-0.05 on the three kinds of op the workloads make
(analyze of tiny and of larger polygons, normal forms of small
matrices), where any one part left 0.06-0.10 on one of them and a loop
of random reads from a large buffer tracked nothing.

``HostSpeed.tick`` runs the loop once whenever ``every_s`` have passed
since the last sample; callers run it between ops, outside the timed
intervals, or subtract ``paused_s`` from the interval they time.
``scale(start, end)`` is the factor that turns wall seconds measured from
``start`` to ``end`` into nominal seconds, seconds on a host that runs
one reference loop in exactly ``NOMINAL_S``.  It uses the samples taken
in that interval and the ``PAD`` nearest on each side, so an op of a few
microseconds is scaled by the host's speed over the 0.1 s around it.
"""

from __future__ import annotations

import bisect
import statistics
import time

NOMINAL_S = 1e-3  # reference-loop time that defines a nominal second
SIDE = 28  # the grid part scans a SIDE x SIDE grid
EUCLID = 500  # gcds in the integer part
STEPS = 260  # steps of the object walk
PAD = 2  # samples taken next to an interval that also count for it


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y

    def add(self, other: "_Point") -> "_Point":
        return _Point(self.x + other.x, self.y + other.y)

    def key(self) -> tuple[int, int]:
        return (self.x, self.y)


def reference_loop() -> int:
    """Fixed work in three parts; it allocates only short-lived objects
    and touches no library code."""
    pts = []
    for y in range(SIDE):
        for x in range(SIDE):
            if (3 * x - 2 * y) % 7 <= 3 and (x * y) % 5 != 1:
                pts.append((x, y))
    acc: dict[int, int] = {}
    for x, y in pts:
        acc[x % 11] = acc.get(x % 11, 0) + y
    total = len(pts) + sum(acc.values())
    for a in range(1, EUCLID + 1):
        b = a * 7919 % 1009 + 1
        while b:
            a, b = b, a % b
        total += a
    p, step = _Point(0, 0), _Point(1, 2)
    seen = set()
    for i in range(STEPS):
        p = p.add(step)
        if i % 3:
            seen.add(p.key())
    return total + len(seen)


class HostSpeed:
    def __init__(self, every_s: float = 0.02, warmup: int = 20):
        self.every_s = every_s
        self.samples: list[float] = []  # seconds per reference loop
        self.stamps: list[float] = []  # midpoint of each sample
        self.paused_s = 0.0  # total time spent in the loop
        self._clock = time.perf_counter
        for _ in range(warmup):
            reference_loop()
        self._last = self._clock()

    def measure(self) -> None:
        t0 = self._clock()
        reference_loop()
        t1 = self._clock()
        self.samples.append(t1 - t0)
        self.stamps.append((t0 + t1) / 2)
        self.paused_s += t1 - t0
        self._last = t1

    def tick(self) -> None:
        if self._clock() - self._last >= self.every_s:
            self.measure()

    def scale(self, start: float, end: float) -> float:
        """Nominal seconds per wall second from ``start`` to ``end``."""
        lo = max(0, bisect.bisect_left(self.stamps, start) - PAD)
        hi = bisect.bisect_right(self.stamps, end) + PAD
        return NOMINAL_S / statistics.median(self.samples[lo:hi])
