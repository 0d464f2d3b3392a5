"""A fixed pure-Python workload that tracks how fast the machine runs now.

On a shared machine the speed of one process drifts by tens of percent
within seconds, so the benchmark samples it while it measures: a
``SpeedProbe`` runs this reference every ``INTERVAL_S`` from an interval
timer, inside the measured process, and each unit's wall time (minus the
probes' own time) is scaled by ``NOMINAL_S`` over the mean probe time
during the unit.  The reference uses no seprkit code, so a change to the
program cannot move it; it does the same kind of work as the program
(Fraction and integer arithmetic, small tuples and dicts) so that both
slow down alike.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# one probe's wall time on a quiet 2-core x86-64 box under Python 3.11;
# it only fixes the scale of the reported times
NOMINAL_S = 0.004
INTERVAL_S = 0.25


ROUNDS = 6


def reference() -> int:
    total = 0
    for r in range(ROUNDS):
        rows = [[Fraction((i * 7 + j * 3 + r) % 11 - 5, 1 + (i + j) % 3) for j in range(6)] for i in range(6)]
        for k in range(6):
            pivot = rows[k][k] or Fraction(1)
            for i in range(k + 1, 6):
                factor = rows[i][k] / pivot
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
        grid = [[(i * 5 + j * 3 + r) % 7 - 3 for j in range(8)] for i in range(8)]
        prev = 1
        for k in range(7):
            if grid[k][k] == 0:
                break
            for i in range(k + 1, 8):
                grid[i] = [(grid[k][k] * grid[i][j] - grid[i][k] * grid[k][j]) // prev for j in range(8)]
            prev = grid[k][k]
        seen = {}
        for i in range(300):
            seen[(i % 97, i % 13)] = seen.get((i % 97, i % 13), 0) + i
        total += len(seen) + rows[5][5].denominator + grid[7][7]
    return total


def measure() -> float:
    """Wall seconds of one reference run."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def speed(runs: int = 5) -> float:
    """Median wall seconds of a few reference runs back to back."""
    return statistics.median(measure() for _ in range(runs))


class SpeedProbe:
    """Times the reference every INTERVAL_S from a SIGALRM handler.

    Python runs the handler between bytecodes of the main thread, so the
    probes interrupt the measured calls themselves and sample the speed
    they ran at, long calls included.
    """

    def __init__(self):
        self.starts = []
        self.durations = []

    def _probe(self, signum, frame):
        start = time.perf_counter()
        reference()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        reference()  # warm up, untimed
        self._probe(None, None)
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe(None, None)

    def window(self, start, end):
        """(probe seconds spent inside [start, end], mean time of the
        probes inside, or of the two around it when none fell inside).
        The mean, not the median: a unit's wall time adds up the time it
        spent at each speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.durations[lo:hi]
        if inside:
            return sum(inside), statistics.mean(inside)
        return 0.0, statistics.mean(self.durations[max(lo - 1, 0) : lo + 1])
