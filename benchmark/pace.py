"""Machine-speed sampling, so that timings hold still on a shared machine.

On the 2-core machine this benchmark was written on, the same code runs 1.0x
to 1.9x its undisturbed time, in bursts of a few seconds.  A fixed loop,
timed in 70 ms samples over 5 minutes, gave 20-second means that spread by
15% between quartiles.  That is as wide as any useful bound.

``Pace`` interrupts the process every ``interval`` seconds (SIGALRM) and
times a fixed reference loop inside the handler, in the same thread as the
workload.  ``scaled`` then reports an interval of the workload at the
reference speed, at which the loop takes ``REF_S``.  It takes the interval's
busy time (the interval minus the sampler's own time) and multiplies it by
the mean of REF_S / sample over the samples taken inside the interval.

The loop is small integer arithmetic, so its speed depends on the machine
and hardly on what the workload left in the caches.  A random walk over a
2 MB list tracked disturbances better, but it took 0.44 ms between
default-fleet rounds and 0.70 ms between large-fleet rounds, so a change to
the program's memory use would have moved the reference with it.

REF_S is a constant rather than the fastest sample of each run: a run that
is disturbed from start to end never samples the undisturbed speed, and
then its fastest sample understates the disturbance.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.05
LOOPS = 10_000
REF_S = 0.55e-3       # LOOPS steps on an undisturbed 2.1 GHz Xeon, Python 3.11


def spin(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


class Pace:
    """Reference-loop samples taken while the ``with`` block runs."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        spin(LOOPS)
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Mean of REF_S / sample over the whole run."""
        return sum(REF_S / d for d in self.durations) / len(self.durations)

    def scaled(self, start: float, end: float) -> float:
        """Seconds that [start, end) would take at the reference speed.

        An interval too short to hold a sample uses the sample nearest to it.
        """
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        inside = self.durations[i:j]
        busy = end - start - sum(inside)
        if not inside:
            inside = self.durations[max(min(i, len(self.durations) - 1), 0):][:1]
        return busy * sum(REF_S / d for d in inside) / len(inside)
