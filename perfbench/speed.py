"""Durations in CPU time of the benchmark thread at a fixed reference speed of the host.

On a shared machine two things disturb wall-clock timings.  Other processes
preempt the benchmark, which CPU time (``now``) leaves out.  And the host's
speed swings by a third within a second and drifts over minutes: a fixed
pure-Python ``Fraction`` loop timed every 0.25 s ran between 1,100 and 2,000
passes per second, in CPU time as in wall time.  ``SpeedClock`` times that
loop (the probe) after every ``PROBE_EVERY_S`` seconds of CPU time, and
rescales any interval piece by piece by ``PROBE_NOMINAL_S`` over the mean of
the two probes around each piece.  The probes' own time is left out.  Long
calls are probed from a ``SIGPROF`` handler in the benchmark's own thread;
a loop of short steps calls ``tick`` between steps instead, inside
``stepping``, so that no probe interrupts a step.
"""

from __future__ import annotations

import signal
from bisect import bisect_right
from contextlib import contextmanager
from fractions import Fraction
from time import thread_time as now

PROBE_EVERY_S = 0.05
STEP_PROBE_EVERY_S = 0.005  # between the steps of a loop, where probes interrupt nothing
PROBE_NOMINAL_S = 0.0004  # seconds per probe pass at the reference speed


def speed_probe(passes: int = 1) -> float:
    """Seconds per pass of a fixed ``Fraction`` loop."""
    start = now()
    for _ in range(passes):
        total = Fraction(0)
        for i in range(1, 120):
            total += Fraction(1, i)
    return (now() - start) / passes


class SpeedClock:
    """Context manager that probes the host's speed while it is open."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.speeds: list[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    @contextmanager
    def stepping(self):
        """Stop the timer; the caller probes with ``tick`` between steps."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def tick(self) -> None:
        """Probe if ``STEP_PROBE_EVERY_S`` of CPU time passed since the last probe."""
        if now() - self.ends[-1] >= STEP_PROBE_EVERY_S:
            self._probe()

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._probe()

    def _probe(self, *_) -> None:
        start = now()
        speed = speed_probe()
        self.starts.append(start)
        self.ends.append(now())
        self.speeds.append(speed)

    def duration(self, t0: float, t1: float) -> float:
        """Reference-speed length of ``[t0, t1]``, probes excluded.

        Call it after the clock has closed, so that a probe follows ``t1``.
        """
        total = 0.0
        k = max(0, bisect_right(self.ends, t0) - 1)
        while k < len(self.starts) - 1 and self.ends[k] < t1:
            lo = max(t0, self.ends[k])
            hi = min(t1, self.starts[k + 1])
            if hi > lo:
                total += (hi - lo) * 2 * PROBE_NOMINAL_S / (self.speeds[k] + self.speeds[k + 1])
            k += 1
        return total
