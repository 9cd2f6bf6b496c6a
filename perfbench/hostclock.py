"""Host seconds rescaled to a nominal machine speed.

The benchmark's host-time metrics (``run_s``, ``setup_s``) come from a
shared machine whose single-core speed swings by up to ~1.7x within
seconds (other tenants, frequency scaling).  Raw ``perf_counter``
intervals of the same work then differ by 20% from run to run, which
would hide any real change smaller than that.

While a :class:`NominalClock` is active, a ``SIGALRM`` timer interrupts
the process every ``PERIOD_S`` seconds and times a fixed pure-Python
probe loop in thread CPU time.  Each stretch of wall time between two
probes counts with the CPU time the thread got in it (time the process
was preempted drops out), rescaled by ``NOMINAL_PROBE_S`` over the
median CPU duration of the four probes around the stretch (one probe
disturbed by another tenant moves it little).  The probes' own time is
left out, so an interval reads as the seconds the same work would take
on a machine running the probe in ``NOMINAL_PROBE_S``.  The probe
touches no simulator state, so virtual results are unaffected.  Traced
runs do not use it: they sample where host time goes instead.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

__all__ = ["NominalClock"]

#: Probe loop length, and its duration on the nominal machine (the
#: reference x86 host in its fast state); only the metrics' scale
#: depends on it.
PROBE_ITERATIONS = 8000
NOMINAL_PROBE_S = 0.00045
PERIOD_S = 0.05


def _probe() -> tuple[float, float, float, float]:
    """(wall start, wall end, CPU start, CPU end) of one probe loop."""
    wall, cpu = time.perf_counter(), time.thread_time()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc ^= i * 7
    return wall, time.perf_counter(), cpu, time.thread_time()


class NominalClock:
    """Context manager sampling machine speed; converts wall intervals."""

    def __init__(self):
        #: Probes in order, as returned by ``_probe``.
        self.probes: list[tuple[float, float, float, float]] = []
        self._wall_ends: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        probe = _probe()
        self.probes.append(probe)
        self._wall_ends.append(probe[1])

    def __enter__(self) -> "NominalClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_alarm(None, None)

    def _scale(self, k: int) -> float:
        """Nominal over CPU seconds in the stretch after probe ``k``."""
        around = self.probes[max(0, k - 1):k + 3]
        return NOMINAL_PROBE_S / statistics.median(p[3] - p[2] for p in around)

    def scale_range(self) -> tuple[float, float, float]:
        """(min, median, max) of single probes' nominal/CPU scale."""
        scales = [NOMINAL_PROBE_S / (p[3] - p[2]) for p in self.probes]
        return min(scales), statistics.median(scales), max(scales)

    def seconds(self, start: float, end: float) -> float:
        """Nominal seconds of the wall interval ``[start, end]``."""
        probes = self.probes
        total = 0.0
        for k in range(max(0, bisect.bisect_right(self._wall_ends, start) - 1),
                       len(probes) - 1):
            low, high = probes[k][1], probes[k + 1][0]
            if low >= end:
                break
            overlap = min(end, high) - max(start, low)
            if overlap > 0:
                cpu = probes[k + 1][2] - probes[k][3]
                total += overlap * cpu / (high - low) * self._scale(k)
        return total
