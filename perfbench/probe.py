"""Host speed probe: a fixed loop timed on a 2 ms interval timer.

Some hosts switch between a fast and a slower state many times a second and
stay mostly in one or the other for minutes (README.md, *Host speed drift*),
so a wall-clock op time says as much about the host as about the program.
While the probe runs, SIGALRM interrupts the main thread every 2 ms and its
handler times `LOOP` iterations of a fixed Python loop, under 1% of the
run. An op's time divided by the mean probe time around it is the op's cost
in probe loops, which follows the program and not the host's state.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.002
LOOP = 200
PAD_S = 0.010  # samples this close to an op count for it, so that 1 ms ops get some


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        x = 0
        for i in range(LOOP):
            x += i
        self.times.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def cost(self, start: float, seconds: float) -> float:
        """Probe loops an op from `start` lasting `seconds` took: seconds / mean probe time.

        The samples within PAD_S of the op count; when a pause left none
        there, the nearest sample on each side does.
        """
        lo = bisect.bisect_left(self.times, start - PAD_S)
        hi = bisect.bisect_right(self.times, start + seconds + PAD_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        if lo == hi:
            raise RuntimeError("the probe took no samples; the interval timer did not fire")
        return seconds / statistics.fmean(self.durations[lo:hi])
