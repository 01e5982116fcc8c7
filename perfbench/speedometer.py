"""A clock that runs at a fixed interpreter speed.

On a shared machine the interpreter's speed is not constant: a fixed loop of
pure Python can take twice as long in one phase of a few seconds as in the
next, on both cores at once, and CPU time slows with it.  So the benchmark
times a run on a scaled clock.  Inside the run's process a ``SIGALRM``
handler times a fixed probe loop every ``INTERVAL`` seconds.  Between two
probes the scaled clock advances by the wall time elapsed times
``NOMINAL / probe time``, with the probe time a running median over
``WINDOW`` probes, so a run reads the same in a slow phase as in a fast one.
A scaled second is a wall second at the speed where one probe takes
``NOMINAL`` seconds (the fast phase of a 2-core x86-64 machine, Python
3.11.7).

The probes run in the run's own thread, on its own core, at about 0.3% of
its time.  The handler touches nothing of the program under test.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL = 0.01
LOOP = 400
NOMINAL = 25e-6
WINDOW = 9


def _probe_loop() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return total


class Speedometer:
    """Probes the interpreter speed while it runs; ``marks`` holds
    (``time.monotonic()`` at the probe, probe seconds)."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []

    def _probe(self, signum, frame) -> None:
        start = time.monotonic()
        _probe_loop()
        self.marks.append((start, time.monotonic() - start))

    def start(self) -> None:
        self._probe(None, None)
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class ScaledClock:
    """The scaled clock of one run, built from its probe marks."""

    def __init__(self, marks: list[tuple[float, float]]):
        if not marks:
            raise ValueError("no probe marks")
        self.times = [t for t, _ in marks]
        probes = [d for _, d in marks]
        half = WINDOW // 2
        self.rates = [
            NOMINAL / statistics.median(probes[max(0, i - half) : i + half + 1])
            for i in range(len(probes))
        ]
        # scaled time at each mark, counted from the first
        self.at_mark = [0.0]
        for i in range(1, len(self.times)):
            step = (self.times[i] - self.times[i - 1]) * self.rates[i - 1]
            self.at_mark.append(self.at_mark[-1] + step)

    def _reading(self, t: float) -> float:
        """Scaled time at monotonic time ``t``; before the first mark and
        after the last the nearest mark's rate holds."""
        i = max(0, bisect.bisect_right(self.times, t) - 1)
        return self.at_mark[i] + (t - self.times[i]) * self.rates[i]

    def seconds(self, start: float, end: float) -> float:
        """Scaled seconds between two ``time.monotonic()`` readings."""
        return self._reading(end) - self._reading(start)
