"""How fast this core runs while an operation does.

On a shared host the same operation can take twice as long from one minute
to the next, and the slowdown is per core: a reference loop in another
process does not see it.  So a timer signal interrupts the timed operation
every ``TICK_S`` seconds and runs ``reference_loop``, a small fixed piece
of pure-Python work, on the same core; the median of its durations is the
operation's reference time.  The operation's time scaled by
``REFERENCE_S / reference time`` is its time at a fixed reference speed:
the same on a fast and a slow minute, and no change to ``groupoids`` can
move the reference.
"""

from __future__ import annotations

import signal
import time
from statistics import median

TICK_S = 0.05
# Defines the reference speed: reference_loop takes about this long on the
# shared 2-core Intel Xeon host where the benchmark was written.
REFERENCE_S = 0.0005
BEFORE = 5  # samples taken before the operation, so short ones get a reading


def reference_loop() -> int:
    """Fixed work shaped like the library's inner loops: tuple keys, dict
    inserts and lookups.  About half a millisecond; it must never change."""
    table = {}
    for i in range(1500):
        table[(i, i & 7)] = i
    total = 0
    for value in table.values():
        total += table.get((value, value & 7), 0)
    return total


class SpeedGauge:
    """Reference samples around and during one operation.

    ``start`` takes ``BEFORE`` samples and arms the timer; ``stop`` disarms
    it and restores the previous handler.  ``busy_s`` is the time the
    samples took after ``start`` returned, which the caller subtracts from
    the operation's time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self.samples = []
        for _ in range(BEFORE):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def busy_s(self) -> float:
        return sum(self.samples[BEFORE:])

    @property
    def total_s(self) -> float:
        return sum(self.samples)

    @property
    def reference_s(self) -> float:
        return median(self.samples)

    def at_reference_speed(self, seconds: float) -> float:
        return seconds * REFERENCE_S / self.reference_s
