"""Time at a fixed reference speed, for a machine whose speed changes by the second.

The machine this benchmark was built on is shared.  Its speed flips between a
fast and a slow state up to 1.7x apart, for stretches from under a second to
minutes, and process CPU time tracks wall time, so neither the minimum over
repetitions nor CPU time removes the drift from one run to the next.

:class:`ReferenceClock` therefore samples the machine's speed while the
program runs: every ``INTERVAL`` seconds a SIGALRM handler times a short fixed
loop of ordinary interpreted work (``_calibrate``: ``Fraction`` sums, small
tuples, dicts and lists, a function call).  The loop runs twice and only the
second run is timed, so the program's use of the caches in the last 20 ms
does not reach the sample; the garbage collector is off meanwhile, so the
program's heap cannot add a collection to it.  Each stretch of wall time
between two samples is scaled by ``REFERENCE_S / t``, where ``t`` is the
faster of the two samples around it (an interrupt can only make a sample
slower).  The result is the time the program would have taken had the loop
run at ``REFERENCE_S`` throughout.  The loop's own time is left out of both
the raw and the scaled figure.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL = 0.02
#: Duration of one calibration loop in this machine's fast state (2 vCPUs,
#: Python 3.11.7): the scale on which every reported time is expressed.
REFERENCE_S = 60e-6


def _step(i: int) -> int:
    return (i * 7) % 13


def _calibrate() -> tuple[int, Fraction]:
    total = Fraction(0)
    acc = 0
    for i in range(1, 25):
        total += Fraction(i % 5 + 1, i % 7 + 2)
        t = (i, i + 1, i + 2)
        d = {"a": i, "b": t}
        lst = [x * 3 for x in t]
        acc += len(d) + lst[1] % 7 + _step(i)
    return acc, total


class ReferenceClock:
    """Context manager; while active, :meth:`time` measures calls at reference speed."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (start, handler time, loop time)
        self.durations: list[float] = []  # every loop time, for the record

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _calibrate()
        warm = time.perf_counter()
        _calibrate()
        end = time.perf_counter()
        self.samples.append((start, end - start, end - warm))
        self.durations.append(end - warm)
        if enabled:
            gc.enable()

    def __enter__(self) -> "ReferenceClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """Call ``fn``; return (its result, raw seconds, seconds at reference speed)."""
        del self.samples[:-1]
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        samples = list(self.samples)  # the handler may append while we read
        marks = [s for s in samples if start <= s[0] < end] + [(end, 0.0, 0.0)]
        raw = scaled = 0.0
        previous_end, previous_loop = start, [s for s in samples if s[0] < start][-1][2]
        for mark, handler, loop in marks:
            gap = mark - previous_end
            raw += gap
            scaled += gap * REFERENCE_S / min(previous_loop, loop or previous_loop)
            previous_end, previous_loop = mark + handler, loop
        return result, raw, scaled
