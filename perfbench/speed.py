"""Machine-speed probe used to normalise every time the benchmark reports.

On a shared machine the speed at which one core runs Python drifts by up
to 2x, in phases from a fraction of a second to minutes, so raw times of
identical runs differ by more than any useful regression bound. The probe
times a fixed slice of pure-Python work (reference_work) while the
measured code runs, interleaved with it by an interval timer: SIGALRM
interrupts the main thread every INTERVAL_S and the handler runs one
slice. Each slice time is a reading of the current speed.

normalise(t0, t1) integrates the speed over an interval: with s(t) the
slice time of the slice nearest in time to t (a running median of five
slices, so one preempted slice does not count), the interval's work is
the integral of REFERENCE_SLICE_S / s(t) dt, less the probe's own
slices. That is the time the same work takes on a machine on which one
slice takes REFERENCE_SLICE_S. Integrating, rather than scaling a whole
repetition by one median slice time, follows phases that change within a
repetition: on construct-check the coefficient of variation of repetition
times went from about 10 % raw to 1-3 %, against 6-10 % with one factor
per repetition.

Interval timers are not inherited across fork, so pool workers run
unprobed; the probe samples the parent's core, which shares the host
with them.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
REFERENCE_SLICE = 400
# A round figure near the median slice time seen on the 2-vCPU machine the
# bounds were set on, so that reported times read close to raw ones there.
REFERENCE_SLICE_S = 3e-4
BRACKET_SLICES = 15
SMOOTH = 2  # slices on each side in the running median


def reference_work() -> int:
    # small tuples, sorting and dict updates, like the package's hot loops
    counts: dict[tuple[int, ...], int] = {}
    for i in range(REFERENCE_SLICE):
        key = tuple(sorted((i * 7919 % 97, i % 13, i & 31)))
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


class SpeedProbe:
    """Context manager that samples the slice time while code runs."""

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []  # (mid time, slice time)
        self.spent = 0.0  # slice time inside the timer-driven region
        self._cache: tuple[int, list[float], list[float], list[float]] | None = None

    def _slice(self) -> float:
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self.ticks.append(((t0 + t1) / 2, t1 - t0))
        return t1 - t0

    def _tick(self, signum, frame) -> None:
        self.spent += self._slice()

    def bracket(self) -> None:
        """Slices outside the timed region, so that its ends have readings."""
        for _ in range(BRACKET_SLICES):
            self._slice()

    def __enter__(self) -> "SpeedProbe":
        self.bracket()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.bracket()

    def _readings(self) -> tuple[list[float], list[float], list[float]]:
        """Tick times, smoothed slice times and the cell edges between ticks."""
        if self._cache is None or self._cache[0] != len(self.ticks):
            mids = [m for m, _ in self.ticks]
            raw = [s for _, s in self.ticks]
            slow = [
                statistics.median(raw[max(0, i - SMOOTH) : i + SMOOTH + 1])
                for i in range(len(raw))
            ]
            edges = [(a + b) / 2 for a, b in zip(mids, mids[1:])]
            self._cache = (len(self.ticks), mids, slow, edges)
        return self._cache[1:]

    def normalise(self, t0: float, t1: float) -> float:
        """Reference-speed seconds of the work between perf_counter() readings t0 and t1."""
        mids, slow, edges = self._readings()
        i = bisect.bisect_right(edges, t0)
        total, start = 0.0, t0
        while True:
            end = min(edges[i], t1) if i < len(edges) else t1
            total += (end - start) / slow[i]
            if end >= t1:
                break
            start, i = end, i + 1
        lo, hi = bisect.bisect_left(mids, t0), bisect.bisect_right(mids, t1)
        total -= sum(self.ticks[j][1] / slow[j] for j in range(lo, hi))
        return total * REFERENCE_SLICE_S
