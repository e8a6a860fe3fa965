"""Timing against fixed kernels, to report times at a reference host speed.

The speed of the 2-CPU host that sized the benchmark swings by up to 1.8x
within seconds, and a run can sit in its slow phase from start to end. Each
timing is therefore taken together with a fixed kernel that runs no urelunet
code, and scaled to the host speed at which the kernel takes its reference
time. This module imports nothing outside the standard library, so that
``run.py`` can time its own imports with it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

SAMPLE_INTERVAL_S = 0.05
PYTHON_LOOPS = 10_000


def fastest(body, repeats: int) -> float:
    """Fastest of ``repeats`` timed runs of ``body``.

    The first run reloads the caches that the code before it filled; the later
    ones find the kernel in cache, so the fastest run follows the host's speed
    and not the working set of the code that ran before.
    """
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        body()
        best = min(best, time.perf_counter() - t0)
    return best


def _python_body() -> None:
    x = 0
    for i in range(PYTHON_LOOPS):
        x += (i * 7) % 13


def python_kernel() -> float:
    """Time of a fixed pure-Python loop."""
    return fastest(_python_body, 2)


# A kernel is (measure, reference_s): a function that times the kernel, and
# the kernel's time at the reference speed, about its time in the faster phase
# of the host that sized the benchmark. The imports and the set-ups, whose
# work is Python loops, are timed against this one.
PYTHON = (python_kernel, 0.8e-3)


def at_reference(seconds: float, kernel_times: list[float], reference_s: float) -> float:
    """``seconds`` scaled to the host speed at which the kernel's mean time is ``reference_s``."""
    return seconds * reference_s / statistics.mean(kernel_times)


class Sampler:
    """Runs a kernel every ``SAMPLE_INTERVAL_S`` on SIGALRM between ``start`` and ``stop``."""

    def __init__(self, kernel):
        self.measure, self.reference_s = kernel
        self.samples: list[float] = []
        self.sampling_s = 0.0

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.measure())
        self.sampling_s += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """Wall time since ``start`` less the time spent sampling, and that time at the reference speed."""
        elapsed = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        elapsed -= self.sampling_s
        self.samples.append(self.measure())
        return elapsed, at_reference(elapsed, self.samples, self.reference_s)


def timed_at_reference(fn, kernel) -> tuple[float, float]:
    """Wall time of ``fn()``, and that time at the reference host speed.

    The mean of the kernel's times, sampled while ``fn`` runs, gives the
    host's speed over the whole call.
    """
    sampler = Sampler(kernel)
    sampler.start()
    try:
        fn()
    finally:
        result = sampler.stop()
    return result


class PassClock:
    """Times short passes, each flanked by runs of a kernel.

    Millisecond passes follow the host's speed swings; the ratio of a pass to
    the kernel timed just before and after it does not. ``rate`` scales that
    ratio to the speed at which the kernel takes its reference time.
    """

    def __init__(self, kernel):
        self.measure, self.reference_s = kernel
        self.last = self.measure()
        self.raw: dict[str, list[float]] = {}
        self.ratios: dict[str, list[float]] = {}

    def time(self, name: str, fn):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        cal = self.measure()
        self.raw.setdefault(name, []).append(elapsed)
        self.ratios.setdefault(name, []).append(2.0 * elapsed / (self.last + cal))
        self.last = cal
        return result

    def rate(self, name: str, work: float) -> float:
        """Work per second of a median pass at the reference speed."""
        return work / (statistics.median(self.ratios[name]) * self.reference_s)
