"""Scale measured times to one machine speed.

A virtual machine that shares its cores with other tenants runs the same
Python code up to 1.7x slower for seconds or minutes at a time, and two
runs of the benchmark a minute apart can see different mixes of fast and
slow stretches.  `sample_ms` times a fixed piece of pure-Python work that
allocates the way the engine does (Fractions, tuple keys in a dict, a
sort) but runs no symcomp code.  `Gauge` takes such samples between ops,
and `scale` gives the factor REF_MS / (median of the samples taken just
before and just after a measured interval).  A time multiplied by it is
the time the interval would have taken on a machine that runs the gauge
in REF_MS milliseconds.  Because the gauge runs no symcomp code, a change
to the program moves a scaled time by the same share as the raw time.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

REF_MS = 3.0      # the scaled machine runs one gauge sample in this time
EVERY_S = 0.05    # sample at most this often between ops (ops are timed apart)


def sample_ms() -> float:
    """Milliseconds for one fixed piece of allocating pure-Python work."""
    t0 = time.perf_counter()
    acc: dict[tuple[int, int], Fraction] = {}
    step = Fraction(1, 3)
    for i in range(600):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + step * (i % 11 - 5)
    sorted(acc.items())
    return (time.perf_counter() - t0) * 1e3


class Gauge:
    """Gauge samples taken between measured intervals, in order."""

    def __init__(self):
        self.samples: list[float] = []
        self._due = 0.0

    def tick(self) -> int:
        """Take a sample if EVERY_S has passed since the last one; return
        the index of the latest sample.  Call it before a measured interval."""
        if time.perf_counter() >= self._due:
            self.samples.append(sample_ms())
            self._due = time.perf_counter() + EVERY_S
        return len(self.samples) - 1

    def sample(self, count: int = 1) -> int:
        """Take `count` samples now and return the index of the last."""
        for _ in range(count):
            self._due = 0.0
            self.tick()
        return len(self.samples) - 1

    def scale(self, first: int, last: int) -> float:
        """Factor for an interval measured between samples `first` and
        `last`: REF_MS over the median of the samples from `first` to `last`."""
        return REF_MS / statistics.median(self.samples[first:last + 1])

    def median(self) -> float:
        return statistics.median(self.samples)
