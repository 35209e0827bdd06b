"""A fixed unit of pure-Python work, timed next to every timed solver call.

On a shared host a vCPU's speed drifts by up to 1.5x for minutes at a time,
and every call in such a stretch slows alike. The benchmark therefore reports
times in reference seconds: measured seconds times ``LOOP_S`` divided by the
median time of this loop over the same run. A reference second is a second on
a machine that runs the loop in ``LOOP_S``. The raw seconds are printed too.

Nothing here may change once bounds are set against it: a change rescales
every time metric.
"""

from __future__ import annotations

import statistics
from time import perf_counter

LOOP_ITERATIONS = 500_000
LOOP_S = 0.05  # nominal time of the loop, the unit of a reference second
EVERY_S = 1.0  # least time between two samples of a run, so short calls pay little


def time_loop() -> float:
    """Seconds taken by the reference loop, now."""
    t0 = perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i % 7
    return perf_counter() - t0


class Sampler:
    """Loop times taken between the calls of a run, at most one per ``EVERY_S``."""

    def __init__(self):
        self.samples: list[float] = []
        self._due = 0.0

    def tick(self) -> None:
        """Time the loop if ``EVERY_S`` has passed since the last sample."""
        if perf_counter() >= self._due:
            self.samples.append(time_loop())
            self._due = perf_counter() + EVERY_S


def scale(loop_seconds: list[float]) -> float:
    """Factor that turns seconds measured alongside ``loop_seconds`` into
    reference seconds."""
    return LOOP_S / statistics.median(loop_seconds)
