"""Machine speed, sampled while operations run.

The shared VMs this benchmark runs on change speed by 30-60% over minutes
(other tenants), which moves every wall time the same way whatever the
code does. A sample times a fixed pure-Python kernel, the same kind of
work alertfp does (splitting tab-delimited lines, building tuples and
frozensets, counting in dicts, sorting). While ``Speed.ticking()`` is
active a timer signal takes a sample every SAMPLE_EVERY_S, in the middle
of whatever operation is running, and ``Speed.scale()`` turns the
operation's wall time, without the samples' own time, into seconds at
the reference speed: each stretch between two samples counts its wall
time × REFERENCE_S / (mean kernel time of the two samples). The kernel
is part of the benchmark and must never change, or results before and
after the change stop being comparable.
"""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from time import perf_counter

# Best-of-three kernel time of a 2-vCPU VM at its usual speed; a speed
# of 1.0 means that machine.
REFERENCE_S = 0.0100
SAMPLE_EVERY_S = 0.5
_REPEATS = 3


def _kernel_lines() -> list[str]:
    rng = random.Random(20100622)
    return ["\t".join(f"v{rng.randrange(40 + 30 * col)}" for col in range(12))
            for _ in range(1000)]


_LINES = _kernel_lines()


def kernel() -> int:
    counts: dict = {}
    sets = []
    for line in _LINES:
        items = frozenset(enumerate(line.split("\t")))
        sets.append(items)
        for item in items:
            counts[item] = counts.get(item, 0) + 1
    frequent = frozenset(item for item, n in counts.items() if n >= 20)
    keys = {items & frequent for items in sets}
    return len(sorted(counts, key=counts.__getitem__)) + len(keys)


class Speed:
    """Samples of one process: (start, end, best kernel seconds)."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []

    def sample(self, *_signal_args) -> None:
        start, best = perf_counter(), float("inf")
        for _ in range(_REPEATS):
            t = perf_counter()
            kernel()
            best = min(best, perf_counter() - t)
        self.samples.append((start, perf_counter(), best))

    @contextmanager
    def ticking(self):
        """Sample before, every SAMPLE_EVERY_S during, and after the block."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def _around(self, start: float, end: float):
        before = [s for s in self.samples if s[1] <= start][-1:]
        inside = [s for s in self.samples if start < s[0] and s[1] < end]
        after = [s for s in self.samples if s[0] >= end][:1]
        if not before or not after:
            raise ValueError("no speed sample before or after the interval")
        return before + inside + after, inside

    def wall(self, start: float, end: float) -> float:
        """Wall seconds of [start, end] without the samples taken in it."""
        _, inside = self._around(start, end)
        return end - start - sum(s[1] - s[0] for s in inside)

    def scale(self, start: float, end: float) -> float:
        """Seconds at reference speed of the wall interval [start, end]."""
        points, inside = self._around(start, end)
        edges = [start] + [t for s in inside for t in s[:2]] + [end]
        return sum((edges[2 * k + 1] - edges[2 * k]) * 2 * REFERENCE_S
                   / (points[k][2] + points[k + 1][2]) for k in range(len(points) - 1))

    def speed(self) -> float:
        """Median speed of the samples relative to the reference."""
        kernel_s = sorted(s[2] for s in self.samples)
        return REFERENCE_S / kernel_s[len(kernel_s) // 2]
