"""The machine's speed, read by a fixed reference kernel between the program's steps.

On the 2-vCPU machine this benchmark was built on, the same code runs at
speeds up to about 2x apart from one stretch of a few seconds to the next,
and whole runs can fall into a slow stretch (see README.md, "Machine
speed"). The benchmark
therefore reads the machine's speed alongside the program: about every
`READ_EVERY_NS` it runs `kernel`, a fixed piece of work made of the same kind
of operations as a prequential step (small-array numpy calls driven from a
Python loop, list and dict work), and times it. A reading divided by
`REFERENCE_NS` is the speed factor at that moment: 1.0 at the machine's fast
speed, 1.5 to 2.3 in its slow stretches. Every time the benchmark reports is
divided by the factor measured around it, so it reads as the time at the
reference speed.

The readings are taken between steps and subtracted from every measured
interval; the program never sees them.
"""

from __future__ import annotations

import time

import numpy as np

#: How long `kernel` takes on the machine of README.md at its fast speed
#: (the first percentile of 3000 back-to-back readings).
REFERENCE_NS = 1_050_000
#: Least time between two readings taken between steps.
READ_EVERY_NS = 20_000_000

_rng = np.random.default_rng(20240417)
_TABLE = _rng.random((20, 64))
_START = _rng.integers(0, 64, 20)
_ROWS = np.arange(20)


def kernel() -> float:
    """A fixed mix of tree-walk-like numpy indexing and Python container work."""
    total = 0.0
    counts: dict[int, int] = {}
    for i in range(38):
        nodes = _START.copy()
        for _ in range(4):
            go_left = _TABLE[_ROWS, nodes] <= 0.5
            nodes = np.where(go_left, (nodes * 3 + 1) % 64, (nodes * 5 + 2) % 64)
        total += float(np.bincount(nodes % 3, minlength=3).argmax())
        counts[i % 17] = counts.get(i % 17, 0) + i
        total += sum([x * 2 for x in range(30)]) * 1e-9
    return total


class SpeedGauge:
    """Readings of `kernel`, each filed at the step count when it was taken."""

    def __init__(self) -> None:
        self.positions: list[int] = []  # steps timed before the reading
        self.readings_ns: list[int] = []
        self.last_end_ns = 0

    def read(self, position: int) -> int:
        t0 = time.perf_counter_ns()
        kernel()
        self.last_end_ns = time.perf_counter_ns()
        self.positions.append(position)
        self.readings_ns.append(self.last_end_ns - t0)
        return self.last_end_ns - t0

    def due(self, now_ns: int) -> bool:
        return now_ns - self.last_end_ns >= READ_EVERY_NS

    def factors(self, first: int, last: int) -> np.ndarray:
        """Speed factors of readings `first:last`."""
        return np.asarray(self.readings_ns[first:last], dtype=float) / REFERENCE_NS

    def step_factors(self, first: int, last: int, start: int, stop: int) -> np.ndarray:
        """Speed factor of each step `start..stop-1`, from readings `first:last`.

        A step's factor is the mean of the reading just before it and the one
        just after it. The readings must include one taken before step
        `start` and one after step `stop - 1`.
        """
        positions = np.asarray(self.positions[first:last])
        factors = self.factors(first, last)
        after = np.searchsorted(positions, np.arange(start, stop), side="right")
        return (factors[after - 1] + factors[after]) / 2.0
