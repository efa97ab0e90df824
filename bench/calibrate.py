"""Probe-calibrated timing for a host whose CPU speed drifts.

On the shared virtual machine this benchmark was built on, the speed of the
virtual CPU drifts by up to 2x, both from one 100 ms to the next and over
minutes, and the drift is invisible from inside: process time drifts with
wall time. Raw medians of the same operations moved by 30 % between runs.

So every timed section is followed by a probe, a fixed piece of interpreter
work of the kinds the CLI does (exact Gauss-Jordan elimination on Fractions,
float loops over lists, JSON serialisation). A section's wall time is divided
by the mean of the probes around it (two before, two after) and multiplied by
PROBE_SECONDS: the result is the section's time on a reference machine on
which the probe takes PROBE_SECONDS. The probe is benchmark code, so a change
to clearflow moves the timings and never the probe.
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction

#: wall seconds of one probe on the reference machine (the median measured on
#: the 2-core host the reference figures in README.md come from)
PROBE_SECONDS = 0.030

_MATRIX = [
    [Fraction((3 * r + 5 * c) % 11 + 1, (r + 2 * c) % 7 + 1) + (8 if r == c else 0) for c in range(9)]
    for r in range(9)
]


def _probe_body() -> None:
    a = [row[:] + [Fraction(r + 1)] for r, row in enumerate(_MATRIX)]
    m = len(a)
    for col in range(m):
        pivot = a[col][col]
        for r in range(m):
            if r != col and a[r][col] != 0:
                factor = a[r][col] / pivot
                for c in range(col, m + 1):
                    a[r][c] -= factor * a[col][c]
    v = [float(i % 17) / 7.0 for i in range(400)]
    acc = 0.0
    for _ in range(20):
        for i in range(400):
            if v[i] != 0:
                acc += v[i] * v[(i * 7) % 400]
    json.dumps([str(a[i][m]) for i in range(m)] * 40)


def probe() -> float:
    """Wall seconds of the fixed probe work."""
    start = time.perf_counter()
    for _ in range(6):
        _probe_body()
    return time.perf_counter() - start


class Timeline:
    """Timed sections in order, each followed by a probe."""

    def __init__(self):
        self.probes = [probe()]
        self.wall: list[float] = []

    def add(self, wall: float) -> int:
        """Record one section's wall time; returns its index."""
        self.wall.append(wall)
        self.probes.append(probe())
        return len(self.wall) - 1

    def calibrated(self, k: int) -> float:
        # section k lies between probes k and k + 1
        window = self.probes[max(0, k - 1): k + 3]
        return self.wall[k] * PROBE_SECONDS / statistics.mean(window)
