"""A fixed interpreter loop that measures how fast the host runs right now.

The benchmark's host is a share of a machine whose speed drifts in phases
of several minutes, by up to half; process CPU time drifts with wall time,
so the vCPU itself runs slower and every stage slows at once. This loop
never changes with the program, so a stage's wall time divided by the
loop's time, taken right before and after it, follows the program and not
the phase the host is in.
"""

from __future__ import annotations

import statistics
import time

# Seconds one pass of the loop takes on a 2-vCPU Xeon host at its fast phase.
# Scaled stage times are wall seconds at that speed.
CALIBRATION_REF_S = 0.025
PASSES = 3


def _loop() -> int:
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return total


def calibrate() -> float:
    """Median wall seconds of a few passes of the loop."""
    times = []
    for _ in range(PASSES):
        started = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - started)
    return statistics.median(times)
