"""A fixed interpreter-bound computation that times the host's current speed.

On a shared host the speed of a core drifts by up to 1.7x over seconds to
minutes, through contention that the container cannot see. The drift moves
this loop and stratsurv's calls together. So the benchmark takes each
end-to-end timing between two runs of ``calibrate`` and reports
``wall * REFERENCE_S / mean(calibrations)``: seconds on the reference host
in its usual state. This module imports nothing but ``time``, so a fresh
interpreter can load it before it times ``import stratsurv.cli``.
"""

from __future__ import annotations

import time

#: ``calibrate()`` on the reference host (2-core Xeon container at 2.0 GHz).
REFERENCE_S = 0.037


def calibrate() -> float:
    """Wall time of a fixed loop that stratsurv never runs."""
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i
    return time.perf_counter() - start


def scaled(walls: list[float], calibrations: list[float]) -> list[float]:
    """Each wall time in reference seconds, from the calibrations around it.

    ``calibrations[i]`` and ``calibrations[i + 1]`` bracket ``walls[i]``.
    """
    return [wall * REFERENCE_S / ((before + after) / 2)
            for wall, before, after in zip(walls, calibrations, calibrations[1:])]
