"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one core drifts by a third or more within
seconds, and intalg's work slows with it.  A fixed piece of work that never
touches intalg is timed next to the measured work, and each measured interval
is scaled by ``reference / calibration time``: timings are reported at the
reference speed.  A change in intalg moves the scaled timings as much as the
raw ones.  In-process work is calibrated with a pure-Python loop
(``REFERENCE_S``); work dominated by starting processes drifts differently and
is calibrated with a bare interpreter start (``START_REFERENCE_S``).
"""

from __future__ import annotations

import subprocess
import sys
import time

LOOPS = 20_000
REFERENCE_S = 2e-3
START_REFERENCE_S = 50e-3


def calibrate() -> float:
    """Seconds the reference loop takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(LOOPS):
        acc += (i * 0.5) % 7.0
    return time.perf_counter() - t0


def interpreter_start(env=None) -> float:
    """Seconds a bare ``python -c pass`` takes now."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True, check=True, timeout=60)
    return time.perf_counter() - t0


def factor(before: float, after: float, reference: float = REFERENCE_S) -> float:
    """Scale for an interval measured between two calibrations."""
    return reference / (0.5 * (before + after))
