"""Machine-speed calibration: a fixed numpy-only kernel timed between ops.

On a shared host the speed a process gets drifts by tens of percent from
one run to the next, and it slows lagssm's ops and this kernel alike. The
op times behind every end-to-end metric but `setup_s` are therefore scaled
by `scale(samples)`, REFERENCE_S over the kernel's median time in the same
run: they read as the time the work would take at the speed the kernel had
when REFERENCE_S was measured. The raw times and the scale are in every
detail record.

The kernel does the two kinds of work lagssm spends its time on: small
numpy products in a Python loop (the recurrence) and scalar Python
arithmetic (the Lorenz integrator). It shares no code with lagssm, so no
change to lagssm changes it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on 2 vCPUs of an Intel Xeon, Python 3.11.7, numpy 2.4.6
# with OpenBLAS pinned to one thread.
REFERENCE_S = 1.5e-3
# One kernel run per this many seconds of the op before it, at least one.
SECONDS_PER_SAMPLE = 0.05
MAX_SAMPLES_PER_GAP = 64

_N = 64
_STEPS = 300
_MATRIX = np.eye(_N) * 0.99 + np.tri(_N, k=-1) * 1e-3
_VECTOR = np.ones(_N)
_INPUT = np.linspace(0.0, 1.0, _STEPS).tolist()


def kernel() -> float:
    c = np.zeros(_N)
    for u in _INPUT:
        c = _MATRIX @ c + _VECTOR * u
    x, y, z = 1.0, 1.0, 1.0
    for _ in range(2 * _STEPS):
        dx, dy, dz = 10.0 * (y - x), x * (28.0 - z) - y, x * y - 8.0 / 3.0 * z
        x, y, z = x + 1e-3 * dx, y + 1e-3 * dy, z + 1e-3 * dz
    return float(c.sum()) + x


def sample(count: int) -> list[float]:
    """Wall times of `count` kernel runs."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def samples_after(op_seconds: float) -> list[float]:
    """Kernel times for the gap after an op, more of them after a long op."""
    return sample(min(MAX_SAMPLES_PER_GAP, 1 + int(op_seconds / SECONDS_PER_SAMPLE)))


def scale(samples: list[float]) -> float:
    """Factor that turns this run's wall times into reference-speed times."""
    return REFERENCE_S / statistics.median(samples)
