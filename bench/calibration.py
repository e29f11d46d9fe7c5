"""Host-speed calibration for the end-to-end times.

On a shared host the CPU can run at clearly different speeds for seconds
or minutes at a time (see README.md).  A run times this fixed kernel,
which does not touch platoonkey, next to its operations.  The kernel's
fastest time against ``REFERENCE_S`` is the run's slowdown, and the
end-to-end times are divided by it: they read as on the reference host.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Fastest time of the kernel on the host the benchmark was built on
# (2 vCPUs, Python 3.11, numpy 2.4).
REFERENCE_S = 1.4e-3
INTERVAL_S = 0.25    # between kernel runs inside a closed loop

_DATA = np.random.default_rng(0).random(20_000)


def kernel_s() -> float:
    """Seconds one run of a fixed mix of interpreter and numpy work takes."""
    t0 = perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    np.sort(_DATA)
    np.cumsum(_DATA)
    return perf_counter() - t0


def slowdown(kernel_samples) -> float:
    """How much slower than the reference host this host was at its
    fastest while the samples were taken."""
    return min(kernel_samples) / REFERENCE_S
