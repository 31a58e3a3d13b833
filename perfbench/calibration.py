"""Host-speed calibration of operation times.

On a shared virtual host the speed of the same code changes by up to a
factor 2 between and within runs (see README.md).  The benchmark therefore
times a fixed reference kernel, which calls nothing of the program, between
operations, and scales each operation's time by ``REF_KERNEL_S`` over the
mean kernel time measured just before and after it.  The kernel runs for
``SHARE`` of the time of the operations it brackets, so a long operation
is bracketed by a long stretch of kernel runs.  A scaled time is the time
the operation would take on a host that runs the kernel in ``REF_KERNEL_S``;
a change of the program moves it, a change of host speed largely does not.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

# Kernel time that defines the reference speed: about its median on the
# reference machine of README.md.
REF_KERNEL_S = 0.005
# Kernel time per second of operation time.
SHARE = 0.1

_A = np.eye(6) * 0.9
_B = np.arange(36.0).reshape(6, 6) / 100.0
_X = np.linspace(-12.0, 12.0, 241)


def kernel() -> float:
    """A fixed mix of the work the program does: small matrix algebra in a
    Python loop, a vectorised grid and JSON writing."""
    acc = 0.0
    eye3 = 3.0 * np.eye(6)
    for i in range(120):
        m = _A @ _B + _A.T
        acc += float(np.trace(np.linalg.inv(m + eye3)))
        acc += math.sqrt(i + acc * acc % 7.0)
    grid = np.exp(-(_X[:, None] ** 2 + _X[None, :] ** 2) / 4.0)
    acc += float(grid.sum())
    acc += len(json.dumps([float(v) for v in grid[::6, ::6].ravel()]))
    return acc


def sample(budget_s: float = 0.0) -> float:
    """Mean seconds of one run of the reference kernel now, over at least
    one run and about ``budget_s`` seconds of runs."""
    runs, t0 = 0, time.perf_counter()
    while True:
        kernel()
        runs += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= budget_s:
            return elapsed / runs


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two kernel samples to the
    reference speed."""
    return REF_KERNEL_S / (0.5 * (before + after))
