"""A fixed kernel that measures how fast the machine runs at the moment.

On a shared host the same code runs tens of percent faster or slower
from one minute to the next, so raw times of runs made minutes apart
spread by up to a quarter.  The worker times this kernel before every
job, in the same process, and run.py scales times summed over a run's
rounds by NOMINAL_S / (mean kernel time over those rounds): a drift in
machine speed cancels, a change in cloudalloc does not, because the
kernel calls no cloudalloc code and keeps nothing alive between calls.
Its parts mirror the workloads: a scalar float recurrence, 3x3
Gram-Schmidt steps, big-integer products and a float block reduced to
booleans.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time the scaled metrics refer to: about its median on a 2-vCPU
# 2.0 GHz virtual machine, so scaled and measured seconds are close there.
NOMINAL_S = 0.04

_JACOBIAN = np.array([[0.6, 1.28, -1.23], [-0.01, -0.006, -1.23], [0.01, 1.28, 0.007]])
_ANGLES = np.arange(256 * 70, dtype=float)


def kernel() -> float:
    """Run the kernel once; return its wall time in seconds.

    It loads no numpy submodule (linalg, random) that a workload might
    not load itself, so it adds nothing to a round's peak_rss_mb.
    """
    start = time.perf_counter()
    x = 0.3
    for _ in range(120_000):
        x = 3.9 * x * (1.0 - x)

    frame = np.eye(3)
    for _ in range(400):
        frame = _JACOBIAN @ frame
        for j in range(3):
            for i in range(j):
                frame[:, j] -= (frame[:, i] @ frame[:, j]) * frame[:, i]
            frame[:, j] /= np.sqrt(frame[:, j] @ frame[:, j])

    total = 0
    for f in range(200):
        total += 3 ** (3000 + f) * 7 ** (2000 - f)

    for k in range(16):
        block = np.sin(_ANGLES * (0.37 + k)).reshape(256, 70) > 0.9
        block.reshape(256, 10, 7).all(axis=2).any(axis=1)
    return time.perf_counter() - start
