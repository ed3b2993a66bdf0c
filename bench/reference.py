"""A fixed reference kernel that measures the host's speed of the moment.

On a shared host the same op can take 1.7 times longer for tens of
seconds at a stretch, because other tenants load the machine; wall
times from two runs a minute apart then differ by more than any useful
bound.  The benchmark runs this kernel between ops and reports every
time scaled to reference speed:

    scaled = measured * NOMINAL_MS / kernel_ms (kernel timed nearby)

The kernel does what the package's hot paths do - numpy calls on arrays
of about 1.5k elements, dispatch overhead included - so host slowdowns
move it and the ops alike, while a change to the package moves only the
ops.  It uses nothing from the package.  Each sample is the best of
three back-to-back runs, so it reads the host's speed rather than how
cold the caches were left by the previous op.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_MS = 0.2  # the kernel's best-of-three time on an idle 2-vCPU host
REPEATS = 3


def _kernel() -> float:
    xs = np.linspace(0.0, 10.0, 1536)
    acc = 0.0
    for _ in range(6):
        z = 0.5 + xs - 0.3 * xs[::-1]
        scale = np.abs(z) + 2.0
        num = np.maximum(z, 0.0) - np.minimum(0.0, -z)
        out = np.full(z.shape, 0.5)
        np.divide(num, scale, out=out, where=scale > 0)
        acc += float(out[int(np.argmax(out))])
    return acc


def sample_ms() -> float:
    """One speed sample: the best of REPEATS timed kernel runs, in ms."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def factor(samples_ms: list[float]) -> float:
    """Multiplier taking times measured next to these samples to
    reference speed."""
    return NOMINAL_MS / statistics.median(samples_ms)
