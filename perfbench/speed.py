"""Machine-speed probe: a fixed kernel timed between the benchmark's timed calls.

On a shared virtual machine, load from other tenants can slow every
instruction of this process by up to about 1.6x for minutes at a time. The
probe runs the same fixed work (Python-level float, tuple and dict work like
the geometry layer, and small dense numpy reductions like the simplex
pricing) between timed calls. The mean probe time over a pass, divided by
REFERENCE_S, is that pass's slowdown; the benchmark divides the pass's call
times by it and so reports times at reference speed. Raw times stay in the
run record.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

# mean probe time on the reference machine (2-core Xeon VM, Python 3.11,
# numpy 2.4), in seconds; it only sets the scale of the reported times
REFERENCE_S = 0.002

_POINTS = [((i * 0.37) % 1.0, (i * 0.61) % 1.0) for i in range(3000)]
_GRID = (np.arange(120 * 120, dtype=float).reshape(120, 120) * 0.37) % 7.3


def _kernel() -> float:
    acc = 0.0
    seen = {}
    for k, ((x1, y1), (x2, y2)) in enumerate(zip(_POINTS, _POINTS[1:])):
        acc += math.hypot(x1 - x2, y1 - y2)
        seen[k % 97] = acc
    for _ in range(30):
        acc += float((_GRID - _GRID.mean(axis=0)).argmin())
    return acc


def probe(repeats: int = 3) -> list[float]:
    """Seconds taken by each of `repeats` runs of the fixed kernel."""
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        out.append(time.perf_counter() - start)
    return out


def probe_each_cpu(repeats: int = 3) -> list[float]:
    """probe() on each core this process may use, pinning the calling thread in turn."""
    allowed = os.sched_getaffinity(0)
    out = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            out += probe(repeats)
    finally:
        os.sched_setaffinity(0, allowed)
    return out
