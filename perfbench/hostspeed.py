"""Host-speed reference: scales measured times to a nominal host speed.

On a shared host the same sixteen stage runs took 41 s in one pass and
30 s in the next, with CPU time tracking wall time: the slow
phases are slower execution on shared cores, not descheduling, and they
last from seconds to minutes, longer than one benchmark run. So each
timed run is bracketed by a short fixed reference kernel, and its time is
reported as ``measured * nominal / reference``: the seconds it would take
at the speed where the kernel takes its nominal time.

The kernels are frozen code of the benchmark's own, not tiernav's, so a
change to tiernav moves the scaled times exactly as it moves the measured
ones. There are two, because contention slows interpreted code more than
BLAS (within one run, an interpreter-bound reference varied 1.55x and a
BLAS-bound one 1.17x): ``python`` mimics the A* planner (dict, heapq,
tuples, math.hypot) and ``numpy`` the map encoder (im2col and a matmul).
Each workload uses the one that matches its main cost.
"""

from __future__ import annotations

import heapq
import math
import statistics
import time

# Kernel seconds at the nominal speed: the median of each kernel over a
# few minutes on a 2-vCPU Xeon VM (Python 3.11.7, numpy 2.4.6, one BLAS
# thread). Fixed constants, so scaled times compare across runs.
NOMINAL_S = {"python": 0.0085, "numpy": 0.0062}

_GRID = 64


def _python_kernel():
    """A* over a fixed 64x64 grid with a fixed wall pattern."""
    blocked = {(x, y) for x in range(4, _GRID - 4, 6) for y in range(_GRID - 8) if (x // 6) % 2}
    blocked |= {(x, y) for x in range(4, _GRID - 4, 6) for y in range(8, _GRID) if not (x // 6) % 2}
    goal = (_GRID - 1, _GRID - 1)
    g = {(0, 0): 0.0}
    heap = [(0.0, 0.0, (0, 0))]
    closed = set()
    while heap:
        _, _, cur = heapq.heappop(heap)
        if cur in closed:
            continue
        closed.add(cur)
        if cur == goal:
            return g[cur]
        x, y = cur
        for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if not (0 <= nxt[0] < _GRID and 0 <= nxt[1] < _GRID) or nxt in blocked:
                continue
            ng = g[cur] + 1.0
            if ng < g.get(nxt, math.inf):
                g[nxt] = ng
                h = math.hypot(nxt[0] - goal[0], nxt[1] - goal[1])
                heapq.heappush(heap, (ng + h, h, nxt))
    raise AssertionError("reference grid has no path")


_NUMPY_BUFFERS = None


def _numpy_kernel():
    """3x3 convolution of a fixed 8x8x64x64 batch by im2col and matmul.

    All arrays are allocated once, so the kernel times copies and
    arithmetic, not page faults.
    """
    global _NUMPY_BUFFERS
    import numpy as np

    if _NUMPY_BUFFERS is None:
        rng = np.random.default_rng(0)
        _NUMPY_BUFFERS = (rng.standard_normal((8, 8, 66, 66)), rng.standard_normal((16, 72)),
                          np.empty((8, 8, 9, 64, 64)), np.empty((8, 16, 64 * 64)))
    x, w, cols, out = _NUMPY_BUFFERS
    for i in range(3):
        for j in range(3):
            cols[:, :, 3 * i + j] = x[:, :, i:i + 64, j:j + 64]
    np.matmul(w, cols.reshape(8, 72, 64 * 64), out=out)
    np.maximum(out, 0.0, out=out)
    return float(out.sum())


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


def kernel_seconds(kind: str, repeats: int = 5) -> float:
    """Median time of the reference kernel over a few back-to-back runs."""
    fn = KERNELS[kind]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def speed(kind: str) -> float:
    """Host speed now, relative to nominal: below 1 when the host is slow."""
    return NOMINAL_S[kind] / kernel_seconds(kind)
