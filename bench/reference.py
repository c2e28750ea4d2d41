"""A fixed reference computation that measures the machine's current speed.

On a shared host the same code runs 20-30% slower for minutes at a time.  The
child times this kernel between operations; it does not touch zsflow, so its
time changes only with the machine.  It mixes the kinds of work zsflow does:
exact fractions, dicts and sets of tuples, a graph walk, float formatting and
small dense solves.  The garbage collector is off while it runs, so the size
of the heap zsflow leaves behind cannot slow it down.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

import numpy as np

_N = 24
# Seconds one standalone kernel run took on a quiet 2-vCPU Intel Xeon VM
# (Python 3.11, numpy 2.4).  Normalised times are scaled to this speed; it is
# a fixed scale, and changing it would rescale every normalised metric.
NOMINAL_S = 0.065


def _kernel() -> int:
    rng = np.random.default_rng(12345)
    M = rng.integers(-9, 10, size=(_N, _N))
    F = [[Fraction(int(v), 7) for v in row] for row in M]
    # Arcs between profiles sharing a row or column, as in a preference graph.
    adj: dict = {}
    for i in range(_N):
        for j in range(_N):
            out = []
            for r in range(_N):
                if r != i and F[r][j] - F[i][j] >= 0:
                    out.append((r, j))
            for c in range(_N):
                if c != j and F[i][c] - F[i][j] <= 0:
                    out.append((i, c))
            adj[(i, j)] = out
    seen = {(0, 0)}
    todo = [(0, 0)]
    while todo:
        for q in adj[todo.pop()]:
            if q not in seen:
                seen.add(q)
                todo.append(q)
    A = rng.random((8, 8)) + 8 * np.eye(8)
    text = []
    for k in range(400):
        x = np.linalg.solve(A, A[k % 8])
        text.append(",".join(f"{float(v):.10g}" for v in x))
    return len(seen) + sum(map(len, text))


CHECK = _kernel()


def reference_s() -> float:
    """Seconds taken by one run of the reference kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        check = _kernel()
        dt = perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if check != CHECK:
        raise RuntimeError("reference kernel gave a different result")
    return dt
