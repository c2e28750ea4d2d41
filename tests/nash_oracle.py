"""Per-pair support enumeration: the reference for the batched enumeration.

For every pair of equal-cardinality supports (S1 outer, S2 inner, both in
lexicographic order) it builds and solves the two bordered indifference
systems one at a time and accepts a candidate with its own scalar
best-response test, one candidate at a time.  It shares only the library's
tolerance, so a difference from ``zsflow.equilibrium._enumerate_equilibria``
is an error of the stacked solve or of the vectorised acceptance test.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from zsflow import Game
from zsflow.equilibrium import _tolerance
from zsflow.game import SUPPORT_ATOL


def is_equilibrium(M: np.ndarray, x: np.ndarray, y: np.ndarray, v: float, tol: float) -> bool:
    """Best replies within tol, every supported strategy earning v, and x M y = v."""
    row_payoffs = M @ y
    col_payoffs = M.T @ x
    if np.any(row_payoffs > v + tol) or np.any(col_payoffs < v - tol):
        return False
    sx = x > SUPPORT_ATOL
    sy = y > SUPPORT_ATOL
    if np.any(np.abs(row_payoffs[sx] - v) > tol):
        return False
    if np.any(np.abs(col_payoffs[sy] - v) > tol):
        return False
    return abs(float(x @ M @ y) - v) <= tol


def solve_candidate(M: np.ndarray, S1, S2, tol: float) -> tuple | None:
    k = len(S1)
    n, m = M.shape
    # Row player's mix makes every column in S2 indifferent; value is unknown.
    A = np.zeros((k + 1, k + 1))
    b = np.zeros(k + 1)
    for r, t in enumerate(S2):
        A[r, :k] = M[list(S1), t]
        A[r, k] = -1.0
    A[k, :k] = 1.0
    b[k] = 1.0
    try:
        solx = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return None
    # Column player's mix makes every row in S1 indifferent.
    C = np.zeros((k + 1, k + 1))
    d = np.zeros(k + 1)
    for r, s in enumerate(S1):
        C[r, :k] = M[s, list(S2)]
        C[r, k] = -1.0
    C[k, :k] = 1.0
    d[k] = 1.0
    try:
        soly = np.linalg.solve(C, d)
    except np.linalg.LinAlgError:
        return None
    if not (np.all(np.isfinite(solx)) and np.all(np.isfinite(soly))):
        return None
    xs, v = solx[:k], solx[k]
    ys, w = soly[:k], soly[k]
    if abs(v - w) > tol:
        return None
    if np.any(xs < -SUPPORT_ATOL) or np.any(ys < -SUPPORT_ATOL):
        return None
    x = np.zeros(n)
    y = np.zeros(m)
    x[list(S1)] = np.clip(xs, 0.0, None)
    y[list(S2)] = np.clip(ys, 0.0, None)
    return x, y, float(v)


def enumerate_equilibria(g: Game) -> tuple:
    """(x tuple, y tuple, value) of every equilibrium found, in enumeration order."""
    M = g.float_view
    tol = _tolerance(M)
    n, m = M.shape
    found = []
    for k in range(1, min(n, m) + 1):
        for S1 in combinations(range(n), k):
            for S2 in combinations(range(m), k):
                sol = solve_candidate(M, S1, S2, tol)
                if sol is None:
                    continue
                x, y, v = sol
                if is_equilibrium(M, x, y, v, tol):
                    found.append((tuple(x), tuple(y), v))
    return tuple(found)
