"""Symmetrisation of a non-symmetric zero-sum game.

The symmetrised game has one strategy per pure profile p = (p1, p2), ordered
row-major (index p1*m + p2), with payoffs

    S[p][q] = M[p1][q2] - M[q1][p2]

which is anti-symmetric by construction.  On comparable pairs S agrees with
the weight function, and in general S[p][q] splits as a sum of two weights
through either intermediate profile (p1, q2) or (q1, p2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .game import Game, GameFormatError
from .prefgraph import build_graph


def _check_nonsymmetric(g: Game) -> None:
    if g.symmetric:
        raise GameFormatError("game is already symmetric; symmetrisation expects non-symmetric input")


def _pair_differences(M: np.ndarray) -> np.ndarray:
    """S[(i,j),(k,l)] = M[i,l] - M[k,j] as an (nm, nm) array."""
    n, m = M.shape
    return (M[:, None, None, :] - M.T[None, :, :, None]).reshape(n * m, n * m)


def symmetrise(g: Game) -> Game:
    """The symmetrised game in symmetric mode, strategies labelled 'r,c'."""
    _check_nonsymmetric(g)
    labels = tuple(g.profile_name(p) for p in g.profiles())
    return Game(_pair_differences(g.int_view), g.int_scale, True, labels, labels)


def sym_float_matrix(g: Game) -> np.ndarray:
    """Float symmetrised matrix of g (read-only), broadcast from the float view."""
    _check_nonsymmetric(g)
    arr = _pair_differences(g.float_view)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class WeightIdentityReport:
    pairs_checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def check_weight_identity(g: Game) -> WeightIdentityReport:
    """Verify S[p][q] = W[p][(p1,q2)] + W[p][(q1,p2)] = W[(p1,q2)][q] + W[(q1,p2)][q].

    All ordered profile pairs are checked at once in integers over the game's
    common denominator.  W (zero on the diagonal) is read from the arc arrays
    of the preference graph, so the symmetrised matrix is checked against the
    graph layer.  Violations are (p, q, S[p][q], via p, via q) with Fraction
    values, in row-major order of (p, q).
    """
    _check_nonsymmetric(g)
    return _weight_identity(g, _pair_differences(g.int_view))


def _weight_identity(g: Game, S: np.ndarray) -> WeightIdentityReport:
    """check_weight_identity against S, g's symmetrised matrix over g's scale."""
    arcs = build_graph(g).arcs
    order, m = g.profiles(), g.m
    N = len(order)
    # A weight is a difference of two entries and each side of the identity a
    # sum of two weights, so int64 holds them exactly while every entry is
    # below 2**61 in magnitude; past that, Python ints.
    I = g.int_view
    big = max(-int(I.min()), int(I.max())) >= 2**61
    W = np.zeros((N, N), dtype=object if big else np.int64)
    # An arc p -> q of weight w means weight(p, q) = -w and weight(q, p) = w.
    W[arcs["dst"], arcs["src"]] = arcs["weight"]
    W[arcs["src"], arcs["dst"]] = -arcs["weight"]
    i, j = np.divmod(np.arange(N), m)
    mid1 = i[:, None] * m + j  # (p1, q2)
    mid2 = i * m + j[:, None]  # (q1, p2)
    rows, cols = np.arange(N)[:, None], np.arange(N)
    via_p = W[rows, mid1] + W[rows, mid2]
    via_q = W[mid1, cols] + W[mid2, cols]
    bad = (S != via_p) | (S != via_q)
    scale = g.int_scale
    violations = tuple(
        (order[a], order[b])
        + tuple(Fraction(int(v[a, b]), scale) for v in (S, via_p, via_q))
        for a, b in zip(*(k.tolist() for k in np.nonzero(bad)))
    )
    return WeightIdentityReport(N * N, violations)
