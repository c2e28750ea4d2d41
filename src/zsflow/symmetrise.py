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

from .game import Game, GameFormatError, Profile, float_matrix, weight


@dataclass(frozen=True)
class SymmetrisedGame:
    base: Game
    matrix: tuple[tuple[Fraction, ...], ...]
    profile_order: tuple[tuple[int, int], ...]

    def index(self, p: Profile) -> int:
        return p[0] * self.base.m + p[1]

    def as_game(self) -> Game:
        """The symmetrised matrix as a symmetric-mode Game (labels 'r,c')."""
        labels = tuple(self.base.profile_name(p) for p in self.profile_order)
        return Game(self.matrix, True, labels, labels)


def _check_nonsymmetric(g: Game) -> None:
    if g.symmetric:
        raise GameFormatError("game is already symmetric; symmetrisation expects non-symmetric input")


def symmetrise(g: Game) -> SymmetrisedGame:
    _check_nonsymmetric(g)
    order = tuple((i, j) for i in range(g.n) for j in range(g.m))
    matrix = tuple(
        tuple(g.matrix[p1][q2] - g.matrix[q1][p2] for (q1, q2) in order)
        for (p1, p2) in order
    )
    return SymmetrisedGame(g, matrix, order)


def sym_float_matrix(g: Game) -> np.ndarray:
    """Float symmetrised matrix of g (read-only), broadcast from the float view:
    S[(i,j),(k,l)] = M[i,l] - M[k,j]."""
    _check_nonsymmetric(g)
    M = float_matrix(g)
    arr = (M[:, None, None, :] - M.T[None, :, :, None]).reshape(g.n * g.m, g.n * g.m)
    arr.setflags(write=False)
    return arr


def _w0(g: Game, p: Profile, q: Profile) -> Fraction:
    # Weight extended to equal profiles; skew-symmetry forces W[p][p] = 0.
    if p == q:
        return Fraction(0)
    return weight(g, p, q)


@dataclass(frozen=True)
class WeightIdentityReport:
    pairs_checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def check_weight_identity(g: Game) -> WeightIdentityReport:
    """Verify S[p][q] = W[p][(p1,q2)] + W[p][(q1,p2)] = W[(p1,q2)][q] + W[(q1,p2)][q].

    Exact rational arithmetic over every ordered profile pair.
    """
    sg = symmetrise(g)
    order = sg.profile_order
    violations = []
    checked = 0
    for a, p in enumerate(order):
        for b, q in enumerate(order):
            s = sg.matrix[a][b]
            mid1 = (p[0], q[1])
            mid2 = (q[0], p[1])
            via_p = _w0(g, p, mid1) + _w0(g, p, mid2)
            via_q = _w0(g, mid1, q) + _w0(g, mid2, q)
            checked += 1
            if s != via_p or s != via_q:
                violations.append((p, q, s, via_p, via_q))
    return WeightIdentityReport(checked, tuple(violations))
