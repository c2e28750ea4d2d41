"""Reference implementations of the symmetrised game and its weight identity.

These are the per-pair Fraction constructions the library used before it
moved to one integer array per game and read W from the preference graph.
They share no code with ``zsflow.symmetrise`` or ``zsflow.prefgraph``: the
weights come from the per-pair ``weight`` in ``graph_oracle``, so any
difference is an error in the array versions.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from zsflow import Game, make_game, random_game
from zsflow.game import Profile

from graph_oracle import fraction_rows, weight


def oracle_symmetrise(g: Game) -> tuple[tuple[Fraction, ...], ...]:
    """S[p][q] = M[p1][q2] - M[q1][p2] over row-major profiles, one Fraction each."""
    order = [(i, j) for i in range(g.n) for j in range(g.m)]
    M = fraction_rows(g)
    return tuple(
        tuple(M[p1][q2] - M[q1][p2] for (q1, q2) in order)
        for (p1, p2) in order
    )


def _w0(g: Game, p: Profile, q: Profile) -> Fraction:
    # Weight extended to equal profiles; skew-symmetry forces W[p][p] = 0.
    if p == q:
        return Fraction(0)
    return weight(g, p, q)


def oracle_weight_identity(g: Game, matrix=None) -> tuple[int, tuple]:
    """(pairs checked, violations) of S[p][q] = W[p][(p1,q2)] + W[p][(q1,p2)]
    = W[(p1,q2)][q] + W[(q1,p2)][q], one ordered pair at a time.  matrix
    replaces S, e.g. by a deliberately corrupted copy."""
    S = oracle_symmetrise(g) if matrix is None else matrix
    order = [(i, j) for i in range(g.n) for j in range(g.m)]
    violations = []
    checked = 0
    for a, p in enumerate(order):
        for b, q in enumerate(order):
            s = S[a][b]
            mid1 = (p[0], q[1])
            mid2 = (q[0], p[1])
            via_p = _w0(g, p, mid1) + _w0(g, p, mid2)
            via_q = _w0(g, mid1, q) + _w0(g, mid2, q)
            checked += 1
            if s != via_p or s != via_q:
                violations.append((p, q, s, via_p, via_q))
    return checked, tuple(violations)


# Payoff magnitudes around the int64 bounds of the integer view: sums of two
# weights switch to Python ints at 2**61, the view itself at 2**62.
EDGES = (2**61 - 1, 2**61, 2**61 + 1, 2**62 - 1, 2**62, 2**62 + 1, 2**64 + 3)


def identity_corpus(seed: int, count: int) -> list[Game]:
    """Seeded non-symmetric games in seven kinds, taken in turn: generic,
    rational, tie-heavy in [-2, 2], one row, one column, entries of +-one
    magnitude from EDGES, and mixed EDGES magnitudes."""
    rng = np.random.default_rng(seed)
    games = []
    for k in range(count):
        n, m = (int(v) for v in rng.integers(1, 6, size=2))
        kind = k % 7
        if kind == 0:
            games.append(random_game(rng, False, n, m))
        elif kind == 1:
            num = rng.integers(-9, 10, size=(n, m))
            den = rng.integers(1, 13, size=(n, m))
            games.append(
                make_game([[Fraction(int(a), int(b)) for a, b in zip(*r)] for r in zip(num, den)])
            )
        elif kind == 2:
            games.append(random_game(rng, False, n, m, -2, 2))
        elif kind == 3:
            games.append(random_game(rng, False, 1, m))
        elif kind == 4:
            games.append(random_game(rng, False, n, 1))
        elif kind == 5:
            edge = EDGES[int(rng.integers(len(EDGES)))]
            signs = rng.integers(-1, 2, size=(n, m)).tolist()
            games.append(make_game([[s * edge for s in row] for row in signs]))
        else:
            picks = rng.integers(len(EDGES), size=(n, m)).tolist()
            signs = rng.integers(-1, 2, size=(n, m)).tolist()
            games.append(
                make_game([[s * EDGES[e] for s, e in zip(*r)] for r in zip(signs, picks)])
            )
    return games
