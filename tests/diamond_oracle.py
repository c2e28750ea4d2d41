"""Exhaustive search for the 3x3 'diamond' game.

The target is a 3x3 zero-sum game with strategies a, b, c for both players
such that

  * the preference graph's sink contains every profile except (a, a),
  * the payoff entry M[a][c] is 3,
  * the Nash equilibrium is ((0, 1/2, 1/2), (0, 1/2, 1/2)),

with all payoffs integers in [-5, 5].  The search is exhaustive over that box
after pruning by conditions that are *necessary* for the targets, so the
result does not depend on guessing:

  * No arc may point into (a, a), otherwise the sink would have an outgoing
    condensation edge.  Comparing (a, a) with its four neighbours forces
    M[a][b] < M[a][a], 3 < M[a][a], M[b][a] > M[a][a], M[c][a] > M[a][a];
    inside [-5, 5] that pins M[a][a] = 4 and M[b][a] = M[c][a] = 5.
  * At the stated equilibrium both players are indifferent across {b, c},
    which forces M[b][c] = M[c][b] and M[b][b] = M[c][c].
  * Row a cannot earn more than the equilibrium value against (0, 1/2, 1/2):
    M[a][b] + 3 <= M[b][b] + M[b][c].

Surviving candidates are verified in full (sink, equilibrium, essential
subgame) and returned in lexicographic order of the free entries.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from zsflow import (
    Game,
    SinkUniquenessError,
    build_graph,
    make_game,
    sink_component,
    solve_nash,
)

LABELS = ["a", "b", "c"]
TARGET_SINK = frozenset((i, j) for i in range(3) for j in range(3)) - {(0, 0)}
TARGET_EQ = np.array([0.0, 0.5, 0.5])


def _candidate(m_ab: int, alpha: int, beta: int) -> Game:
    matrix = [[4, m_ab, 3], [5, alpha, beta], [5, beta, alpha]]
    return make_game(matrix, "non-symmetric", LABELS, LABELS)


def _matches(g: Game) -> bool:
    try:
        if sink_component(build_graph(g)) != TARGET_SINK:
            return False
    except SinkUniquenessError:
        return False
    cert = solve_nash(g)
    x, y = cert.equilibrium.vectors
    if np.abs(x - TARGET_EQ).max() > 1e-9 or np.abs(y - TARGET_EQ).max() > 1e-9:
        return False
    return cert.essential.subgame == ((1, 2), (1, 2))


@lru_cache(maxsize=1)
def search_diamond_matrices() -> tuple:
    """All integer matrices in the box matching the targets, first one canonical."""
    hits = []
    for m_ab in range(-5, 4):
        for alpha in range(-5, 6):
            for beta in range(-5, 6):
                if m_ab + 3 > alpha + beta:
                    continue
                g = _candidate(m_ab, alpha, beta)
                if _matches(g):
                    hits.append(tuple(tuple(int(v) for v in row) for row in
                                      ([4, m_ab, 3], [5, alpha, beta], [5, beta, alpha])))
    return tuple(hits)


def diamond_game() -> Game:
    hits = search_diamond_matrices()
    if not hits:
        raise AssertionError("no matrix in the [-5,5] box matches the diamond targets")
    return make_game([list(r) for r in hits[0]], "non-symmetric", LABELS, LABELS)
