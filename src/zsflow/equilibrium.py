"""Nash equilibria of zero-sum games by support enumeration, plus the link
between equilibrium supports and the preference graph's sink component.

For every pair of equal-cardinality supports the indifference conditions give
a square linear system per player; solutions that satisfy the best-response
inequalities within tolerance are equilibria.  Every extreme optimal strategy
arises from such a square subsystem, so the union of the supports found is
the full set of strategies used by any equilibrium: the essential subgame.
solve_nash runs the enumeration once per game and from it reports the
selected equilibrium, the essential subgame, and the sink-membership and
strong-connectivity verdicts of both against the preference graph.

The enumeration is batched per support size: the systems of a chunk of
support pairs are stacked and solved by one LAPACK call, one vectorised
test accepts the chunk's candidates, and the chunk size is capped so that
working memory stays bounded however many pairs there are.  The equilibria
stay stacked arrays; selection, the essential subgame and the verdicts read
their support masks.  About 10 strategies per side take seconds; the pair
count, C(2n, n), sets the limit beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from .game import Game, MixedProfile, SUPPORT_ATOL, report_sets
from .prefgraph import PreferenceGraph, _connectivity, build_graph

# Best-response slack accepted when validating a candidate equilibrium, per
# unit of the largest payoff magnitude (at least 1).
EQ_TOL = 1e-9
# Matrix entries per stacked system in one chunk of support pairs.
CHUNK_ENTRIES = 2**13


class NoEquilibriumError(RuntimeError):
    """Support enumeration found no equilibrium.  The minimax theorem
    guarantees one, so the float solves or the tolerance failed on the game."""


@dataclass(frozen=True)
class NashCertificate:
    """An equilibrium together with its graph-side verdicts.

    support holds the per-player strategy index sets (a single set for
    symmetric games); in_sink and support_strongly_connected refer to the
    product of those sets inside the preference graph.  essential holds the
    same verdicts for the essential subgame.
    """

    equilibrium: MixedProfile
    game_value: float
    support: tuple[tuple[int, ...], ...]
    in_sink: bool
    support_strongly_connected: bool
    essential: PreferenceNashReport


@dataclass(frozen=True)
class PreferenceNashReport:
    """Sink membership and connectivity of the essential subgame."""

    subgame: tuple[tuple[int, ...], ...]
    in_sink: bool
    strongly_connected: bool
    zero_weight_arc_pairs: int

    @property
    def passed(self) -> bool:
        return self.in_sink and self.strongly_connected


def _tolerance(M: np.ndarray) -> float:
    """Best-response slack for M: EQ_TOL relative to the largest payoff."""
    return EQ_TOL * max(1.0, float(np.max(np.abs(M))))


def _solve_bordered(blocks: np.ndarray) -> np.ndarray:
    """Solve [[B, -1], [1^T, 0]] z = e_k for every block B in a (P, k, k) stack.

    Rows of singular systems are NaN.  The sign from slogdet is 0 exactly when
    LU meets a zero pivot, which is when np.linalg.solve raises (det would
    also read 0 when a product of small pivots underflows).
    """
    P, k, _ = blocks.shape
    A = np.empty((P, k + 1, k + 1))
    A[:, :k, :k] = blocks
    A[:, :k, k] = -1.0
    A[:, k, :k] = 1.0
    A[:, k, k] = 0.0
    e = np.zeros(k + 1)
    e[k] = 1.0
    sol = np.full((P, k + 1), np.nan)
    ok = np.flatnonzero(np.linalg.slogdet(A)[0] != 0)
    # b as (P, k+1, 1): numpy 1.x and 2.x both read it as one column each.
    b = np.broadcast_to(e[:, None], (len(ok), k + 1, 1))
    try:
        sol[ok] = np.linalg.solve(A[ok], b)[..., 0]
    except np.linalg.LinAlgError:
        for p in ok:
            try:
                sol[p] = np.linalg.solve(A[p], e)
            except np.linalg.LinAlgError:
                pass
    return sol


def _enumerate_equilibria(g: Game) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All equilibria found over equal-cardinality supports, in enumeration order.

    Returns the stacked row strategies, column strategies and values;
    singular candidate systems are skipped.  Support pairs run S1 outer, S2
    inner, both lexicographic, and are solved in chunks of at most
    CHUNK_ENTRIES matrix entries per system.
    """
    M = g.float_view
    tol = _tolerance(M)
    n, m = M.shape
    found = []
    for k in range(1, min(n, m) + 1):
        rows = np.array(list(combinations(range(n), k)))
        cols = np.array(list(combinations(range(m), k)))
        pairs = len(rows) * len(cols)
        step = max(1, CHUNK_ENTRIES // (k + 1) ** 2)
        for start in range(0, pairs, step):
            p = np.arange(start, min(start + step, pairs))
            S1 = rows[p // len(cols)]
            S2 = cols[p % len(cols)]
            # Row r of the row player's block is column S2[r] of M on rows S1;
            # the column player's block is its transpose.
            blocks = M[S1[:, None, :], S2[:, :, None]]
            solx = _solve_bordered(blocks)
            soly = _solve_bordered(blocks.transpose(0, 2, 1))
            # inf - inf is NaN; the finite test rejects those rows anyway.
            with np.errstate(invalid="ignore"):
                keep = (
                    np.isfinite(solx).all(axis=1)
                    & np.isfinite(soly).all(axis=1)
                    & (np.abs(solx[:, k] - soly[:, k]) <= tol)
                    & (solx[:, :k] >= -SUPPORT_ATOL).all(axis=1)
                    & (soly[:, :k] >= -SUPPORT_ATOL).all(axis=1)
                )
            idx = np.flatnonzero(keep)
            at = np.arange(len(idx))[:, None]
            X = np.zeros((len(idx), n))
            Y = np.zeros((len(idx), m))
            X[at, S1[idx]] = np.clip(solx[idx, :k], 0.0, None)
            Y[at, S2[idx]] = np.clip(soly[idx, :k], 0.0, None)
            v = solx[idx, k]
            w = v[:, None]
            # Within tol: no pure deviation gains, every strategy in a support
            # earns the value, and so does the profile itself.
            R = Y @ M.T
            C = X @ M
            ok = (
                (R <= w + tol).all(axis=1)
                & (C >= w - tol).all(axis=1)
                & ((X <= SUPPORT_ATOL) | (np.abs(R - w) <= tol)).all(axis=1)
                & ((Y <= SUPPORT_ATOL) | (np.abs(C - w) <= tol)).all(axis=1)
                & (np.abs((X * R).sum(axis=1) - v) <= tol)
            )
            found.append((X[ok], Y[ok], v[ok]))
    X, Y, v = (np.concatenate(parts) for parts in zip(*found))
    if not len(v):
        raise NoEquilibriumError(
            "support enumeration found no equilibrium; this contradicts the "
            "minimax theorem and indicates a numerical failure"
        )
    return X, Y, v


def _indices(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(np.flatnonzero(mask).tolist())


def solve_nash(g: Game, pg: PreferenceGraph | None = None) -> NashCertificate:
    """Equilibrium with deterministic tie-breaking, certified against the graph
    together with the essential subgame, all from one enumeration.

    The selected equilibrium has the largest support, then the
    lexicographically smallest support pair, then comes first in enumeration
    order.  pg, if given, must be the preference graph of g (else ValueError).
    """
    pg = build_graph(g) if pg is None else pg
    if pg.game != g:
        raise ValueError("pg is not the preference graph of g")
    X, Y, v = _enumerate_equilibria(g)
    SX, SY = X > SUPPORT_ATOL, Y > SUPPORT_ATOL
    size = SX.sum(axis=1) + SY.sum(axis=1)
    j = min(np.flatnonzero(size == size.max()), key=lambda k: (_indices(SX[k]), _indices(SY[k])))
    if g.symmetric:
        # Any optimal strategy of one player is optimal for both, so x against
        # itself is an equilibrium of the symmetric game.
        z, value = MixedProfile((X[j],)), float(X[j] @ g.float_view @ X[j])
        sets, ess_sets = (SX[j],), (SX.any(axis=0) | SY.any(axis=0),)
    else:
        z, value = MixedProfile((X[j], Y[j])), float(v[j])
        sets, ess_sets = (SX[j], SY[j]), (SX.any(axis=0), SY.any(axis=0))
    # Node masks of the products of the per-block strategy masks, row-major.
    chosen, essential = (reduce(np.logical_and.outer, s).ravel() for s in (sets, ess_sets))
    connected, ties = _connectivity(pg, essential)
    return NashCertificate(
        equilibrium=z,
        game_value=value,
        support=tuple(map(_indices, sets)),
        in_sink=bool(np.all(chosen <= pg._sink)),
        support_strongly_connected=_connectivity(pg, chosen)[0],
        essential=PreferenceNashReport(
            subgame=tuple(map(_indices, ess_sets)),
            in_sink=bool(np.all(essential <= pg._sink)),
            strongly_connected=connected,
            zero_weight_arc_pairs=ties,
        ),
    )


def certificate_to_dict(cert: NashCertificate, g: Game) -> dict:
    """JSON-friendly certificate with strategy labels."""
    vecs = [[float(v) for v in vec] for vec in cert.equilibrium.vectors]
    return {
        "equilibrium": vecs,
        "game_value": cert.game_value,
        "support": report_sets(g, cert.support),
        "in_sink": cert.in_sink,
        "support_strongly_connected": cert.support_strongly_connected,
    }
