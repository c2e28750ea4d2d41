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
support pairs are stacked and solved by one LAPACK call, and the chunk size
is capped so that working memory stays bounded however many pairs there are.
About 10 strategies per side take seconds; the pair count, C(2n, n), sets
the limit beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .game import Game, MixedProfile, SUPPORT_ATOL
from .prefgraph import PreferenceGraph, _connectivity, build_graph, node_mask, sink_component

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


def _support(v: np.ndarray) -> tuple[int, ...]:
    return tuple(int(i) for i in np.nonzero(v > SUPPORT_ATOL)[0])


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


def _is_equilibrium(M: np.ndarray, x: np.ndarray, y: np.ndarray, v: float, tol: float) -> bool:
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


def _enumerate_equilibria(g: Game) -> tuple:
    """All equilibria found over equal-cardinality supports, in enumeration order.

    Entries are (x tuple, y tuple, value); singular candidate systems are
    skipped.  Support pairs run S1 outer, S2 inner, both lexicographic, and
    are solved in chunks of at most CHUNK_ENTRIES matrix entries per system.
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
            # Best replies with twice the slack: these products differ from
            # _is_equilibrium's by rounding far below tol, so a pair that
            # fails here fails there too.
            near = ((Y @ M.T).max(axis=1) <= v + 2 * tol) & ((X @ M).min(axis=1) >= v - 2 * tol)
            for j in np.flatnonzero(near):
                x, y, value = X[j].copy(), Y[j].copy(), float(v[j])
                if _is_equilibrium(M, x, y, value, tol):
                    found.append((tuple(x), tuple(y), value))
    if not found:
        raise NoEquilibriumError(
            "support enumeration found no equilibrium; this contradicts the "
            "minimax theorem and indicates a numerical failure"
        )
    return tuple(found)


def _select(eqs: tuple) -> tuple:
    # Largest support first, then lexicographically smallest support pair.
    def rank(e):
        sx = _support(np.array(e[0]))
        sy = _support(np.array(e[1]))
        return (-(len(sx) + len(sy)), sx, sy)

    return min(eqs, key=rank)


def _union(g: Game, eqs: tuple) -> tuple[tuple[int, ...], ...]:
    """Per-player unions of the supports of eqs (one set for symmetric games)."""
    rows: set[int] = set()
    cols: set[int] = set()
    for x, y, _ in eqs:
        rows.update(_support(np.array(x)))
        cols.update(_support(np.array(y)))
    if g.symmetric:
        return (tuple(sorted(rows | cols)),)
    return (tuple(sorted(rows)), tuple(sorted(cols)))


def _profiles(g: Game, sets: tuple[tuple[int, ...], ...]) -> frozenset:
    """The pure profiles of the product of per-player index sets."""
    return frozenset(sets[0]) if g.symmetric else frozenset(product(*sets))


def solve_nash(g: Game, pg: PreferenceGraph | None = None) -> NashCertificate:
    """Equilibrium with deterministic tie-breaking, certified against the graph
    together with the essential subgame, all from one enumeration.

    pg is the preference graph of g if the caller has built it already.
    """
    eqs = _enumerate_equilibria(g)
    x, y, v = _select(eqs)
    x = np.array(x)
    y = np.array(y)
    if g.symmetric:
        # Any optimal strategy of one player is optimal for both, so x against
        # itself is an equilibrium of the symmetric game.
        z = MixedProfile((x,))
        support = (_support(x),)
        value = float(x @ g.float_view @ x)
    else:
        z = MixedProfile((x, y))
        support = (_support(x), _support(y))
        value = v
    pg = build_graph(g) if pg is None else pg
    sink = sink_component(pg)
    ess = _union(g, eqs)
    chosen, essential = _profiles(g, support), _profiles(g, ess)
    connected, ties = _connectivity(pg, node_mask(pg, essential))
    return NashCertificate(
        equilibrium=z,
        game_value=value,
        support=support,
        in_sink=chosen <= sink,
        support_strongly_connected=_connectivity(pg, node_mask(pg, chosen))[0],
        essential=PreferenceNashReport(
            subgame=ess,
            in_sink=essential <= sink,
            strongly_connected=connected,
            zero_weight_arc_pairs=ties,
        ),
    )


def certificate_to_dict(cert: NashCertificate, g: Game) -> dict:
    """JSON-friendly certificate with strategy labels."""
    vecs = [[float(v) for v in vec] for vec in cert.equilibrium.vectors]
    if g.symmetric:
        support = {"strategies": [g.row_labels[s] for s in cert.support[0]]}
    else:
        support = {
            "rows": [g.row_labels[i] for i in cert.support[0]],
            "cols": [g.col_labels[j] for j in cert.support[1]],
        }
    return {
        "equilibrium": vecs,
        "game_value": cert.game_value,
        "support": support,
        "in_sink": cert.in_sink,
        "support_strongly_connected": cert.support_strongly_connected,
    }
