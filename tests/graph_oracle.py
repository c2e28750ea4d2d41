"""Reference implementations of the graph -> sink -> content chain.

These are the paper's per-pair definitions (``comparable`` and the weight
``W_{p,q}``), and the per-pair Fraction arc builder, the profile-keyed Tarjan,
the DOT writer and the 2^rows subset scan that the library used before it
moved to integer index arrays and the intersection closure.  They share no
code with ``zsflow.prefgraph`` or ``zsflow.content`` beyond the game's exact
payoffs and the result types, so any difference is an error in the array
versions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Literal, NamedTuple, Optional

import numpy as np

from zsflow import Game, PreferenceGraph, SccPartition, make_game, random_game
from zsflow.game import Profile

Comparability = Optional[Literal[1, 2, "all"]]


class Arc(NamedTuple):
    src: Profile
    dst: Profile
    weight: Fraction


def profile_arcs(pg: PreferenceGraph) -> tuple[Arc, ...]:
    """pg.arcs as Arc tuples: profiles for node indices, Fractions for weights."""
    nodes, scale = pg.nodes, pg.game.int_scale
    return tuple(Arc(nodes[s], nodes[d], Fraction(w, scale)) for s, d, w in pg.arcs.tolist())


def fraction_rows(g: Game) -> tuple[tuple[Fraction, ...], ...]:
    """The game's payoffs as rows of Fractions."""
    scale = g.int_scale
    return tuple(tuple(Fraction(v, scale) for v in row) for row in g.int_view.tolist())


class IncomparableProfilesError(ValueError):
    """A payoff difference was requested for an incomparable profile pair."""


def comparable(g: Game, a: Profile, b: Profile) -> Comparability:
    """Which single player could move between profiles a and b.

    Returns 1 or 2 for the deviating player, "all" for any distinct pair of a
    symmetric game, and None for equal or incomparable profiles.
    """
    g.node_mask([a, b])  # raises for a foreign profile
    if a == b:
        return None
    if g.symmetric:
        return "all"
    if a[1] == b[1]:
        return 1
    if a[0] == b[0]:
        return 2
    return None


def weight(g: Game, p: Profile, q: Profile) -> Fraction:
    """Payoff advantage of q over p for the player who can move between them.

    Skew-symmetric: weight(q, p) == -weight(p, q).  Negative means the mover
    prefers q, so the preference arc points from p to q.  Raises for pairs
    that are not comparable ("W_{p,q} is undefined").
    """
    who = comparable(g, p, q)
    if who is None:
        raise IncomparableProfilesError(
            f"W_(p,q) is undefined for incomparable profiles {p!r}, {q!r}"
        )
    I = g.int_view
    if g.symmetric:
        diff = I[p, q]
    else:
        diff = I[p] - I[q] if who == 1 else I[q] - I[p]
    return Fraction(int(diff), g.int_scale)


def _comparable_pairs(g: Game) -> Iterable[tuple[Profile, Profile]]:
    # Row-major in the first element; same-row partners before same-column.
    if g.symmetric:
        for s in range(g.n):
            for t in range(s + 1, g.n):
                yield s, t
        return
    for i in range(g.n):
        for j in range(g.m):
            for j2 in range(j + 1, g.m):
                yield (i, j), (i, j2)
            for i2 in range(i + 1, g.n):
                yield (i, j), (i2, j)


def oracle_arcs(g: Game) -> tuple[Arc, ...]:
    """Arcs of g's preference graph, one Fraction comparison per pair."""
    arcs: list[Arc] = []
    for p, q in _comparable_pairs(g):
        w = weight(g, p, q)
        if w < 0:
            arcs.append(Arc(p, q, -w))
        elif w > 0:
            arcs.append(Arc(q, p, w))
        else:
            # Tied payoffs: a pair of zero-weight arcs in both directions.
            arcs.append(Arc(p, q, Fraction(0)))
            arcs.append(Arc(q, p, Fraction(0)))
    return tuple(arcs)


def oracle_dot(g: Game, highlight: Iterable[Profile] = ()) -> str:
    """DOT text of g's preference graph from oracle_arcs, one line per node
    and per arc, highlighted nodes shaded."""

    def quote(text: str) -> str:
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    marked = set(highlight)
    out = "digraph preference_graph {\n"
    for v in g.profiles():
        shade = " [style=filled, fillcolor=lightgrey]" if v in marked else ""
        out += f"  {quote(g.profile_name(v))}{shade};\n"
    for a in oracle_arcs(g):
        src, dst = quote(g.profile_name(a.src)), quote(g.profile_name(a.dst))
        out += f"  {src} -> {dst} [label={quote(str(a.weight))}];\n"
    return out + "}\n"


def oracle_scc(nodes: tuple, arcs: Iterable[Arc]) -> SccPartition:
    """Tarjan over hashed profiles, components numbered by smallest position,
    the components no arc leaves as sinks, and half the zero-weight arcs as
    tied pairs."""
    arcs = tuple(arcs)
    adj = {v: [] for v in nodes}
    for a in arcs:
        adj[a.src].append(a.dst)
    index: dict = {}
    low: dict = {}
    onstack: set = set()
    stack: list = []
    raw: list[frozenset] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                raw.append(frozenset(comp))

    position = {v: k for k, v in enumerate(nodes)}
    ordered = tuple(sorted(raw, key=lambda c: min(position[v] for v in c)))
    component_of = {v: k for k, comp in enumerate(ordered) for v in comp}
    edges = frozenset(
        (component_of[a.src], component_of[a.dst])
        for a in arcs
        if component_of[a.src] != component_of[a.dst]
    )
    has_out = {src for src, _ in edges}
    sinks = tuple(k for k in range(len(ordered)) if k not in has_out)
    ties = sum(1 for a in arcs if a.weight == 0) // 2
    return SccPartition(ordered, sinks, ties)


def oracle_maximal_subgames(H: Iterable[Profile], g: Game):
    """Maximal product sets inside H by closing every one of the 2^rows row subsets."""
    Hset = frozenset(H)
    g.node_mask(Hset)  # raises for a foreign profile
    if g.symmetric:
        return [tuple(sorted(Hset))]
    if not Hset:
        return []
    neigh = {i: frozenset(j for j in range(g.m) if (i, j) in Hset) for i in range(g.n)}
    rows = [i for i in range(g.n) if neigh[i]]
    seen = set()
    out = []
    for mask in range(1, 1 << len(rows)):
        chosen = [rows[k] for k in range(len(rows)) if mask >> k & 1]
        cols = frozenset.intersection(*(neigh[i] for i in chosen))
        if not cols:
            continue
        closed_rows = frozenset(i for i in rows if neigh[i] >= cols)
        key = (closed_rows, cols)
        if key in seen:
            continue
        seen.add(key)
        out.append((tuple(sorted(closed_rows)), tuple(sorted(cols))))
    out.sort()
    return out


def sized_corpus(rng, count: int, rows: int, cols: int, symmetric: int) -> list[Game]:
    """zsflow.sampling.game_corpus with its sizes as arguments: the same draws,
    alternating non-symmetric 1-rows x 1-cols and symmetric 2-symmetric games.
    At sizes 5, 5 and 7 it is game_corpus."""
    games = []
    for k in range(count):
        if k % 2 == 0:
            n, m = int(rng.integers(1, rows + 1)), int(rng.integers(1, cols + 1))
            games.append(random_game(rng, False, n, m))
        else:
            games.append(random_game(rng, True, int(rng.integers(2, symmetric + 1))))
    return games


def oracle_corpus(seed: int, count: int) -> list[Game]:
    """Seeded games in four kinds, taken in turn: generic, tie-heavy (payoffs
    in [-2, 2], either mode), symmetric and rational-payoff."""
    rng = np.random.default_rng(seed)
    games = []
    for k in range(count):
        n, m = (int(v) for v in rng.integers(1, 7, size=2))
        kind = k % 4
        if kind == 0:
            games.append(random_game(rng, False, n, m))
        elif kind == 1:
            games.append(random_game(rng, bool(rng.integers(2)), max(n, 2), m, -2, 2))
        elif kind == 2:
            games.append(random_game(rng, True, max(n, 2)))
        else:
            num = rng.integers(-9, 10, size=(n, m))
            den = rng.integers(1, 13, size=(n, m))
            games.append(
                make_game([[Fraction(int(a), int(b)) for a, b in zip(*r)] for r in zip(num, den)])
            )
    return games


def planted_games(seed: int, count: int, largest: int = 100) -> list[Game]:
    """Games of either mode whose sink lies inside a random planted node set.

    A non-symmetric game plants a block R x C: outside rows pay less than any
    entry in the block columns, and outside columns more than any entry in the
    block rows, so no arc leaves the block.  A symmetric game plants a
    strategy set S whose members beat every other strategy.  Payoffs are tie
    heavy, so the sink is often a proper part of the planted set.
    """
    rng = np.random.default_rng(seed)
    games = []
    for k in range(count):
        n, m = (int(v) for v in rng.integers(2, largest + 1, size=2))
        if k % 2:
            K = rng.integers(-3, 4, size=(n, n))
            M = np.triu(K, 1) - np.triu(K, 1).T
            S = rng.random(n) < rng.uniform(0.1, 0.6)
            S[rng.integers(n)] = True
            M[np.ix_(S, ~S)] = rng.integers(1, 4, size=(S.sum(), n - S.sum()))
            M[np.ix_(~S, S)] = -M[np.ix_(S, ~S)].T
            games.append(make_game(M.tolist(), "symmetric"))
        else:
            M = rng.integers(-3, 4, size=(n, m))
            R, C = rng.random(n) < rng.uniform(0.1, 0.6), rng.random(m) < rng.uniform(0.1, 0.6)
            R[rng.integers(n)] = C[rng.integers(m)] = True
            M[np.ix_(~R, C)] = -10 - rng.integers(0, 3, size=(n - R.sum(), C.sum()))
            M[np.ix_(R, ~C)] = 10 + rng.integers(0, 3, size=(R.sum(), m - C.sum()))
            games.append(make_game(M.tolist()))
    return games


def tie_heavy_games(seed: int, count: int) -> list[Game]:
    """Games of either mode, 2-8 strategies a side, with payoffs in [-2, 2]."""
    rng = np.random.default_rng(seed)
    return [
        random_game(rng, bool(k % 2), *(int(v) for v in rng.integers(2, 9, size=2)), -2, 2)
        for k in range(count)
    ]
