"""Preference graph of a zero-sum game, its sink and its condensation.

Nodes are pure profiles.  For every comparable pair {p, q} there is an arc
p -> q exactly when weight(p, q) <= 0, i.e. the arc points at the profile the
deviating player weakly prefers; a tie yields the antiparallel pair of
zero-weight arcs.  An arc's weight is |weight(p, q)|; all arcs are held in
one array, with exact integer weights over the game's common denominator.

Reachability within a line is a threshold in its mover's order, so the sink
comes from forward and backward closures over the payoffs' dense ranks, or a
tournament's arc matrix, with no condensation.  The components, which only
analyze reports, and subset connectivity need one chain per line: a chain in
the mover's order with back arcs between consecutive tied entries reaches what
the line's full arcs reach, on any node subset too; a tournament condenses over
its arc matrix.  The full arc array is built only for output.  A graph is a
view of its game: it holds the game only, and builds the rest when first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .game import Game, Profile


class SinkUniquenessError(RuntimeError):
    """The preference graph has no unique sink component."""

    def __init__(self, message: str, components: list[frozenset]) -> None:
        super().__init__(message)
        self.components = components


@dataclass(frozen=True)
class PreferenceGraph:
    """The preference graph of game, over its payoffs times game.int_scale.

    arcs, built on first read, is one read-only structured array: arc k runs
    from nodes[src[k]] to nodes[dst[k]] with exact weight weight[k] /
    game.int_scale, stored in the game's integer dtype (int64 or object).
    """

    game: Game

    @cached_property
    def nodes(self) -> tuple[Profile, ...]:
        return tuple(self.game.profiles())

    @cached_property
    def arcs(self) -> np.ndarray:
        M = self.game.int_view
        n, m = M.shape
        if self.game.symmetric:
            p, q = np.nonzero(np.arange(n)[:, None] < np.arange(n))
            w = M[p, q]
        else:
            # Slots of profile (i, j): (i, k) for every column k, where the
            # column player moves, then (k, j) for every row k, where the row
            # player moves.  The valid slots in row-major order are the
            # comparable pairs in row-major order, same-row partners first.
            W = np.concatenate([M[:, None, :] - M[:, :, None], M[:, :, None] - M.T[None]], axis=2)
            i, j = np.divmod(np.arange(n * m)[:, None], m)
            slot = np.arange(m + n)
            p, k = np.nonzero(np.where(slot < m, slot > j, slot - m > i))
            w = W.reshape(n * m, m + n)[p, k]
            i, j = np.divmod(p, m)
            q = np.where(k < m, i * m + k, (k - m) * m + j)
        # w = weight(p, q): w < 0 gives p -> q, w > 0 gives q -> p, and a tie
        # gives p -> q followed by q -> p, both of weight zero.
        tie = w == 0
        reps = 1 + tie
        pair = np.repeat(np.arange(w.size), reps)
        back = (w > 0)[pair]
        back[np.cumsum(reps)[tie] - 1] = True
        arcs = np.empty(pair.size, dtype=[("src", np.intp), ("dst", np.intp), ("weight", w.dtype)])
        arcs["src"] = np.where(back, q[pair], p[pair])
        arcs["dst"] = np.where(back, p[pair], q[pair])
        arcs["weight"] = np.abs(w)[pair]
        arcs.flags.writeable = False
        return arcs

    @cached_property
    def _lines(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Node ids of every row, then every column, each least preferred first
        # by its mover: rows by falling payoff, columns by rising payoff; with
        # each entry's line and its run of equal payoffs within the line.
        M = self.game.int_view
        n, m = M.shape
        rows = np.argsort(-M, axis=1, kind="stable") + m * np.arange(n)[:, None]
        cols = np.argsort(M.T, axis=1, kind="stable") * m + np.arange(m)[:, None]
        seq = np.concatenate([rows.ravel(), cols.ravel()])
        line = np.repeat(np.arange(n + m), [m] * n + [n] * m)
        new = (line[1:] != line[:-1]) | (np.diff(M.ravel()[seq]) != 0)
        return seq, line, np.cumsum(np.concatenate([[True], new]))

    @property
    def arc_count(self) -> int:
        """len(arcs) without building them: each node has one comparable partner
        per other strategy of each player block, and a tied pair has two arcs."""
        partners = sum(len(block) - 1 for block in self.game.blocks)
        return len(self.nodes) * partners // 2 + scc(self).ties

    @cached_property
    def _partition(self) -> SccPartition:
        return _condense(self)

    @cached_property
    def _sink(self) -> np.ndarray:
        # Forward-backward (Fleischer, Hendrickson & Pinar): F = fwd(v) is a sink
        # once back(v) covers it, else restart in F - back(v), whose forward
        # closures lack v.  The sink is unique when every node reaches it.
        M, symmetric = self.game.int_view, self.game.symmetric
        if symmetric:
            A = M <= 0  # arc p -> q; the diagonal's loops reach nothing new
            W = np.array([A, A.T])
        else:
            V = np.unique(M.ravel(), return_inverse=True)[1].reshape(M.shape)
            W = np.array([V, -V])
        F, B = _closures(W, 0, symmetric)
        while (F & ~B).any():
            F, B = _closures(W, int((F & ~B).argmax()), symmetric)
        if not B.all():  # list the offending sinks from the condensation
            part = scc(self)
            raise SinkUniquenessError(
                f"expected exactly one sink component, found {len(part.sinks)}",
                [part.components[k] for k in part.sinks],
            )
        return F


@dataclass(frozen=True)
class SccPartition:
    """Condensation of a preference graph: components numbered by the
    smallest row-major position of any contained node, the sink components'
    numbers and the graph's tied pairs."""

    components: tuple[frozenset, ...]
    sinks: tuple[int, ...]
    ties: int


def build_graph(g: Game) -> PreferenceGraph:
    """The preference graph of g over its exact integer payoffs."""
    return PreferenceGraph(g)


def _chains(pg: PreferenceGraph, inside: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Arcs among the masked nodes that reach what their full arcs reach, and their tied pairs."""
    if pg.game.symmetric:
        # The arc matrix, whose diagonal loops are harmless but count as ties.
        A = (pg.game.int_view <= 0) & inside & inside[:, None]
        return *np.nonzero(A), (int(np.count_nonzero(A & A.T)) - int(inside.sum())) // 2
    keep = inside[pg._lines[0]]
    seq, line, run = (a[keep] for a in pg._lines)
    step, tie = line[1:] == line[:-1], run[1:] == run[:-1]
    k = np.bincount(run)  # a run of k equal payoffs in a line holds C(k, 2) tied pairs
    src = np.concatenate([seq[:-1][step], seq[1:][tie]])
    return src, np.concatenate([seq[1:][step], seq[:-1][tie]]), int((k * (k - 1)).sum()) // 2


def _strong_components(N: int, src: np.ndarray, dst: np.ndarray) -> tuple[list[int], int]:
    """Iterative Tarjan over nodes 0..N-1: each node's component label, in
    order of completion, and the number of components."""
    targets = dst[np.argsort(src, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(src, minlength=N)).tolist()
    adj = [targets[a:b] for a, b in zip([0] + ends, ends)]
    index = [-1] * N
    low = [0] * N
    onstack = [False] * N
    label = [0] * N
    stack: list[int] = []
    counter = found = 0

    for root in range(N):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack[root] = True
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if onstack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        onstack[w] = False
                        label[w] = found
                        if w == v:
                            break
                    found += 1
    return label, found


def _condense(pg: PreferenceGraph) -> SccPartition:
    src, dst, ties = _chains(pg, np.ones(len(pg.nodes), dtype=bool))
    label, found = _strong_components(len(pg.nodes), src, dst)
    # Nodes are in row-major order, so numbering labels by first appearance
    # numbers components by their smallest position.
    renumber: dict[int, int] = {}
    comp = [renumber.setdefault(c, len(renumber)) for c in label]
    members: list[list] = [[] for _ in range(found)]
    for v, c in zip(pg.nodes, comp):
        members[c].append(v)
    comp_of = np.array(comp, dtype=np.intp)
    # A component the chains leave is one the full arcs leave, and back.
    left = np.bincount(comp_of[src][comp_of[src] != comp_of[dst]], minlength=found)
    sinks = tuple(np.flatnonzero(left == 0).tolist())
    return SccPartition(tuple(frozenset(c) for c in members), sinks, ties)


def scc(pg: PreferenceGraph) -> SccPartition:
    """Strongly connected components with deterministic numbering, computed
    once per graph and cached on it."""
    return pg._partition


def _closures(W: np.ndarray, v: int, symmetric: bool) -> np.ndarray:
    """What node v reaches and what reaches v, as a (2, nodes) mask, under W:
    a symmetric game's arc matrix over its transpose, else the dense payoff
    ranks over their negation.  A row's mover reaches every rank up to the
    row's highest reached one, then a column's every rank from its lowest up."""
    X = np.zeros(W.shape[:2] if symmetric else W.shape, dtype=bool)
    X.reshape(2, -1)[:, v] = True
    while True:
        if symmetric:
            Y = X | (X[..., None] & W).any(1)
        else:
            Y = W <= np.where(X, W, -W[0].size).max(2)[..., None]
            Y = W >= np.where(Y, W, W[0].size).min(1)[:, None]
        if (X == Y).all():
            return X.reshape(2, -1)
        X = Y


def sink_component(pg: PreferenceGraph) -> frozenset:
    """The unique sink component's node set; raises if the sink is not unique."""
    return frozenset(pg.game.profiles(pg._sink))


def _connectivity(pg: PreferenceGraph, inside: np.ndarray) -> tuple[bool, int]:
    """Whether the masked nodes induce a strongly connected subgraph, and their tied pairs."""
    if not inside.any():
        raise ValueError("strong connectivity is undefined for the empty set")
    src, dst, ties = _chains(pg, inside)
    local = np.cumsum(inside) - 1  # index among the subset's nodes
    _, found = _strong_components(int(inside.sum()), local[src], local[dst])
    return found == 1, ties


def _quote(name: str) -> str:
    return '"' + name.translate({ord("\\"): "\\\\", ord('"'): '\\"'}) + '"'


def to_dot(pg: PreferenceGraph) -> str:
    """Deterministic DOT rendering; the sink component's nodes are shaded."""
    names = [_quote(pg.game.profile_name(v)) for v in pg.nodes]
    shade = " [style=filled, fillcolor=lightgrey]"
    lines = ["digraph preference_graph {"]
    lines += [f"  {name}{shade if s else ''};" for name, s in zip(names, pg._sink.tolist())]
    scale = pg.game.int_scale
    labels = {w: _quote(str(Fraction(w, scale))) for w in set(pg.arcs["weight"].tolist())}
    lines += [f"  {names[s]} -> {names[d]} [label={labels[w]}];" for s, d, w in pg.arcs.tolist()]
    return "\n".join(lines + ["}", ""])
