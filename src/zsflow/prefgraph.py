"""Preference graph of a zero-sum game and its condensation.

Nodes are pure profiles.  For every comparable pair {p, q} there is an arc
p -> q exactly when weight(p, q) <= 0, i.e. the arc points at the profile the
deviating player weakly prefers; a tie yields the antiparallel pair of
zero-weight arcs.  Arc weights are |weight(p, q)|, held as exact integers
over the game's common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .game import Game, Profile


class Arc(NamedTuple):
    src: Profile
    dst: Profile
    weight: Fraction


class SinkUniquenessError(RuntimeError):
    """The condensation has no unique sink component."""

    def __init__(self, message: str, components: list[frozenset]) -> None:
        super().__init__(message)
        self.components = components


@dataclass(frozen=True, eq=False)
class PreferenceGraph:
    """A preference graph held as index arrays over its nodes.

    Arc k runs from nodes[src[k]] to nodes[dst[k]] with weight
    weights[k] / scale: integer weights over the game's common denominator,
    so every comparison stays exact.  Graphs are equal when their nodes,
    names, mode and arcs are.
    """

    nodes: tuple[Profile, ...]
    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray
    scale: int
    symmetric: bool
    node_names: tuple[str, ...]

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """The arcs as Arc tuples with Fraction weights, built on first use."""
        nodes, scale = self.nodes, self.scale
        return tuple(
            Arc(nodes[s], nodes[d], Fraction(w, scale))
            for s, d, w in zip(self.src.tolist(), self.dst.tolist(), self.weights.tolist())
        )

    @cached_property
    def _partition(self) -> SccPartition:
        return _condense(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreferenceGraph):
            return NotImplemented
        mine = (self.nodes, self.node_names, self.symmetric, self.arcs)
        return mine == (other.nodes, other.node_names, other.symmetric, other.arcs)


@dataclass(frozen=True)
class SccPartition:
    """Condensation of a preference graph.

    Components are numbered by the smallest row-major position of any
    contained node, so the numbering is deterministic.
    """

    components: tuple[frozenset, ...]
    edges: frozenset  # (src component, dst component), src != dst
    sinks: tuple[int, ...] = field(default=())


def build_graph(g: Game) -> PreferenceGraph:
    """Construct the preference graph of g from its exact integer payoffs."""
    M = g.int_view
    n, m = M.shape
    if g.symmetric:
        p, q = np.nonzero(np.arange(n)[:, None] < np.arange(n))
        w = M[p, q]
    else:
        # Slots of profile (i, j): (i, k) for every column k, where the column
        # player moves, then (k, j) for every row k, where the row player
        # moves.  The valid slots in row-major order are the comparable pairs
        # in row-major order, same-row partners first.
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
    src = np.where(back, q[pair], p[pair])
    dst = np.where(back, p[pair], q[pair])
    nodes = tuple(g.profiles())
    names = tuple(g.profile_name(v) for v in nodes)
    return PreferenceGraph(nodes, src, dst, np.abs(w)[pair], g.int_scale, g.symmetric, names)


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
    label, found = _strong_components(len(pg.nodes), pg.src, pg.dst)
    # Nodes are in row-major order, so numbering labels by first appearance
    # numbers components by their smallest position.
    renumber: dict[int, int] = {}
    comp = [renumber.setdefault(c, len(renumber)) for c in label]
    members: list[list] = [[] for _ in range(found)]
    for v, c in zip(pg.nodes, comp):
        members[c].append(v)
    comp_of = np.array(comp)
    cs, cd = comp_of[pg.src], comp_of[pg.dst]
    cross = cs != cd
    codes = cs[cross] * found + cd[cross]
    codes = codes[np.argsort(codes, kind="stable")]
    codes = codes[np.diff(codes, prepend=-1) != 0]
    return SccPartition(
        tuple(frozenset(c) for c in members),
        frozenset(zip((codes // found).tolist(), (codes % found).tolist())),
        tuple(np.flatnonzero(np.bincount(cs[cross], minlength=found) == 0).tolist()),
    )


def scc(pg: PreferenceGraph) -> SccPartition:
    """Strongly connected components with deterministic numbering, computed
    once per graph and cached on it."""
    return pg._partition


def sink_component(pg: PreferenceGraph) -> frozenset:
    """The unique sink component's node set; raises if the sink is not unique."""
    part = scc(pg)
    if len(part.sinks) != 1:
        offenders = [part.components[k] for k in part.sinks]
        raise SinkUniquenessError(
            f"expected exactly one sink component, found {len(part.sinks)}",
            offenders,
        )
    return part.components[part.sinks[0]]


def node_mask(pg: PreferenceGraph, subset: Iterable[Profile]) -> np.ndarray:
    """Boolean mask over pg.nodes of the profiles in subset; raises for foreign ones."""
    position = {v: k for k, v in enumerate(pg.nodes)}
    inside = np.zeros(len(pg.nodes), dtype=bool)
    for v in subset:
        if v not in position:
            raise ValueError(f"{v!r} is not a node of the graph")
        inside[position[v]] = True
    return inside


def is_strongly_connected(pg: PreferenceGraph, subset: Iterable[Profile]) -> bool:
    """Whether the subgraph induced by subset is strongly connected."""
    inside = node_mask(pg, subset)
    if not inside.any():
        raise ValueError("strong connectivity is undefined for the empty set")
    keep = inside[pg.src] & inside[pg.dst]
    local = np.cumsum(inside) - 1  # index among the subset's nodes
    _, found = _strong_components(int(inside.sum()), local[pg.src[keep]], local[pg.dst[keep]])
    return found == 1


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(pg: PreferenceGraph, highlight: Iterable[Profile] = ()) -> str:
    """Deterministic DOT rendering; highlighted nodes are shaded."""
    marked = frozenset(highlight)
    names = dict(zip(pg.nodes, pg.node_names))
    lines = ["digraph preference_graph {"]
    for v in pg.nodes:
        attr = " [style=filled, fillcolor=lightgrey]" if v in marked else ""
        lines.append(f"  {_quote(names[v])}{attr};")
    for a in pg.arcs:
        lines.append(
            f"  {_quote(names[a.src])} -> {_quote(names[a.dst])} [label={_quote(str(a.weight))}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
