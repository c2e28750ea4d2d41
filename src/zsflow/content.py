"""Content of a node set: mixed profiles whose product support lies inside it.

A content is reported as its maximal product subgames.  The mass a state puts
on the node set, and so its distance to the content, is recorded along
trajectories: integrate with H carries both series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .game import Game, Profile


def maximal_subgames(H: Iterable[Profile], g: Game):
    """Maximal product sets T1 x T2 contained in H (the strategy set itself if symmetric).

    Non-symmetric games return a sorted list of (rows, cols) tuples; symmetric
    games return the single strategy subset.  The column sets of the maximal
    product sets are the non-empty intersections of row neighbourhoods in H,
    closed one row at a time as bitmasks, so the cost grows with the output,
    not with 2^rows.
    """
    Hset = frozenset(H)
    for p in Hset:
        if not g.contains_profile(p):
            raise ValueError(f"{p!r} is not a profile of this game")
    if g.symmetric:
        return [tuple(sorted(Hset))]
    neigh = [0] * g.n
    for i, j in Hset:
        neigh[i] |= 1 << j
    closed: set[int] = set()
    for mask in neigh:
        if mask:
            closed |= {mask & c for c in closed} | {mask}
    closed.discard(0)
    out = [
        (
            tuple(i for i in range(g.n) if neigh[i] & c == c),
            tuple(j for j in range(g.m) if c >> j & 1),
        )
        for c in closed
    ]
    out.sort()
    return out


@dataclass(frozen=True)
class Content:
    """A node set together with its decomposition into maximal subgames."""

    profiles: frozenset
    subgames: tuple


def content_of(H: Iterable[Profile], g: Game) -> Content:
    Hset = frozenset(H)
    return Content(Hset, tuple(maximal_subgames(Hset, g)))


def content_to_dict(c: Content, g: Game) -> dict:
    """JSON-friendly report with strategy labels."""
    if g.symmetric:
        subgames = [{"strategies": [g.row_labels[s] for s in sg]} for sg in c.subgames]
        profiles = sorted(g.row_labels[p] for p in c.profiles)
    else:
        subgames = [
            {
                "rows": [g.row_labels[i] for i in rows],
                "cols": [g.col_labels[j] for j in cols],
            }
            for rows, cols in c.subgames
        ]
        profiles = sorted(g.profile_name(p) for p in sorted(c.profiles))
    return {"profiles": profiles, "maximal_subgames": subgames}
