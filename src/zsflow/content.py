"""Content of a node set: mixed profiles whose product support lies inside it.

A content is reported as its maximal product subgames.  The mass a state puts
on the sink, and so its distance to the attractor (the sink's content), is
recorded along every trajectory that integrate returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .game import Game, Profile, report_sets


def maximal_subgames(H: Iterable[Profile], g: Game):
    """Maximal product sets T1 x T2 contained in H (the strategy set itself if symmetric).

    Non-symmetric games return a sorted list of (rows, cols) tuples; symmetric
    games return the single strategy subset.  The column sets of the maximal
    product sets are the non-empty intersections of row neighbourhoods in H,
    closed one row at a time as bitmasks, so the cost grows with the output,
    not with 2^rows.
    """
    inside = g.node_mask(H)
    if g.symmetric:
        return [tuple(np.flatnonzero(inside).tolist())]
    # Row i's neighbourhood in H as a bitmask over the columns.
    bits = np.packbits(inside.reshape(g.n, g.m), axis=1, bitorder="little")
    neigh = [int.from_bytes(row.tobytes(), "little") for row in bits]
    closed: set[int] = set()
    for mask in neigh:
        if mask:
            closed |= {mask & c for c in closed} | {mask}
    closed.discard(0)
    return sorted(
        (
            tuple(i for i in range(g.n) if neigh[i] & c == c),
            tuple(j for j in range(g.m) if c >> j & 1),
        )
        for c in closed
    )


@dataclass(frozen=True)
class Content:
    """A node set together with its decomposition into maximal subgames."""

    profiles: frozenset
    subgames: tuple


def content_of(H: Iterable[Profile], g: Game) -> Content:
    H = tuple(H)  # validated as given: a set would merge True into 1
    return Content(frozenset(H), tuple(maximal_subgames(H, g)))


def content_to_dict(c: Content, g: Game) -> dict:
    """JSON-friendly report with strategy labels."""
    # A symmetric game's maximal subgame is one strategy set, its only block.
    subgames = [(sg,) for sg in c.subgames] if g.symmetric else c.subgames
    return {
        "profiles": sorted(g.profile_name(p) for p in c.profiles),
        "maximal_subgames": [report_sets(g, sg) for sg in subgames],
    }
