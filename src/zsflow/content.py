"""Content of a node set: mixed profiles whose product support lies inside it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .game import Game, MixedProfile, Profile, product_mass


def mass_on(z: MixedProfile, H: Iterable[Profile]) -> float:
    """Total product mass z places on the profiles in H."""
    return float(sum(product_mass(z, p) for p in frozenset(H)))


def in_content(z: MixedProfile, H: Iterable[Profile], atol: float = 0.0) -> bool:
    """Whether supp(z) is contained in H as a product set (mass_on == 1)."""
    return z.profile_support(atol) <= frozenset(H)


def distance_to_content(z: MixedProfile, H: Iterable[Profile]) -> float:
    """1 - mass_on(z, H); zero exactly on the content."""
    return 1.0 - mass_on(z, H)


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

    def contains(self, z: MixedProfile, atol: float = 0.0) -> bool:
        return in_content(z, self.profiles, atol)


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
