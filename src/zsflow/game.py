"""Core types for two-player zero-sum games.

A game is a single payoff matrix M for the row player; the column player
receives the negated payoffs.  A game may be flagged symmetric, in which case
M must be square and anti-symmetric (M = -M^T) and both players share one
strategy set.  Payoff entries are exact rationals so that every sign decision
downstream (arc directions, ties) is exact.

Profiles are strategy indices: a pair ``(i, j)`` in the non-symmetric case, a
single ``int`` in the symmetric case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Literal, Optional, Sequence, Union

import numpy as np

Profile = Union[int, "tuple[int, int]"]
Comparability = Optional[Literal[1, 2, "all"]]

# Simplex membership tolerance for mixed profiles built from user input.
SIMPLEX_ATOL = 1e-12

# Coordinates below this are treated as outside the support of a *computed*
# (integrated or solved) state; exact inputs use threshold zero.
SUPPORT_ATOL = 1e-10


class GameFormatError(ValueError):
    """A game file or matrix failed validation."""


class IncomparableProfilesError(ValueError):
    """A payoff difference was requested for an incomparable profile pair."""


def _as_fraction(value: object, where: str) -> Fraction:
    if isinstance(value, bool):
        raise GameFormatError(f"{where}: boolean is not a payoff")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise GameFormatError(f"{where}: cannot parse rational {value!r}") from exc
    if isinstance(value, float):
        raise GameFormatError(
            f"{where}: floats are not accepted; write rationals as 'a/b' strings"
        )
    raise GameFormatError(f"{where}: unsupported payoff type {type(value).__name__}")


@dataclass(frozen=True)
class Game:
    """An n x m zero-sum game with exact rational payoffs.

    Attributes:
        matrix: row-player payoffs, tuple of rows of Fractions.
        symmetric: whether both players share the row strategy set.
        row_labels: names for row strategies.
        col_labels: names for column strategies (same as rows if symmetric).
        float_view: read-only float copy of matrix, built once; not compared.
        int_view: read-only matrix times int_scale, the LCM of its denominators;
            int64 if all entries are below 2**62 in magnitude (so differences
            cannot overflow), else Python ints.  Built on first read.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    symmetric: bool
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    float_view: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.matrix or not self.matrix[0]:
            raise GameFormatError("matrix must be non-empty")
        width = len(self.matrix[0])
        for row in self.matrix:
            if len(row) != width:
                raise GameFormatError("matrix rows must all have the same length")
        if len(self.row_labels) != len(self.matrix):
            raise GameFormatError("row_labels length does not match matrix")
        if len(self.col_labels) != width:
            raise GameFormatError("col_labels length does not match matrix")
        if len(set(self.row_labels)) != len(self.row_labels):
            raise GameFormatError("row_labels must be distinct")
        if len(set(self.col_labels)) != len(self.col_labels):
            raise GameFormatError("col_labels must be distinct")
        if self.symmetric:
            if len(self.matrix) != width:
                raise GameFormatError("symmetric game requires a square matrix")
            for i in range(width):
                for j in range(width):
                    if self.matrix[i][j] != -self.matrix[j][i]:
                        raise GameFormatError(
                            "symmetric game requires an anti-symmetric matrix "
                            f"(M[{i}][{j}] != -M[{j}][{i}])"
                        )
            if self.row_labels != self.col_labels:
                raise GameFormatError("symmetric game has a single label list")
        view = np.array([[float(v) for v in row] for row in self.matrix])
        view.setflags(write=False)
        object.__setattr__(self, "float_view", view)

    @cached_property
    def int_scale(self) -> int:
        return math.lcm(*(v.denominator for row in self.matrix for v in row))

    @cached_property
    def int_view(self) -> np.ndarray:
        scale = self.int_scale
        ints = [[v.numerator * (scale // v.denominator) for v in row] for row in self.matrix]
        big = max(abs(v) for row in ints for v in row) >= 2**62
        exact = np.array(ints, dtype=object if big else np.int64)
        exact.setflags(write=False)
        return exact

    @property
    def n(self) -> int:
        return len(self.matrix)

    @property
    def m(self) -> int:
        return len(self.matrix[0])

    @property
    def mode(self) -> str:
        return "symmetric" if self.symmetric else "non-symmetric"

    def profiles(self) -> list[Profile]:
        """All pure profiles in row-major order."""
        if self.symmetric:
            return list(range(self.n))
        return [(i, j) for i in range(self.n) for j in range(self.m)]

    def profile_name(self, p: Profile) -> str:
        if self.symmetric:
            return self.row_labels[p]
        i, j = p
        return f"{self.row_labels[i]},{self.col_labels[j]}"

    def contains_profile(self, p: Profile) -> bool:
        if self.symmetric:
            return isinstance(p, int) and not isinstance(p, bool) and 0 <= p < self.n
        return (
            isinstance(p, tuple)
            and len(p) == 2
            and all(isinstance(c, int) for c in p)
            and 0 <= p[0] < self.n
            and 0 <= p[1] < self.m
        )


def make_game(
    entries: Sequence[Sequence[object]],
    mode: str = "non-symmetric",
    row_labels: Sequence[str] | None = None,
    col_labels: Sequence[str] | None = None,
) -> Game:
    """Build a Game from int / 'a/b' string / Fraction entries."""
    if mode not in ("symmetric", "non-symmetric"):
        raise GameFormatError(f"mode must be 'symmetric' or 'non-symmetric', got {mode!r}")
    try:
        rows = [list(r) for r in entries]
    except TypeError as exc:
        raise GameFormatError("matrix must be a list of rows") from exc
    matrix = tuple(
        tuple(_as_fraction(v, f"matrix[{i}][{j}]") for j, v in enumerate(row))
        for i, row in enumerate(rows)
    )
    n = len(matrix)
    m = len(matrix[0]) if matrix else 0
    symmetric = mode == "symmetric"
    if row_labels is None:
        row_labels = [f"s{i}" for i in range(n)]
    if col_labels is None:
        col_labels = list(row_labels) if symmetric else [f"t{j}" for j in range(m)]
    _check_labels(row_labels, "row_labels")
    _check_labels(col_labels, "col_labels")
    return Game(matrix, symmetric, tuple(row_labels), tuple(col_labels))


def _check_labels(labels: Sequence[str], where: str) -> None:
    for lab in labels:
        if not isinstance(lab, str) or not lab:
            raise GameFormatError(f"{where}: labels must be non-empty strings")


def parse_game(text: str) -> Game:
    """Parse the JSON game format.

    Schema: ``{"mode": "symmetric"|"non-symmetric", "matrix": [[...]],
    "row_labels": [...], "col_labels": [...]}`` where payoffs are integers or
    rationals written as strings like ``"3/2"``.  Labels are optional and
    default to ``s0..`` / ``t0..``.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise GameFormatError("game file must contain a JSON object")
    unknown = set(data) - {"mode", "matrix", "row_labels", "col_labels"}
    if unknown:
        raise GameFormatError(f"unknown keys in game file: {sorted(unknown)}")
    if "mode" not in data:
        raise GameFormatError("missing 'mode'")
    if "matrix" not in data or not isinstance(data["matrix"], list):
        raise GameFormatError("missing or malformed 'matrix'")
    mode = data["mode"]
    if mode not in ("symmetric", "non-symmetric"):
        raise GameFormatError(f"mode must be 'symmetric' or 'non-symmetric', got {mode!r}")
    row_labels = data.get("row_labels")
    col_labels = data.get("col_labels")
    if mode == "symmetric" and row_labels is not None and col_labels is not None:
        if list(row_labels) != list(col_labels):
            raise GameFormatError("symmetric game has a single label list")
    return make_game(data["matrix"], mode, row_labels, col_labels)


def load_game(path: str) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_game(fh.read())


def _fraction_json(v: Fraction) -> object:
    return int(v) if v.denominator == 1 else str(v)


def game_to_dict(g: Game) -> dict:
    return {
        "mode": g.mode,
        "matrix": [[_fraction_json(v) for v in row] for row in g.matrix],
        "row_labels": list(g.row_labels),
        "col_labels": list(g.col_labels),
    }


def game_to_json(g: Game) -> str:
    return json.dumps(game_to_dict(g), indent=2) + "\n"


def comparable(g: Game, a: Profile, b: Profile) -> Comparability:
    """Which single player could move between profiles a and b.

    Returns 1 or 2 for the deviating player, "all" for any distinct pair of a
    symmetric game, and None for equal or incomparable profiles.
    """
    for p in (a, b):
        if not g.contains_profile(p):
            raise ValueError(f"{p!r} is not a profile of this game")
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
    if g.symmetric:
        return g.matrix[p][q]
    if who == 1:
        return g.matrix[p[0]][p[1]] - g.matrix[q[0]][q[1]]
    return g.matrix[q[0]][q[1]] - g.matrix[p[0]][p[1]]


@dataclass(frozen=True, eq=False)
class MixedProfile:
    """A mixed profile: one simplex vector per player (one for symmetric games).

    Entries are non-negative and each vector sums to 1 within 1e-12.  Vectors
    are stored read-only; exact zeros denote coordinates outside the support.
    """

    vectors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.vectors) not in (1, 2):
            raise ValueError("a mixed profile has one or two strategy vectors")
        cleaned = []
        for v in self.vectors:
            arr = np.array(v, dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError("strategy vectors must be non-empty 1-d arrays")
            if not np.all(np.isfinite(arr)):
                raise ValueError("strategy vectors must be finite")
            if np.any(arr < 0):
                raise ValueError("strategy vectors must be non-negative")
            if abs(arr.sum() - 1.0) > SIMPLEX_ATOL:
                raise ValueError(
                    f"strategy vector sums to {arr.sum()!r}, not 1 within {SIMPLEX_ATOL}"
                )
            arr.setflags(write=False)
            cleaned.append(arr)
        object.__setattr__(self, "vectors", tuple(cleaned))

    @property
    def symmetric(self) -> bool:
        return len(self.vectors) == 1

    def support(self, atol: float = 0.0) -> tuple[tuple[int, ...], ...]:
        """Per-player indices with mass above atol (strictly positive if 0)."""
        return tuple(tuple(int(i) for i in np.nonzero(v > atol)[0]) for v in self.vectors)

    def profile_support(self, atol: float = 0.0) -> frozenset[Profile]:
        """Product of the per-player supports as a set of profiles."""
        sup = self.support(atol)
        if self.symmetric:
            return frozenset(sup[0])
        return frozenset((i, j) for i in sup[0] for j in sup[1])


def mixed(*vectors) -> MixedProfile:
    """Convenience constructor: mixed(x) or mixed(x1, x2)."""
    return MixedProfile(tuple(np.asarray(v, dtype=float) for v in vectors))


def uniform_profile(g: Game) -> MixedProfile:
    if g.symmetric:
        return mixed(np.full(g.n, 1.0 / g.n))
    return mixed(np.full(g.n, 1.0 / g.n), np.full(g.m, 1.0 / g.m))


def pure_profile(g: Game, p: Profile) -> MixedProfile:
    if not g.contains_profile(p):
        raise ValueError(f"{p!r} is not a profile of this game")
    if g.symmetric:
        x = np.zeros(g.n)
        x[p] = 1.0
        return mixed(x)
    x1 = np.zeros(g.n)
    x2 = np.zeros(g.m)
    x1[p[0]] = 1.0
    x2[p[1]] = 1.0
    return mixed(x1, x2)


def _check_shape(g: Game, z: MixedProfile) -> None:
    if g.symmetric:
        if not z.symmetric or z.vectors[0].size != g.n:
            raise ValueError("mixed profile does not match the symmetric game")
    else:
        if z.symmetric or z.vectors[0].size != g.n or z.vectors[1].size != g.m:
            raise ValueError("mixed profile does not match the game dimensions")


def float_matrix(g: Game) -> np.ndarray:
    """Float copy of the payoff matrix (read-only, built with the game)."""
    return g.float_view


def expected_payoff(g: Game, z: MixedProfile) -> float:
    """Row player's bilinear payoff at z (x M x for symmetric games)."""
    _check_shape(g, z)
    M = float_matrix(g)
    if g.symmetric:
        x = z.vectors[0]
        return float(x @ M @ x)
    x1, x2 = z.vectors
    return float(x1 @ M @ x2)


def product_mass(z: MixedProfile, p: Profile) -> float:
    """Mass the product distribution of z places on pure profile p."""
    if z.symmetric:
        return float(z.vectors[0][p])
    return float(z.vectors[0][p[0]] * z.vectors[1][p[1]])


def profile_masses(z: MixedProfile) -> np.ndarray:
    """Product masses over all profiles, row-major (the vector x with x_p = x1_{p1} x2_{p2})."""
    if z.symmetric:
        return np.array(z.vectors[0], dtype=float)
    return np.outer(z.vectors[0], z.vectors[1]).ravel()
