"""Core types for two-player zero-sum games.

A game is a single payoff matrix M for the row player; the column player
receives the negated payoffs.  A game may be flagged symmetric, in which case
M must be square and anti-symmetric (M = -M^T) and both players share one
strategy set.  Payoffs are exact: integers over one common positive scale,
so that every sign decision downstream (arc directions, ties) is an integer
comparison.  Fractions appear only at the file boundary.

Profiles are strategy indices: a pair ``(i, j)`` in the non-symmetric case, a
single ``int`` in the symmetric case.  Game owns the row-major profile order,
the one validating profile-set-to-mask map (node_mask) and its inverse
(profiles), and the player blocks.
The modes differ only in the maths: the preference graph, the flow operator,
the sink mass and its rate, and the value and essential set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence, Union

import numpy as np

Profile = Union[int, "tuple[int, int]"]

# Simplex membership tolerance for mixed profiles built from user input.
SIMPLEX_ATOL = 1e-12

# Coordinates below this are treated as outside the support of a *computed*
# (integrated or solved) state; exact inputs use threshold zero.
SUPPORT_ATOL = 1e-10


class GameFormatError(ValueError):
    """A game file or matrix failed validation."""


def _as_fraction(value: object, where: str) -> Fraction:
    if isinstance(value, bool):
        raise GameFormatError(f"{where}: boolean is not a payoff")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
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


def _ratio(value: object, k: int, m: int) -> tuple[int, int]:
    """Numerator and positive denominator of entry k of an m-column matrix; only
    what is not a plain 'a/b' or '-a/b' string goes through Fraction."""
    num, slash, den = value.partition("/") if type(value) is str else ("", "", "")
    if slash and num.removeprefix("-").isdecimal() and den.isdecimal():
        try:
            a, b = int(num), int(den)
        except ValueError:  # past int's digit limit, which Fraction rejects too
            b = 0
        if b:
            return a, b
    f = _as_fraction(value, f"matrix[{k // m}][{k % m}]")
    return f.numerator, f.denominator


@dataclass(frozen=True, eq=False)
class Game:
    """An n x m zero-sum game with exact rational payoffs.

    Attributes:
        int_view: read-only payoffs times int_scale, a 2-d integer array
            (int64 or object dtype on input); stored as int64 if every entry
            is below 2**62 in magnitude (so differences cannot overflow),
            else as Python ints (object dtype).
        int_scale: positive common denominator; (int_view, int_scale) is
            reduced by their gcd, so equal games have equal fields.
        symmetric: whether both players share the row strategy set.
        row_labels: names for row strategies (a list or tuple on input).
        col_labels: names for column strategies (same as rows if symmetric).
        float_view: read-only float copy of the payoffs, each entry rounded
            once from its exact value; not compared.
    """

    int_view: np.ndarray
    int_scale: int
    symmetric: bool
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    float_view: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for where in ("row_labels", "col_labels"):
            object.__setattr__(self, where, _check_labels(getattr(self, where), where))
        I, scale = self.int_view, self.int_scale
        if I.ndim != 2 or not I.size:
            raise GameFormatError("matrix must be non-empty")
        n, m = I.shape
        if len(self.row_labels) != n:
            raise GameFormatError("row_labels length does not match matrix")
        if len(self.col_labels) != m:
            raise GameFormatError("col_labels length does not match matrix")
        if len(set(self.row_labels)) != n:
            raise GameFormatError("row_labels must be distinct")
        if len(set(self.col_labels)) != m:
            raise GameFormatError("col_labels must be distinct")
        if scale < 1:
            raise GameFormatError("int_scale must be a positive integer")
        common = math.gcd(scale, int(np.gcd.reduce(I, axis=None))) if scale > 1 else 1
        if common > 1:
            I, scale = I // common, scale // common
        peak = max(-int(I.min()), int(I.max()))
        I = np.array(I, dtype=object if peak >= 2**62 else np.int64)
        if self.symmetric:
            if n != m:
                raise GameFormatError("symmetric game requires a square matrix")
            if not np.array_equal(I, -I.T):
                i, j = np.argwhere(I != -I.T)[0]
                raise GameFormatError(
                    "symmetric game requires an anti-symmetric matrix "
                    f"(M[{i}][{j}] != -M[{j}][{i}])"
                )
            if self.row_labels != self.col_labels:
                raise GameFormatError("symmetric game has a single label list")
        # One rounding per entry, as float(Fraction(v, scale)): numpy's I / scale
        # rounds twice once I or scale is past 2**53.
        if peak < 2**53 and scale < 2**53:
            view = I / scale
        else:
            view = np.array([[v / scale for v in row] for row in I.tolist()], dtype=float)
        I.setflags(write=False)
        view.setflags(write=False)
        object.__setattr__(self, "int_view", I)
        object.__setattr__(self, "int_scale", scale)
        object.__setattr__(self, "float_view", view)

    def _key(self) -> tuple:
        # The stored form is canonical, so the dtype follows from the values.
        I = self.int_view
        entries = I.tobytes() if I.dtype == np.int64 else tuple(I.ravel().tolist())
        return (self.symmetric, self.row_labels, self.col_labels, self.int_scale, entries)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, Game) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def n(self) -> int:
        return self.int_view.shape[0]

    @property
    def m(self) -> int:
        return self.int_view.shape[1]

    @property
    def mode(self) -> str:
        return "symmetric" if self.symmetric else "non-symmetric"

    def profiles(self, mask: np.ndarray | None = None) -> list[Profile]:
        """All pure profiles in row-major order, or those at the True entries of
        a boolean mask over all of them: the inverse of node_mask."""
        n, m = self.n, self.m
        if mask is not None and np.shape(mask) != (n if self.symmetric else n * m,):
            raise ValueError("mask does not match the profiles of this game")
        if mask is None or mask.all():  # product's pairs share one int object per index
            return list(range(n)) if self.symmetric else list(product(range(n), range(m)))
        index = np.flatnonzero(mask)
        if self.symmetric:
            return index.tolist()
        return list(zip((index // m).tolist(), (index % m).tolist()))

    def profile_name(self, p: Profile) -> str:
        if self.symmetric:
            return self.row_labels[p]
        i, j = p
        return f"{self.row_labels[i]},{self.col_labels[j]}"

    @property
    def blocks(self) -> tuple[tuple[str, ...], ...]:
        """Strategy labels of each player block: one block if symmetric, else two."""
        return (self.row_labels,) if self.symmetric else (self.row_labels, self.col_labels)

    def node_mask(self, subset: Iterable[Profile]) -> np.ndarray:
        """Boolean mask over profiles() of the profiles in subset, in one pass
        over subset.  Raises ValueError for anything else: a profile is an index
        (of type int, so not a bool, in range) if symmetric, else a pair of them."""
        n, m = self.n, self.m
        index = []
        for p in subset:
            if self.symmetric:
                k = p if type(p) is int and 0 <= p < n else -1
            else:
                i, j = p if isinstance(p, tuple) and len(p) == 2 else (-1, -1)
                ok = type(i) is int and type(j) is int and 0 <= i < n and 0 <= j < m
                k = i * m + j if ok else -1
            if k < 0:
                raise ValueError(f"{p!r} is not a profile of this game")
            index.append(k)
        inside = np.zeros(n if self.symmetric else n * m, dtype=bool)
        inside[index] = True
        return inside


def make_game(
    entries: Sequence[Sequence[object]],
    mode: str = "non-symmetric",
    row_labels: Sequence[str] | None = None,
    col_labels: Sequence[str] | None = None,
) -> Game:
    """Build a Game from int / 'a/b' string / Fraction entries, parsed once
    into integers over the LCM of their denominators."""
    if mode not in ("symmetric", "non-symmetric"):
        raise GameFormatError(f"mode must be 'symmetric' or 'non-symmetric', got {mode!r}")
    try:
        rows = [list(r) for r in entries]
    except TypeError as exc:
        raise GameFormatError("matrix must be a list of rows") from exc
    n = len(rows)
    m = len(rows[0]) if rows else 0
    if any(len(row) != m for row in rows):
        raise GameFormatError("matrix rows must all have the same length")
    flat = [v for row in rows for v in row]
    scale = 1
    if not set(map(type, flat)) <= {int}:
        nums, dens = zip(*(_ratio(v, k, m) for k, v in enumerate(flat)))
        scale = math.lcm(*dens)  # Game reduces the unreduced plain fractions
        flat = [a * (scale // b) for a, b in zip(nums, dens)]
    try:
        ints = np.array(flat, dtype=np.int64)
    except OverflowError:
        ints = np.array(flat, dtype=object)
    symmetric = mode == "symmetric"
    if row_labels is None:
        row_labels = [f"s{i}" for i in range(n)]
    if col_labels is None:
        col_labels = row_labels if symmetric else [f"t{j}" for j in range(m)]
    return Game(ints.reshape(n, m), scale, symmetric, row_labels, col_labels)


def _check_labels(labels: Sequence[str], where: str) -> tuple[str, ...]:
    if not isinstance(labels, (list, tuple)):
        raise GameFormatError(f"{where} must be a list of strings")
    for lab in labels:
        if not isinstance(lab, str) or not lab:
            raise GameFormatError(f"{where}: labels must be non-empty strings")
    return tuple(labels)


def parse_game(text: str) -> Game:
    """Parse the JSON game format.

    Schema: ``{"mode": "symmetric"|"non-symmetric", "matrix": [[...]],
    "row_labels": [...], "col_labels": [...]}`` where payoffs are integers or
    rationals written as strings like ``"3/2"``.  Labels are optional and
    default to ``s0..`` / ``t0..``.
    """
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
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
    return make_game(data["matrix"], data["mode"], data.get("row_labels"), data.get("col_labels"))


def load_game(path: str) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_game(fh.read())


def game_to_dict(g: Game) -> dict:
    """The JSON game format: integer payoffs as ints, the rest as 'a/b' strings."""
    s, rows = g.int_scale, g.int_view.tolist()
    return {
        "mode": g.mode,
        "matrix": [[v // s if v % s == 0 else str(Fraction(v, s)) for v in row] for row in rows],
        "row_labels": list(g.row_labels),
        "col_labels": list(g.col_labels),
    }


def game_to_json(g: Game) -> str:
    return json.dumps(game_to_dict(g), indent=2) + "\n"


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


def mixed(*vectors) -> MixedProfile:
    """Convenience constructor: mixed(x) or mixed(x1, x2)."""
    return MixedProfile(tuple(np.asarray(v, dtype=float) for v in vectors))


def uniform_profile(g: Game) -> MixedProfile:
    return mixed(*(np.full(len(b), 1.0 / len(b)) for b in g.blocks))


def report_sets(g: Game, sets: Sequence[Sequence[int]]) -> dict:
    """Per-block strategy index sets as labelled report entries, keyed
    'strategies' for a symmetric game and 'rows', 'cols' otherwise."""
    keys = ("strategies",) if g.symmetric else ("rows", "cols")
    return {key: [block[s] for s in idx] for key, block, idx in zip(keys, g.blocks, sets)}


def _check_shape(g: Game, z: MixedProfile) -> None:
    if tuple(v.size for v in z.vectors) != tuple(map(len, g.blocks)):
        raise ValueError(f"mixed profile does not match the {g.mode} game")
