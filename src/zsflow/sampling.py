"""Seeded random games and mixed profiles for fuzz suites and tests."""

from __future__ import annotations

import numpy as np

from .game import Game, MixedProfile, mixed


def random_game(
    rng: np.random.Generator,
    symmetric: bool,
    n: int,
    m: int | None = None,
    low: int = -9,
    high: int = 9,
) -> Game:
    """A game with i.i.d. uniform integer payoffs in [low, high].

    Symmetric games are sampled as K - K^T for a random integer K, which is
    anti-symmetric by construction.
    """
    ints = rng.integers(low, high + 1, size=(n, n if symmetric or m is None else m))
    if symmetric:
        ints = ints - ints.T
    rows = [f"s{i}" for i in range(n)]  # make_game's default labels
    cols = rows if symmetric else [f"t{j}" for j in range(ints.shape[1])]
    return Game(ints, 1, symmetric, rows, cols)


def random_interior_stack(rng: np.random.Generator, g: Game, count: int) -> np.ndarray:
    """count interior points, one Dirichlet(1) draw per player block each, as
    a (count, n+m) stack (n for a symmetric game): one standard_gamma(1) draw,
    each block scaled by the reciprocal of its left-to-right sum, which is bit
    for bit numpy's dirichlet of ones, point by point (tests/face_sampling.py)."""
    Z = rng.standard_gamma(1.0, (count, sum(map(len, g.blocks))))
    for b in np.split(Z, np.cumsum([len(b) for b in g.blocks])[:-1], axis=1):
        b *= 1.0 / b.cumsum(axis=1)[:, -1:]  # cumsum keeps dirichlet's summation order
    return Z


def random_mixed_profile(rng: np.random.Generator, g: Game) -> MixedProfile:
    """One interior point: the one-point case of random_interior_stack."""
    z = random_interior_stack(rng, g, 1)[0]
    return mixed(*np.split(z, np.cumsum([len(b) for b in g.blocks])[:-1]))


def game_corpus(rng: np.random.Generator, count: int) -> list[Game]:
    """Mixed fuzz corpus: alternating non-symmetric 1-5 x 1-5 and symmetric 2-7 games."""
    games = []
    for k in range(count):
        if k % 2 == 0:
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            games.append(random_game(rng, False, n, m))
        else:
            n = int(rng.integers(2, 8))
            games.append(random_game(rng, True, n))
    return games
