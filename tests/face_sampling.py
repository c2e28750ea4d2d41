"""Random mixed profiles on the faces of the simplex, for tests that need
starts outside the interior, and the per-draw Dirichlet reference for
zsflow.sampling.random_interior_stack."""

import numpy as np

from zsflow import mixed


def _face_point(rng: np.random.Generator, size: int) -> np.ndarray:
    """Dirichlet(1) point on a random face: a uniform support size, then a
    uniform support of that size (the whole simplex when size is 1)."""
    if size == 1:
        return rng.dirichlet(np.ones(size))
    k = int(rng.integers(1, size + 1))
    support = rng.choice(size, size=k, replace=False)
    x = np.zeros(size)
    x[np.sort(support)] = rng.dirichlet(np.ones(k))
    return x


def random_face_profile(rng: np.random.Generator, g):
    """One face point per player block of g."""
    return mixed(*(_face_point(rng, len(b)) for b in g.blocks))


def dirichlet_stack(rng: np.random.Generator, g, count: int) -> np.ndarray:
    """count interior points as a (count, n+m) stack, one rng.dirichlet(ones)
    call per player block of each point: the draw that
    random_interior_stack must equal bit for bit, generator state included."""
    ones = [np.ones(len(b)) for b in g.blocks]
    return np.array(
        [np.concatenate([rng.dirichlet(v) for v in ones]) for _ in range(count)]
    ).reshape(count, sum(v.size for v in ones))
