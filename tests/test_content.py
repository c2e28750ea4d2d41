"""Mass on a content, membership in it, and the maximal-subgame decomposition."""

import itertools

import numpy as np
import pytest

from zsflow import (
    IntegratorConfig,
    build_graph,
    content_of,
    integrate,
    maximal_subgames,
    mixed,
    random_game,
    sink_component,
    uniform_profile,
)

from dynamics_oracle import set_shares
from face_sampling import random_face_profile
from graph_oracle import oracle_corpus, oracle_maximal_subgames


def in_product(z, H) -> bool:
    """Whether the product of the per-player supports of z lies inside H."""
    return set(itertools.product(*(np.flatnonzero(v).tolist() for v in z.vectors))) <= set(H)


def brute_force_bicliques(H, n, m):
    """All maximal product sets inside H by enumerating every (T1, T2) pair."""
    from itertools import combinations

    cands = []
    rows = range(n)
    cols = range(m)
    for r in range(1, n + 1):
        for T1 in combinations(rows, r):
            for c in range(1, m + 1):
                for T2 in combinations(cols, c):
                    if all((i, j) in H for i in T1 for j in T2):
                        cands.append((frozenset(T1), frozenset(T2)))
    maximal = [
        (a, b)
        for (a, b) in cands
        if not any((a < a2 and b <= b2) or (a <= a2 and b < b2) for (a2, b2) in cands)
    ]
    return {(tuple(sorted(a)), tuple(sorted(b))) for (a, b) in maximal}


class TestMass:
    def test_full_sink_mass_is_one(self, mp):
        H = sink_component(build_graph(mp))
        assert set_shares(mp, uniform_profile(mp), H)[0] == pytest.approx(1.0, abs=1e-12)

    def test_pure_point_outside(self, diamond):
        H = sink_component(build_graph(diamond))
        assert set_shares(diamond, mixed([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]), H)[0] == 0.0

    def test_partial_mass(self, mp):
        z = mixed([0.5, 0.5], [1.0, 0.0])
        assert set_shares(mp, z, {(0, 0)})[0] == pytest.approx(0.5)

    def test_distance_complements_mass(self, mp):
        z = mixed([0.5, 0.5], [0.5, 0.5])
        assert set_shares(mp, z, {(0, 0)})[1] == pytest.approx(0.75)

    def test_symmetric_mass_is_coordinate_sum(self, rps):
        z = mixed([0.2, 0.5, 0.3])
        assert set_shares(rps, z, {0, 2})[0] == pytest.approx(0.5)


class TestMembership:
    def test_subgame_point_inside(self, diamond):
        H = sink_component(build_graph(diamond))
        z = mixed([0.0, 0.5, 0.5], [0.0, 0.5, 0.5])
        assert in_product(z, H)
        assert set_shares(diamond, z, H)[0] == pytest.approx(1.0, abs=1e-12)

    def test_interior_point_outside_proper_set(self, diamond):
        H = sink_component(build_graph(diamond))
        assert set_shares(diamond, uniform_profile(diamond), H)[1] > 0.0

    def test_pure_point_inside(self, diamond):
        H = sink_component(build_graph(diamond))
        assert set_shares(diamond, mixed([0.0, 1.0, 0.0], [0.0, 0.0, 1.0]), H)[1] == 0.0

    def test_membership_iff_unit_mass(self):
        # Exact-zero starts: the product support lies in H exactly when the
        # mass series starts at 1.
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            g = random_game(rng, False, n, m)
            profiles = g.profiles()
            k = int(rng.integers(1, len(profiles) + 1))
            chosen = rng.choice(len(profiles), size=k, replace=False)
            H = {profiles[i] for i in chosen}
            z = random_face_profile(rng, g)
            assert in_product(z, H) == (abs(set_shares(g, z, H)[0] - 1.0) <= 1e-12)


class TestMaximalSubgames:
    def test_diamond_decomposition(self, diamond):
        H = sink_component(build_graph(diamond))
        subs = maximal_subgames(H, diamond)
        assert subs == [((0, 1, 2), (1, 2)), ((1, 2), (0, 1, 2))]

    def test_full_space_single_subgame(self, mp):
        H = sink_component(build_graph(mp))
        assert maximal_subgames(H, mp) == [((0, 1), (0, 1))]

    def test_symmetric_returns_strategy_set(self, rps):
        H = sink_component(build_graph(rps))
        assert maximal_subgames(H, rps) == [(0, 1, 2)]

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            g = random_game(rng, False, n, m)
            profiles = g.profiles()
            k = int(rng.integers(1, len(profiles) + 1))
            chosen = rng.choice(len(profiles), size=k, replace=False)
            H = {profiles[i] for i in chosen}
            got = set(maximal_subgames(H, g))
            assert got == brute_force_bicliques(H, n, m)

    def test_against_subset_scan_oracle(self):
        rng = np.random.default_rng(13)
        for g in oracle_corpus(22, 160):
            profiles = g.profiles()
            subsets = [set(), set(profiles)]
            for _ in range(4):
                k = int(rng.integers(1, len(profiles) + 1))
                subsets.append({profiles[i] for i in rng.choice(len(profiles), size=k, replace=False)})
            for H in subsets:
                assert maximal_subgames(H, g) == oracle_maximal_subgames(H, g)

    def test_subgames_cover_H(self, diamond):
        H = sink_component(build_graph(diamond))
        subs = maximal_subgames(H, diamond)
        covered = {(i, j) for rows, cols in subs for i in rows for j in cols}
        assert covered == H

    def test_empty_set(self, mp):
        assert maximal_subgames(set(), mp) == []

    def test_foreign_profile_rejected(self, mp):
        with pytest.raises(ValueError):
            maximal_subgames({(9, 9)}, mp)


class TestContentInvariance:
    def test_flow_preserves_content(self, diamond):
        # Start inside the content of the sink; the trajectory must stay there.
        H = sink_component(build_graph(diamond))
        z0 = mixed([0.0, 0.7, 0.3], [0.0, 0.2, 0.8])
        tr = integrate(diamond, z0, IntegratorConfig(step=0.01, horizon=50.0))
        assert float(np.max(tr.dist)) <= 1e-9

    def test_content_object(self, diamond):
        H = sink_component(build_graph(diamond))
        c = content_of(H, diamond)
        assert c.profiles == H
        assert len(c.subgames) == 2
        z = mixed([0.0, 0.5, 0.5], [0.0, 0.5, 0.5])
        assert set_shares(diamond, z, c.profiles)[0] == pytest.approx(1.0, abs=1e-12)
