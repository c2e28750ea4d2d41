"""Nash solving, the essential subgame, and graph-side certification."""
from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from zsflow import (
    Game,
    build_graph,
    certificate_to_dict,
    make_game,
    sink_component,
    solve_nash,
)
from zsflow.dynamics import _field, _operator, _stack
from zsflow.equilibrium import CHUNK_ENTRIES, _enumerate_equilibria
from zsflow.game import SUPPORT_ATOL
from zsflow.prefgraph import _connectivity
from zsflow.sampling import game_corpus

from graph_oracle import fraction_rows, profile_arcs
from nash_oracle import enumerate_equilibria as oracle_equilibria


def grid_value_2x2(M: np.ndarray, points: int = 20001) -> float:
    """Independent game value for a 2x2 matrix: maximise the row player's
    guaranteed payoff over a fine grid of mixtures."""
    xs = np.linspace(0.0, 1.0, points)
    rows = np.stack([xs, 1.0 - xs], axis=1)
    return float((rows @ M).min(axis=1).max())


class TestCanonicalEquilibria:
    def test_matching_pennies(self, mp):
        cert = solve_nash(mp)
        assert np.allclose(cert.equilibrium.vectors[0], [0.5, 0.5], atol=1e-9)
        assert np.allclose(cert.equilibrium.vectors[1], [0.5, 0.5], atol=1e-9)
        assert abs(cert.game_value) < 1e-9
        assert cert.support == ((0, 1), (0, 1))
        assert cert.in_sink and cert.support_strongly_connected

    def test_rock_paper_scissors(self, rps):
        cert = solve_nash(rps)
        assert len(cert.equilibrium.vectors) == 1
        assert np.allclose(cert.equilibrium.vectors[0], [1 / 3] * 3, atol=1e-9)
        assert abs(cert.game_value) < 1e-9
        assert cert.support == ((0, 1, 2),)

    def test_diamond(self, diamond):
        cert = solve_nash(diamond)
        assert np.allclose(cert.equilibrium.vectors[0], [0.0, 0.5, 0.5], atol=1e-9)
        assert np.allclose(cert.equilibrium.vectors[1], [0.0, 0.5, 0.5], atol=1e-9)
        assert abs(cert.game_value) < 1e-9
        assert cert.support == ((1, 2), (1, 2))
        assert cert.in_sink and cert.support_strongly_connected

    def test_dominant_row_game(self):
        g = make_game([[3, 1], [0, 0]], "non-symmetric")
        cert = solve_nash(g)
        assert np.allclose(cert.equilibrium.vectors[0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(cert.equilibrium.vectors[1], [0.0, 1.0], atol=1e-12)
        assert abs(cert.game_value - 1.0) < 1e-12
        assert cert.support == ((0,), (1,))
        assert abs(grid_value_2x2(g.float_view) - 1.0) < 1e-3

    def test_one_by_one(self):
        cert = solve_nash(make_game([[5]], "non-symmetric"))
        assert cert.game_value == 5.0
        assert cert.support == ((0,), (0,))

    def test_zero_game_tie_break(self):
        # Every profile is an equilibrium; the reported one has the largest
        # support, then the lexicographically smallest index sets.
        g = make_game([[0, 0], [0, 0]], "non-symmetric")
        cert = solve_nash(g)
        assert cert.support == ((0,), (0,))
        assert cert.game_value == 0.0
        rep = cert.essential
        assert rep.subgame == ((0, 1), (0, 1))
        assert rep.passed
        assert rep.zero_weight_arc_pairs == 4


def oracle_corpus(seed: int, count: int) -> list:
    """Square and rectangular games (1-6 x 1-6), generic and tie-heavy
    (payoffs in {-1, 0, 1}), symmetric games, Fraction payoffs and the
    all-zero games."""
    rng = np.random.default_rng(seed)
    games = [make_game([[0] * 4] * 3, "non-symmetric"), make_game([[0] * 3] * 3, "symmetric")]
    for t in range(count):
        n, m = (int(v) for v in rng.integers(1, 7, size=2))
        kind = t % 5
        bound = 1 if kind in (1, 3) else 9
        if kind < 2:
            games.append(make_game(rng.integers(-bound, bound + 1, (n, m)).tolist(), "non-symmetric"))
        elif kind < 4:
            upper = np.triu(rng.integers(-bound, bound + 1, (n, n)), 1)
            games.append(make_game((upper - upper.T).tolist(), "symmetric"))
        else:
            num = rng.integers(-9, 10, (n, m))
            den = rng.integers(1, 7, (n, m))
            rows = [[Fraction(int(a), int(b)) for a, b in zip(r, d)] for r, d in zip(num, den)]
            games.append(make_game(rows, "non-symmetric"))
    return games


def enumerated(g) -> tuple:
    """The library's stacked equilibria in the oracle's (x, y, value) form."""
    X, Y, v = _enumerate_equilibria(g)
    return tuple((tuple(x), tuple(y), float(w)) for x, y, w in zip(X, Y, v))


class TestBatchedEnumeration:
    """The stacked solve must reproduce the per-pair loop bit for bit."""

    def test_matches_per_pair_oracle(self):
        for g in oracle_corpus(61, 160):
            assert enumerated(g) == oracle_equilibria(g), fraction_rows(g)

    def test_fallback_when_batched_solve_raises(self, monkeypatch):
        # With every system reported non-singular the stacked solve meets a
        # singular one and raises; the chunk is then solved one system at a time.
        monkeypatch.setattr(np.linalg, "slogdet", lambda A: (np.ones(len(A)), None))
        for g in oracle_corpus(62, 24):
            assert enumerated(g) == oracle_equilibria(g), fraction_rows(g)

    def test_memory_bounded_by_chunk(self):
        # One chunk holds a few stacks of CHUNK_ENTRIES floats; solving all
        # 48619 support pairs of a 9x9 game at once peaks near 16 MB.
        rng = np.random.default_rng(9)
        g = make_game(rng.integers(-9, 10, (9, 9)).tolist(), "non-symmetric")
        tracemalloc.start()
        try:
            _enumerate_equilibria(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * CHUNK_ENTRIES * 8


class TestSelection:
    def test_matches_the_documented_rule_on_the_oracle(self):
        # Largest |S1| + |S2|, then the lexicographically smallest (S1, S2),
        # the first found on ties; the essential subgame is the union.
        def support(v):
            return tuple(i for i, w in enumerate(v) if w > SUPPORT_ATOL)

        for g in oracle_corpus(65, 120):
            eqs = oracle_equilibria(g)
            supports = [(support(x), support(y)) for x, y, _ in eqs]
            best = min(range(len(eqs)), key=lambda k: (-sum(map(len, supports[k])), supports[k]))
            x, y, _ = eqs[best]
            rows = set().union(*(sx for sx, _ in supports))
            cols = set().union(*(sy for _, sy in supports))
            cert = solve_nash(g)
            if g.symmetric:
                want = ((supports[best][0],), [x], (tuple(sorted(rows | cols)),))
            else:
                want = (supports[best], [x, y], (tuple(sorted(rows)), tuple(sorted(cols))))
            vectors = [np.array(v).tobytes() for v in want[1]]
            assert cert.support == want[0], fraction_rows(g)
            assert [v.tobytes() for v in cert.equilibrium.vectors] == vectors, fraction_rows(g)
            assert cert.essential.subgame == want[2], fraction_rows(g)


class TestMinimaxConsistency:
    def test_grid_oracle_2x2(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            M = rng.integers(-9, 10, size=(2, 2))
            g = make_game(M.tolist(), "non-symmetric")
            cert = solve_nash(g)
            assert abs(cert.game_value - grid_value_2x2(M.astype(float))) < 1e-3

    def test_best_replies_bracket_value(self):
        rng = np.random.default_rng(19)
        for g in game_corpus(rng, 60):
            cert = solve_nash(g)
            M = g.float_view
            if g.symmetric:
                x = cert.equilibrium.vectors[0]
                assert abs(cert.game_value) < 1e-9
                assert (M @ x).max() < 1e-9
            else:
                x, y = cert.equilibrium.vectors
                # No pure deviation may beat the value on either side.
                assert (M @ y).max() <= cert.game_value + 1e-9
                assert (M.T @ x).min() >= cert.game_value - 1e-9

    def test_equilibria_are_flow_fixed_points(self, mp, rps, diamond):
        for g in (mp, rps, diamond):
            z = solve_nash(g).equilibrium
            dz = _field(_operator(g), _stack([z]))[0]
            assert np.abs(dz).max() < 1e-9


class TestEssentialSubgame:
    def test_canonical(self, mp, rps, diamond):
        assert solve_nash(mp).essential.subgame == ((0, 1), (0, 1))
        assert solve_nash(rps).essential.subgame == ((0, 1, 2),)
        assert solve_nash(diamond).essential.subgame == ((1, 2), (1, 2))

    def test_dominant(self):
        g = make_game([[3, 1], [0, 0]], "non-symmetric")
        assert solve_nash(g).essential.subgame == ((0,), (1,))

    def test_contains_selected_support(self):
        rng = np.random.default_rng(31)
        for g in game_corpus(rng, 40):
            cert = solve_nash(g)
            ess = cert.essential.subgame
            if g.symmetric:
                assert set(cert.support[0]) <= set(ess[0])
            else:
                assert set(cert.support[0]) <= set(ess[0])
                assert set(cert.support[1]) <= set(ess[1])


class TestGraphCertification:
    def test_canonical_reports(self, mp, rps, diamond):
        for g in (mp, rps, diamond):
            rep = solve_nash(g).essential
            assert rep.passed
            assert rep.in_sink and rep.strongly_connected

    def test_diamond_support_inside_proper_sink(self, diamond):
        sink = sink_component(build_graph(diamond))
        cert = solve_nash(diamond)
        prods = {(i, j) for i in cert.support[0] for j in cert.support[1]}
        assert prods < sink

    def test_graph_of_another_game_rejected(self, mp, diamond):
        # Read against matching pennies' graph, the diamond's verdicts would
        # be in_sink=False and strongly_connected=False.
        with pytest.raises(ValueError, match="not the preference graph of g"):
            solve_nash(diamond, build_graph(mp))
        twin = Game(diamond.int_view, diamond.int_scale, False, diamond.row_labels, diamond.col_labels)
        assert twin is not diamond
        assert solve_nash(diamond, build_graph(twin)).essential.passed

    def test_fuzz(self):
        rng = np.random.default_rng(47)
        for g in game_corpus(rng, 60):
            assert solve_nash(g).essential.passed

    def test_certificate_carries_the_essential_report(self):
        # One enumeration gives both verdicts; each is checked here against
        # its own product set, and the tie count against a per-arc scan.
        for g in oracle_corpus(64, 120):
            pg = build_graph(g)
            sink = sink_component(pg)
            cert = solve_nash(g, pg)
            ess = cert.essential
            assert ess == solve_nash(g).essential
            for sets, in_sink, connected in (
                (cert.support, cert.in_sink, cert.support_strongly_connected),
                (ess.subgame, ess.in_sink, ess.strongly_connected),
            ):
                prods = set(sets[0]) if g.symmetric else {(i, j) for i in sets[0] for j in sets[1]}
                assert in_sink == (prods <= sink)
                assert connected == _connectivity(pg, g.node_mask(prods))[0]
            ties = sum(
                a.weight == 0 and a.src in prods and a.dst in prods for a in profile_arcs(pg)
            )
            assert ess.zero_weight_arc_pairs * 2 == ties


class TestSerialisation:
    def test_certificate_dict(self, mp):
        d = certificate_to_dict(solve_nash(mp), mp)
        assert d["support"] == {"rows": ["H", "T"], "cols": ["H", "T"]}
        assert d["equilibrium"] == [[0.5, 0.5], [0.5, 0.5]]
        assert abs(d["game_value"]) < 1e-9
        assert d["in_sink"] is True

    def test_certificate_dict_symmetric(self, rps):
        d = certificate_to_dict(solve_nash(rps), rps)
        assert d["support"] == {"strategies": ["R", "P", "S"]}
