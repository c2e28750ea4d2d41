"""Preference graph structure, condensation and sink certification."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import zsflow.prefgraph
from zsflow import (
    Game,
    SccPartition,
    SinkUniquenessError,
    build_graph,
    content_of,
    make_game,
    random_game,
    scc,
    sink_component,
    to_dot,
)
from zsflow.prefgraph import _chains, _connectivity
from zsflow.sampling import game_corpus

from graph_oracle import (
    fraction_rows,
    oracle_arcs,
    oracle_corpus,
    oracle_dot,
    oracle_scc,
    planted_games,
    profile_arcs,
    sized_corpus,
    tie_heavy_games,
    weight,
)


def strongly_connected(g, pg, subset) -> bool:
    """Whether the subgraph of g's preference graph pg induced by subset is
    strongly connected."""
    return _connectivity(pg, g.node_mask(subset))[0]


def brute_force_components(nodes, arcs):
    """Reachability-closure oracle: mutual reachability classes and sinks."""
    idx = {v: k for k, v in enumerate(nodes)}
    n = len(nodes)
    reach = np.eye(n, dtype=bool)
    for a in arcs:
        reach[idx[a.src], idx[a.dst]] = True
    for k in range(n):  # Warshall closure
        reach |= reach[:, k][:, None] & reach[k, :][None, :]
    mutual = reach & reach.T
    comps = []
    seen = set()
    for v in range(n):
        if v in seen:
            continue
        comp = frozenset(nodes[w] for w in range(n) if mutual[v, w])
        seen.update(idx[u] for u in comp)
        comps.append(comp)
    sinks = []
    for comp in comps:
        members = {idx[v] for v in comp}
        out = any(
            reach[v, w] and w not in members
            for v in members
            for w in range(n)
            if reach[v, w]
        )
        if not out:
            sinks.append(comp)
    return comps, sinks


class TestCanonicalGraphs:
    def test_matching_pennies_cycle(self, mp):
        pg = build_graph(mp)
        assert len(pg.nodes) == 4
        arcs = {(a.src, a.dst) for a in profile_arcs(pg)}
        # (H,H) -> (H,T) -> (T,T) -> (T,H) -> (H,H)
        assert arcs == {((0, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 0)), ((1, 0), (0, 0))}
        assert all(a.weight == 2 for a in profile_arcs(pg))

    def test_rps_cycle(self, rps):
        pg = build_graph(rps)
        assert {(a.src, a.dst) for a in profile_arcs(pg)} == {(0, 1), (1, 2), (2, 0)}
        assert all(a.weight == 1 for a in profile_arcs(pg))

    def test_single_profile_game(self):
        g = make_game([[7]], "non-symmetric")
        pg = build_graph(g)
        assert pg.nodes == ((0, 0),)
        assert len(pg.arcs) == 0
        assert sink_component(pg) == {(0, 0)}

    def test_tie_produces_antiparallel_pair(self):
        g = make_game([[5, 5]], "non-symmetric")
        pg = build_graph(g)
        assert len(pg.arcs) == 2
        assert {(a.src, a.dst) for a in profile_arcs(pg)} == {((0, 0), (0, 1)), ((0, 1), (0, 0))}
        assert all(a.weight == 0 for a in profile_arcs(pg))

    def test_symmetric_tournament_arc_count(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            g = random_game(rng, True, n)
            pg = build_graph(g)
            ties = int(np.count_nonzero(pg.arcs["weight"] == 0)) // 2
            # one arc per unordered pair, two if tied
            assert len(pg.arcs) == n * (n - 1) // 2 + ties
            assert pg.arc_count == len(pg.arcs)

    def test_nonsymmetric_arc_slots(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            g = random_game(rng, False, n, m)
            pg = build_graph(g)
            ties = int(np.count_nonzero(pg.arcs["weight"] == 0)) // 2
            slots = m * n * (n - 1) // 2 + n * m * (m - 1) // 2
            assert len(pg.arcs) == slots + ties
            assert pg.arc_count == len(pg.arcs)

    def test_arc_weights_match_weight_function(self, diamond):
        pg = build_graph(diamond)
        for a in profile_arcs(pg):
            w = weight(diamond, a.src, a.dst)
            assert w <= 0
            assert a.weight == -w

    def test_scale_invariance_of_directions(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_game(rng, False, 3, 4)
            scaled = make_game(
                [[Fraction(7, 3) * v for v in row] for row in fraction_rows(g)], "non-symmetric"
            )
            arcs = {(a.src, a.dst) for a in profile_arcs(build_graph(g))}
            arcs2 = {(a.src, a.dst) for a in profile_arcs(build_graph(scaled))}
            assert arcs == arcs2

    def test_deterministic_rebuild(self, diamond):
        a, b = build_graph(diamond), build_graph(diamond)
        assert a.nodes == b.nodes and a.arcs.tobytes() == b.arcs.tobytes()

    def test_graph_holds_only_its_game(self):
        for g in oracle_corpus(45, 40):
            pg = build_graph(g)
            assert set(vars(pg)) == {"game"} and pg.game is g
            assert pg.nodes == tuple(g.profiles())


class TestCondensation:
    def test_mp_single_component(self, mp):
        part = scc(build_graph(mp))
        assert len(part.components) == 1
        assert part.sinks == (0,)

    def test_diamond_two_components(self, diamond):
        part = scc(build_graph(diamond))
        assert len(part.components) == 2
        assert part.components[0] == {(0, 0)}  # numbered by smallest node position
        assert len(part.components[1]) == 8
        assert part.sinks == (1,)

    def test_component_numbering_deterministic(self, diamond):
        a = scc(build_graph(diamond))
        b = scc(build_graph(diamond))
        assert a.components == b.components
        assert a.sinks == b.sinks

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(10)
        for g in game_corpus(rng, 100):
            pg = build_graph(g)
            part = scc(pg)
            comps, sinks = brute_force_components(pg.nodes, profile_arcs(pg))
            assert set(part.components) == set(comps)
            assert {part.components[k] for k in part.sinks} == set(sinks)

    def test_sink_of_diamond(self, diamond):
        sink = sink_component(build_graph(diamond))
        assert sink == frozenset((i, j) for i in range(3) for j in range(3)) - {(0, 0)}

    def test_multiple_sinks_rejected(self, mp, monkeypatch):
        # No game has two sinks, so the closures are patched to find a sink
        # that not every node reaches, and the condensation to report two.
        split = SccPartition((frozenset({(0, 0), (0, 1)}), frozenset({(1, 0), (1, 1)})), (0, 1), 0)
        half = np.array([True, True, False, False])
        monkeypatch.setattr(zsflow.prefgraph, "_closures", lambda W, v, symmetric: (half, half))
        monkeypatch.setattr(zsflow.prefgraph, "_condense", lambda pg: split)
        with pytest.raises(SinkUniquenessError) as err:
            sink_component(build_graph(mp))
        assert err.value.components == list(split.components)


class TestAgainstOracle:
    """Index arrays, integer arcs and index Tarjan against the Fraction
    per-pair builder and the profile-keyed Tarjan."""

    @staticmethod
    def check(g):
        pg = build_graph(g)
        arcs = oracle_arcs(g)
        assert profile_arcs(pg) == arcs  # order, direction and exact weight
        assert pg.arcs["weight"].dtype == g.int_view.dtype
        assert len(pg.arcs) == pg.arc_count and not pg.arcs.flags.writeable
        part = scc(pg)
        assert part == oracle_scc(pg.nodes, arcs)  # every SccPartition field
        # Components are strongly connected; two of them together never are.
        assert all(strongly_connected(g, pg, c) for c in part.components)
        if len(part.components) > 1:
            assert not strongly_connected(g, pg, part.components[0] | part.components[-1])

    def test_seeded_corpus(self):
        for g in oracle_corpus(20, 240):
            self.check(g)

    def test_huge_payoffs_take_the_object_path(self):
        for g in huge_games():
            assert g.int_view.dtype == object
            assert max(abs(v) for v in g.int_view.ravel()) > 2**62
            self.check(g)

    def test_int64_up_to_the_overflow_bound(self):
        edge = 2**62 - 1
        g = make_game([[edge, -edge], [-edge, edge]])
        assert g.int_view.dtype == np.int64
        self.check(g)
        assert make_game([[2**62, 0]]).int_view.dtype == object

    def test_condensation_cached_on_the_graph(self, diamond):
        pg = build_graph(diamond)
        assert scc(pg) is scc(pg)


def huge_games() -> list[Game]:
    """Games stored as object dtype: a rational game over a product of large
    primes, and games of either mode with payoffs of 2**66 and up."""
    rng = np.random.default_rng(21)
    primes = (1048573, 1048571, 1048559, 1048549, 1048517)
    rational = make_game(
        [
            [Fraction(int(a), primes[(i + j) % 5]) for j, a in enumerate(row)]
            for i, row in enumerate(rng.integers(-5, 6, size=(4, 5)))
        ]
    )
    big = make_game([[int(v) * 2**70 for v in row] for row in rng.integers(-2, 3, size=(5, 4))])
    K = rng.integers(-3, 4, size=(5, 5))
    big_sym = make_game([[int(v) * 2**66 for v in row] for row in K - K.T], "symmetric")
    return [rational, big, big_sym]


class TestSinkClosures:
    """The sink from forward-backward threshold closures against the sink of
    the condensation."""

    CORPORA = {
        "generic": lambda: sized_corpus(np.random.default_rng(50), 400, 8, 8, 12),
        "tie_heavy": lambda: tie_heavy_games(51, 400),
        "symmetric": lambda: [random_game(np.random.default_rng(n), True, n) for n in range(2, 60)],
        "object_dtype": huge_games,
        "planted": lambda: planted_games(53, 40),
    }

    @pytest.mark.parametrize("corpus", CORPORA)
    def test_matches_the_condensation(self, corpus):
        for g in self.CORPORA[corpus]():
            pg = build_graph(g)
            sink = sink_component(pg)
            assert "_partition" not in vars(pg)  # found without condensing
            part = scc(pg)
            assert part.sinks == (part.components.index(sink),)

    def test_planted_sinks_are_proper(self):
        # The planted corpus must test proper sinks, not whole strategy spaces.
        games = planted_games(53, 40)
        proper = [len(sink_component(build_graph(g))) < len(g.profiles()) for g in games]
        assert sum(proper) >= 30

    def test_sink_cached_on_the_graph(self, diamond, monkeypatch):
        pg = build_graph(diamond)
        sink = sink_component(pg)
        monkeypatch.setattr(zsflow.prefgraph, "_closures", None)
        assert sink_component(pg) == sink


class TestSinkMask:
    """Game.profiles(mask) inverts node_mask, and sink_component lists the
    cached sink mask's profiles without building the graph's nodes."""

    @staticmethod
    def python_ints(profiles) -> bool:
        return all(type(v) is int for p in profiles for v in (p if type(p) is tuple else (p,)))

    def test_profiles_invert_node_mask(self, mp, rps):
        rng = np.random.default_rng(54)
        for g in oracle_corpus(55, 80) + huge_games() + [mp, rps]:
            everything = g.profiles()
            size = len(everything)
            masks = [np.zeros(size, dtype=bool), np.ones(size, dtype=bool)]
            masks += [rng.random(size) < rng.uniform(0.0, 1.0) for _ in range(6)]
            for mask in masks:
                picked = g.profiles(mask)
                assert picked == list(itertools.compress(everything, mask.tolist()))
                assert np.array_equal(g.node_mask(picked), mask) and self.python_ints(picked)

    def test_profiles_without_a_mask_unchanged(self):
        for g in oracle_corpus(56, 80) + huge_games():
            pairs = list(itertools.product(range(g.n), range(g.m)))
            assert g.profiles() == (list(range(g.n)) if g.symmetric else pairs)

    def test_mask_of_another_size_rejected(self, mp, rps):
        for g, size in ((mp, 3), (mp, 2), (rps, 9)):
            with pytest.raises(ValueError, match="mask does not match"):
                g.profiles(np.ones(size, dtype=bool))

    CORPORA = {
        "oracle": lambda: oracle_corpus(57, 160),
        "tie_heavy": lambda: tie_heavy_games(58, 120),
        "lines": lambda: [
            random_game(np.random.default_rng(n), False, *shape)
            for n in range(1, 9)
            for shape in ((1, n), (n, 1))
        ],
        "planted": lambda: planted_games(59, 20, 40),
    }

    @pytest.mark.parametrize("corpus", CORPORA)
    def test_sink_component_lists_the_mask(self, corpus):
        for g in self.CORPORA[corpus]():
            pg = build_graph(g)
            sink = sink_component(pg)
            assert "nodes" not in vars(pg) and self.python_ints(sink)
            assert sink == frozenset(itertools.compress(pg.nodes, pg._sink.tolist()))


class TestStrongConnectivity:
    def test_diamond_subgame_connected(self, diamond):
        pg = build_graph(diamond)
        sub = {(i, j) for i in (1, 2) for j in (1, 2)}
        assert strongly_connected(diamond, pg, sub)

    def test_singleton_connected(self, mp):
        assert strongly_connected(mp, build_graph(mp), {(0, 0)})

    def test_disconnected_pair(self, mp):
        assert not strongly_connected(mp, build_graph(mp), {(0, 0), (1, 1)})

    def test_empty_set_rejected(self, mp):
        with pytest.raises(ValueError):
            strongly_connected(mp, build_graph(mp), set())

    def test_foreign_node_rejected(self, mp):
        with pytest.raises(ValueError):
            strongly_connected(mp, build_graph(mp), {(5, 5)})


class TestDot:
    def test_mp_dot_content(self, mp):
        pg = build_graph(mp)
        dot = to_dot(pg)
        assert dot.startswith("digraph preference_graph {")
        assert '"H,H" [style=filled, fillcolor=lightgrey];' in dot
        assert '"T,H" -> "H,H" [label="2"];' in dot

    def test_dot_deterministic(self, diamond):
        pg = build_graph(diamond)
        assert to_dot(pg) == to_dot(pg)

    def test_symmetric_dot_plain_names(self, rps):
        dot = to_dot(build_graph(rps))
        assert '"R" -> "P" [label="1"];' in dot

    def test_matches_oracle_dot(self):
        # Object dtype included: labels are formatted from Python int weights.
        for g in oracle_corpus(23, 80) + huge_games():
            pg = build_graph(g)
            sink = sink_component(pg)
            assert to_dot(pg) == oracle_dot(g, sink)


def increasing_map(rng, g: Game) -> Game:
    """g under a random strictly increasing map of its payoffs, odd for a
    symmetric game so that anti-symmetry holds."""
    values = sorted(set(g.int_view.ravel().tolist()))
    if g.symmetric:
        pos = [v for v in values if v > 0]
        image = np.cumsum(rng.integers(1, 40, size=len(pos))).tolist()
        to = {0: 0} | dict(zip(pos, image)) | {-v: -w for v, w in zip(pos, image)}
    else:
        image = int(rng.integers(-50, 50)) + np.cumsum(rng.integers(1, 40, size=len(values)))
        to = dict(zip(values, image.tolist()))
    I = np.array([[to[v] for v in row] for row in g.int_view.tolist()], dtype=np.int64)
    return Game(I, 1, g.symmetric, g.row_labels, g.col_labels)


class TestOrdinal:
    """The condensation reads each player's preference order only."""

    def test_invariant_under_increasing_payoff_maps(self):
        rng = np.random.default_rng(40)
        for g in oracle_corpus(41, 160):
            h = increasing_map(rng, g)
            a, b = scc(build_graph(g)), scc(build_graph(h))
            assert a.components == b.components and a.sinks == b.sinks
            sink = a.components[a.sinks[0]]
            assert content_of(sink, g) == content_of(sink, h)

    def test_sink_invariant_under_increasing_payoff_maps(self):
        rng = np.random.default_rng(46)
        for g in oracle_corpus(47, 160) + planted_games(48, 10, 40):
            h = increasing_map(rng, g)
            assert sink_component(build_graph(g)) == sink_component(build_graph(h))

    def test_subset_connectivity_matches_oracle(self):
        rng = np.random.default_rng(42)
        for g in oracle_corpus(43, 120):
            pg = build_graph(g)
            arcs = oracle_arcs(g)
            for _ in range(8):
                pick = rng.random(len(pg.nodes)) < rng.uniform(0.2, 1.0)
                if not pick.any():
                    continue
                nodes = tuple(v for v, keep in zip(pg.nodes, pick) if keep)
                inner = [a for a in arcs if a.src in nodes and a.dst in nodes]
                expected = len(oracle_scc(nodes, inner).components) == 1
                assert strongly_connected(g, pg, nodes) == expected
                ties = sum(1 for a in inner if a.weight == 0) // 2
                assert _chains(pg, pick)[2] == ties

    def test_full_arcs_not_built_at_scale(self):
        g = random_game(np.random.default_rng(44), False, 100, 100)
        tracemalloc.start()
        try:
            pg = build_graph(g)
            sink = sink_component(pg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink and "arcs" not in vars(pg)
        assert peak < 16 * 2**20  # the full arc arrays alone take about 100 MB
