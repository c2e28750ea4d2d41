"""The verify scopes against their one-point-at-a-time forms, their margins
and their failure paths."""

import numpy as np
import pytest

import zsflow.dynamics
import zsflow.equilibrium
import zsflow.prefgraph
import zsflow.verify
from zsflow import (
    IntegratorConfig,
    build_graph,
    check_embedding,
    integrate_batch,
    lyapunov_rates,
    make_game,
    mixed,
    random_game,
    random_mixed_profile,
    sink_component,
)
from zsflow.sampling import game_corpus, random_interior_stack
from zsflow.verify import (
    LYAPUNOV_FD_DT,
    LYAPUNOV_FD_TOL,
    verify_embedding,
    verify_lyapunov,
    verify_nash,
    verify_symmetrisation,
)

from face_sampling import dirichlet_stack


def sink_mass(z, H) -> float:
    """Product mass z places on the profiles in H."""
    x, y = z.vectors[0], z.vectors[-1]
    return float(sum(x[p] if len(z.vectors) == 1 else x[p[0]] * y[p[1]] for p in H))


def per_point_lyapunov(count: int, seed: int, points_per_game: int = 50):
    """The lyapunov scope one point at a time through the public API:
    (proper-sink games, points, smallest rate, largest finite-difference gap)."""
    rng = np.random.default_rng(seed)
    cfg = IntegratorConfig(step=LYAPUNOV_FD_DT, horizon=2 * LYAPUNOV_FD_DT)
    proper, rates, gaps = 0, [], []
    for g in game_corpus(rng, count):
        sink = sink_component(build_graph(g))
        if len(sink) == len(g.profiles()):
            continue
        proper += 1
        points, tries = [], 0
        while len(points) < points_per_game and tries < 400:
            tries += 1
            z = random_mixed_profile(rng, g)
            if 0.05 < sink_mass(z, sink) < 0.95:
                points.append(z)
        if not points:
            continue
        runs = integrate_batch(g, points, cfg)
        rates += lyapunov_rates(g, points).tolist()
        mids = lyapunov_rates(g, [mixed(*(s[1] for s in tr.states)) for tr in runs]).tolist()
        for mid, tr in zip(mids, runs):
            fd = (float(tr.mass[2]) - float(tr.mass[0])) / (2 * LYAPUNOV_FD_DT)
            gaps.append(abs(mid - fd))
    return proper, len(rates), min(rates), max(gaps)


class TestStackedDraws:
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_same_draws_as_one_profile_at_a_time(self, symmetric):
        g = random_game(np.random.default_rng(1), symmetric, 4, 3)
        a, b = np.random.default_rng(2), np.random.default_rng(2)
        Z = random_interior_stack(a, g, 7)
        expected = [np.concatenate(random_mixed_profile(b, g).vectors) for _ in range(7)]
        assert np.array_equal(Z, np.array(expected))
        assert a.random() == b.random()  # the generators stop at the same place
        assert random_interior_stack(a, g, 0).shape == (0, Z.shape[1])

    # One block is a symmetric game of that many strategies, two an n x m game.
    @pytest.mark.parametrize(
        "layout",
        [(1,), (3,), (2, 5), (7,), (8,), (12, 9), (30, 30), (9, 16), (60,)],
        ids=lambda layout: "x".join(map(str, layout)),
    )
    def test_matches_the_dirichlet_oracle(self, layout):
        # Each block is scaled by the reciprocal of its left-to-right sum, as
        # rng.dirichlet does; a pairwise sum differs by an ulp from 8 strategies.
        g = random_game(np.random.default_rng(0), len(layout) == 1, *layout)
        for seed in range(60):
            for count in (0, 1, 11, 50):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                Z, expected = random_interior_stack(a, g, count), dirichlet_stack(b, g, count)
                assert Z.shape == expected.shape == (count, sum(layout))
                assert np.array_equal(Z, expected), (seed, count)
                assert a.bit_generator.state == b.bit_generator.state


class TestReportsUnderTheOracleDraw:
    """The verify goldens leave out the margins, so a drift of the sampled
    stream shows here: every report, margins included, equals the one drawn
    through the per-draw oracle."""

    @pytest.mark.parametrize("seed", [11, 12])
    @pytest.mark.parametrize(
        "run, margins",
        [
            (lambda s: verify_lyapunov(30, s), ("min_rate", "max_fd_gap")),
            (lambda s: verify_embedding(40, s), ("max_residual",)),
        ],
        ids=["lyapunov", "embedding"],
    )
    def test_equal_reports(self, run, margins, seed, monkeypatch):
        report = run(seed)
        assert report["passed"] and all(report["detail"][k] is not None for k in margins)
        monkeypatch.setattr(zsflow.verify, "random_interior_stack", dirichlet_stack)
        assert run(seed) == report


class TestRandomGame:
    @pytest.mark.parametrize(
        "symmetric, n, m",
        [(False, 4, 5), (False, 4, None), (False, 1, 1), (True, 6, None), (True, 1, 3)],
    )
    def test_equals_make_game_of_the_same_draw(self, symmetric, n, m):
        for seed in range(50):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            g = random_game(a, symmetric, n, m)
            ints = b.integers(-9, 10, size=(n, n if symmetric or m is None else m))
            ints = ints - ints.T if symmetric else ints
            ref = make_game(ints.tolist(), "symmetric" if symmetric else "non-symmetric")
            assert g == ref
            assert (g.row_labels, g.col_labels) == (ref.row_labels, ref.col_labels)
            assert g.int_view.dtype == ref.int_view.dtype == np.int64
            assert np.array_equal(g.float_view, ref.float_view)
            assert a.bit_generator.state == b.bit_generator.state


class TestLyapunov:
    def test_matches_per_point_scope(self):
        report = verify_lyapunov(40, 17)
        detail = report["detail"]
        assert report["passed"]
        assert per_point_lyapunov(40, 17) == (
            detail["proper_sink_games"],
            detail["points_checked"],
            detail["min_rate"],
            detail["max_fd_gap"],
        )
        assert detail["min_rate"] > 0 and detail["max_fd_gap"] <= LYAPUNOV_FD_TOL

    def test_no_points_no_margins(self):
        detail = verify_lyapunov(6, 3, points_per_game=0)["detail"]
        assert detail["points_checked"] == 0
        assert detail["min_rate"] is None and detail["max_fd_gap"] is None

    def test_builds_one_graph_per_game(self, monkeypatch):
        real = zsflow.prefgraph.build_graph
        calls = []

        def counted(g):
            calls.append(g)
            return real(g)

        for module in (zsflow.verify, zsflow.dynamics):
            monkeypatch.setattr(module, "build_graph", counted)
        verify_lyapunov(30, 5)
        assert len(calls) == 30

    def test_stops_at_the_first_bad_point(self, monkeypatch):
        real = zsflow.verify._sink_rates

        def flipped(g, inside, X):
            rates = real(g, inside, X).copy()
            rates[3:] *= -1
            return rates

        monkeypatch.setattr(zsflow.verify, "_sink_rates", flipped)
        report = verify_lyapunov(20, 5)
        assert len(report["failures"]) == 1
        assert report["failures"][0].startswith("non-positive sink-mass rate -")
        assert report["detail"]["points_checked"] == 4
        assert report["detail"]["min_rate"] < 0

    def test_reports_a_finite_difference_gap(self, monkeypatch):
        monkeypatch.setattr(zsflow.verify, "LYAPUNOV_FD_TOL", 0.0)
        report = verify_lyapunov(20, 5)
        assert report["detail"]["points_checked"] == 1
        assert report["failures"][0].startswith("rate ")
        assert " vs finite difference " in report["failures"][0]
        assert report["detail"]["max_fd_gap"] > 0


class TestNash:
    def test_enumerates_once_per_game(self, monkeypatch):
        real = zsflow.equilibrium._enumerate_equilibria
        calls = []

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(zsflow.equilibrium, "_enumerate_equilibria", counted)
        report = verify_nash(25, 606)
        assert report["passed"] and report["checked"] == 25
        assert len(calls) == 25 and len(set(map(id, calls))) == 25

    def test_stops_at_a_failed_essential_verdict(self, monkeypatch):
        monkeypatch.setattr(zsflow.equilibrium, "_connectivity", lambda pg, inside: (False, 0))
        report = verify_nash(5, 1)
        assert not report["passed"] and report["checked"] == 1
        assert report["failures"] == [
            "essential subgame verdicts in_sink=True strongly_connected=False"
        ]


class TestEmbedding:
    def test_matches_per_point_scope(self):
        report = verify_embedding(30, 9)
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(30):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            g = random_game(rng, False, n, m)
            for _ in range(10):
                worst = max(worst, check_embedding(g, random_mixed_profile(rng, g)).max_residual)
        assert report["passed"]
        # One batch per game may round differently from one point at a time.
        assert abs(report["detail"]["max_residual"] - worst) <= 1e-15

    def test_stops_at_the_first_bad_point(self, monkeypatch):
        real = zsflow.verify._embedding_residuals

        def spiked(g, Z):
            res = real(g, Z).copy()
            res[2, 0] = 1.0
            res[5, 0] = 2.0
            return res

        monkeypatch.setattr(zsflow.verify, "_embedding_residuals", spiked)
        report = verify_embedding(5, 9)
        assert report["failures"] == ["embedding residual 1 exceeds 1e-10"]
        assert report["detail"]["max_residual"] == 1.0
        assert report["checked"] == 1


def test_symmetrisation_counts_pairs():
    report = verify_symmetrisation(25, 8)
    rng = np.random.default_rng(8)
    pairs = 0
    for _ in range(25):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        random_game(rng, False, n, m)
        pairs += (n * m) ** 2
    assert report["passed"] and report["detail"] == {"pairs_checked": pairs}

