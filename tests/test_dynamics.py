"""Replicator flow, embedding, Lyapunov rate, the MWU oracle, and trajectory output."""
from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import zsflow.dynamics
from zsflow import (
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    build_graph,
    check_embedding,
    integrate,
    integrate_batch,
    lyapunov_rates,
    make_game,
    mass_monotone,
    mixed,
    sink_component,
    uniform_profile,
    write_trajectory_csv,
    write_trajectory_svg,
)
from zsflow.dynamics import (
    SVG_TITLE,
    _field,
    _flow,
    _mass_shares,
    _operator,
    _sink_rates,
    _stack,
)
from zsflow.sampling import game_corpus, random_game, random_interior_stack, random_mixed_profile

from dynamics_oracle import dense_sink_rates, direct_flow, log_rk4_flow, mwu_step
from face_sampling import random_face_profile
from graph_oracle import planted_games, sized_corpus, tie_heavy_games


def field(g, z):
    """Replicator velocities at z, one vector per player."""
    op = _operator(g)
    return np.split(_field(op, _stack([z]))[0], op.starts[1:])


@pytest.fixture(params=["rk4-log", "rk4-direct"])
def integrator(request, monkeypatch):
    """integrate and integrate_batch on the library's log-coordinate RK4, or
    on the direct RK4 oracle in its place."""
    if request.param == "rk4-direct":
        monkeypatch.setattr(zsflow.dynamics, "_flow", direct_flow)
    return request.param


class TestVectorFields:
    def test_rps_edge_point_frozen(self, rps):
        # At x = (1/2, 1/2, 0): (Mx)_R = -1/2, (Mx)_P = 1/2, and x^T M x = 0
        # for any anti-symmetric M, so dx = x * (Mx) = (-1/4, 1/4, 0).
        (dx,) = field(rps, mixed([0.5, 0.5, 0.0]))
        assert np.allclose(dx, [-0.25, 0.25, 0.0], atol=1e-15)

    def test_uniform_points_are_fixed(self, mp, rps):
        (dx,) = field(rps, uniform_profile(rps))
        assert np.abs(dx).max() < 1e-15
        du, dv = field(mp, uniform_profile(mp))
        assert np.abs(du).max() < 1e-15 and np.abs(dv).max() < 1e-15

    def test_pure_points_are_fixed(self, mp, rps):
        du, dv = field(mp, mixed([1.0, 0.0], [0.0, 1.0]))
        assert np.abs(du).max() == 0.0 and np.abs(dv).max() == 0.0
        (dx,) = field(rps, mixed([0.0, 1.0, 0.0]))
        assert np.abs(dx).max() == 0.0

    def test_tangency(self):
        # The field must sum to zero in each player's coordinates so the
        # simplex is invariant.
        rng = np.random.default_rng(11)
        for g in game_corpus(rng, 30):
            z = random_mixed_profile(rng, g)
            if g.symmetric:
                (dx,) = field(g, z)
                assert abs(dx.sum()) < 1e-12
            else:
                du, dv = field(g, z)
                assert abs(du.sum()) < 1e-12 and abs(dv.sum()) < 1e-12


class TestConfig:
    def test_defaults(self):
        cfg = IntegratorConfig()
        assert cfg.step == 0.01 and cfg.horizon == 200.0
        assert [f.name for f in dataclasses.fields(cfg)] == ["step", "horizon"]

    def test_step_counts(self):
        assert IntegratorConfig(step=0.01, horizon=200.0).steps == 20000
        assert IntegratorConfig(step=1e-4, horizon=2e-4).steps == 2
        assert IntegratorConfig(step=0.1, horizon=0.25).steps == 3
        assert IntegratorConfig(step=0.01, horizon=0.0).steps == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step": 0.0},
            {"step": -0.01},
            {"step": 0.2},
            {"step": 0.1, "horizon": 0.1},
            {"horizon": -1.0},
            {"step": math.inf},
            {"horizon": math.inf},
            {"horizon": math.nan},
            {"step": math.nan},
            {"step": 0.001, "horizon": 1e306},  # horizon / step is inf
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)


class TestIntegration:
    def test_sampling_grid(self, mp):
        cfg = IntegratorConfig(step=0.1, horizon=1.0)
        tr = integrate(mp, uniform_profile(mp), cfg)
        assert len(tr) == cfg.steps + 1
        assert np.allclose(tr.times, np.arange(11) * 0.1, atol=1e-12)

    def test_initial_sample_is_exact(self, mp):
        z = mixed([0.9, 0.1], [0.2, 0.8])
        tr = integrate(mp, z, IntegratorConfig(step=0.01, horizon=1.0))
        assert np.array_equal(tr.states[0][0], z.vectors[0])
        assert np.array_equal(tr.states[1][0], z.vectors[1])

    def test_zero_horizon_gives_single_sample(self, mp):
        z = mixed([0.9, 0.1], [0.2, 0.8])
        tr = integrate(mp, z, IntegratorConfig(step=0.01, horizon=0.0))
        assert len(tr) == 1 and tr.times[0] == 0.0
        assert tr.mass.shape == tr.dist.shape == (1,)

    def test_interior_fixed_point_stays(self, rps):
        tr = integrate(rps, uniform_profile(rps), IntegratorConfig(step=0.01, horizon=5.0))
        assert np.abs(tr.states[0] - 1 / 3).max() < 1e-12

    def test_faces_are_invariant(self, rps, integrator):
        # A strategy that starts at exactly zero must stay at exactly zero.
        z0 = mixed([0.3, 0.7, 0.0])
        cfg = IntegratorConfig(step=0.01, horizon=10.0)
        tr = integrate(rps, z0, cfg)
        assert np.all(tr.states[0][:, 2] == 0.0)

    def test_edge_flow_is_logistic(self, mp, integrator):
        # On the edge where player 2 plays H, player 1's H share obeys
        # dx/dt = x(1-x) W with W = M[H][H] - M[T][H] = 2, giving the
        # explicit solution x(t) = 1 / (1 + ((1-x0)/x0) exp(-2t)).
        x0 = 0.3
        cfg = IntegratorConfig(step=0.01, horizon=4.0)
        tr = integrate(mp, mixed([x0, 1 - x0], [1.0, 0.0]), cfg)
        expected = 1.0 / (1.0 + ((1 - x0) / x0) * np.exp(-2.0 * tr.times))
        assert np.abs(tr.states[0][:, 0] - expected).max() < 1e-6
        assert np.all(tr.states[1][:, 1] == 0.0)

    def test_symmetric_edge_flow_is_logistic(self, rps):
        # Paper beats rock at weight 1, so the P share follows a rate-1
        # logistic on the R-P edge.
        x0 = 0.7
        tr = integrate(rps, mixed([1 - x0, x0, 0.0]), IntegratorConfig(step=0.01, horizon=4.0))
        expected = 1.0 / (1.0 + ((1 - x0) / x0) * np.exp(-tr.times))
        assert np.abs(tr.states[0][:, 1] - expected).max() < 1e-6

    def test_rps_interior_invariant_is_conserved(self, rps):
        # The product x_R x_P x_S is a constant of motion for the
        # rock-paper-scissors flow.
        z0 = mixed([0.2, 0.3, 0.5])
        tr = integrate(rps, z0, IntegratorConfig(step=0.01, horizon=100.0))
        prod = tr.states[0].prod(axis=1)
        assert np.abs(prod - prod[0]).max() < 1e-6

    def test_step_refinement_agrees(self, mp):
        z0 = mixed([0.9, 0.1], [0.2, 0.8])
        coarse = integrate(mp, z0, IntegratorConfig(step=0.05, horizon=5.0))
        fine = integrate(mp, z0, IntegratorConfig(step=0.0005, horizon=5.0))
        assert np.abs(coarse.states[0][-1] - fine.states[0][-1]).max() < 1e-6

    def test_log_and_direct_methods_agree(self, mp, rps, monkeypatch):
        cfg = IntegratorConfig(step=0.01, horizon=20.0)
        for g, z0 in ((mp, mixed([0.9, 0.1], [0.2, 0.8])), (rps, mixed([0.2, 0.3, 0.5]))):
            a = integrate(g, z0, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(zsflow.dynamics, "_flow", direct_flow)
                b = integrate(g, z0, cfg)
            for sa, sb in zip(a.states, b.states):
                assert np.abs(sa[-1] - sb[-1]).max() < 1e-9

    def test_simplex_is_preserved(self, diamond):
        rng = np.random.default_rng(3)
        z0 = random_mixed_profile(rng, diamond)
        tr = integrate(diamond, z0, IntegratorConfig(step=0.01, horizon=50.0))
        for states in tr.states:
            assert np.abs(states.sum(axis=1) - 1.0).max() < 1e-9
            assert states.min() >= 0.0

    def test_mass_and_distance_series(self, diamond):
        H = sink_component(build_graph(diamond))
        z0 = mixed([0.2, 0.5, 0.3], [0.4, 0.3, 0.3])
        tr = integrate(diamond, z0, IntegratorConfig(step=0.01, horizon=1.0))
        masses = np.outer(*z0.vectors).ravel()
        expected0 = sum(masses[i] for i, p in enumerate(diamond.profiles()) if p in H)
        assert abs(tr.mass[0] - expected0) < 1e-12
        assert np.abs(tr.mass + tr.dist - 1.0).max() < 1e-12

    def test_distance_is_never_negative(self, diamond):
        # The README quickstart run: it converges, so 1 - mass would round
        # below 0, while the mass off the sink is a sum of non-negative terms.
        tr = integrate(diamond, uniform_profile(diamond), IntegratorConfig(horizon=200.0))
        assert tr.dist.min() >= 0.0
        assert np.abs(tr.mass + tr.dist - 1.0).max() < 1e-12

    def test_unstable_direct_run_raises(self, monkeypatch):
        monkeypatch.setattr(zsflow.dynamics, "_flow", direct_flow)
        g = make_game([[1000, -1000], [-1000, 1000]], "non-symmetric")
        cfg = IntegratorConfig(step=0.1, horizon=2.0)
        with pytest.raises(IntegrationError):
            integrate(g, mixed([0.5, 0.5], [0.9, 0.1]), cfg)

    def test_batch_matches_single_run(self, mp):
        z = mixed([0.9, 0.1], [0.2, 0.8])
        cfg = IntegratorConfig(step=0.01, horizon=3.0)
        batch = integrate_batch(mp, [z, z], cfg)
        single = integrate(mp, z, cfg)
        for k in range(2):
            assert np.array_equal(batch[k].states[0], single.states[0])
            assert np.array_equal(batch[k].states[1], single.states[1])
            assert np.array_equal(batch[k].mass, single.mass)

    def test_batch_with_mixed_supports(self, diamond, integrator):
        # Starts on different faces run in one batch; each must match its
        # own single run and keep its zero coordinates exactly zero.
        starts = [
            mixed([0.2, 0.5, 0.3], [0.4, 0.3, 0.3]),
            mixed([0.0, 0.5, 0.5], [0.4, 0.3, 0.3]),
            mixed([0.6, 0.0, 0.4], [0.0, 0.7, 0.3]),
            mixed([1.0, 0.0, 0.0], [0.2, 0.0, 0.8]),
        ]
        cfg = IntegratorConfig(step=0.01, horizon=5.0)
        batch = integrate_batch(diamond, starts, cfg)
        for z, tr in zip(starts, batch):
            single = integrate(diamond, z, cfg)
            for states, one, v0 in zip(tr.states, single.states, z.vectors):
                assert np.abs(states - one).max() < 1e-12
                assert np.all(states[:, v0 == 0] == 0.0)
            assert np.abs(tr.mass - single.mass).max() < 1e-12

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_payoff_matches_einsum(self, symmetric):
        # The payoff series x M y comes from matrix products; the einsum sums
        # in another order, so the two agree to rounding, not bit for bit.
        rng = np.random.default_rng(21)
        cfg = IntegratorConfig(step=0.01, horizon=5.0)
        for n in (2, 7, 30):
            g = random_game(rng, symmetric, n, int(rng.integers(2, 31)))
            starts = [random_mixed_profile(rng, g) for _ in range(3)]
            for tr in integrate_batch(g, starts, cfg):
                x, y = tr.states[0], tr.states[-1]
                want = np.einsum("ti,ij,tj->t", x, g.float_view, y)
                assert np.abs(tr.payoff - want).max() <= 1e-12 * np.abs(g.float_view).max()

    def test_operator_bits(self):
        # The two-player skew operator [[0, M], [-M^T, 0]] as np.block builds
        # it, down to the sign of every zero (-M^T turns M's zeros into -0.0).
        g = random_game(np.random.default_rng(5), False, 6, 4, -2, 2)
        M = g.float_view
        K = np.block([[np.zeros((g.n, g.n)), M], [-M.T, np.zeros((g.m, g.m))]])
        KT = _operator(g).KT
        assert KT.shape == K.T.shape and np.array_equal(KT.view(np.int64), K.T.view(np.int64))


class TestPerBlockReference:
    """The flow's matrix-product stages against the same RK4 written with
    per-block reductions and a softmax per stage (log_rk4_flow)."""

    @pytest.mark.parametrize("kind", ["generic", "tie-heavy", "symmetric"])
    def test_matches_reference(self, kind):
        rng = np.random.default_rng(19)
        cfg = IntegratorConfig(step=0.01, horizon=10.0)
        for n in (2, 3, 5):
            if kind == "symmetric":
                g = random_game(rng, True, n + 1)
            else:
                low, high = (-9, 9) if kind == "generic" else (-2, 2)
                g = random_game(rng, False, n, int(rng.integers(2, 6)), low, high)
            # One batch of interior and face starts, so supports are mixed.
            faces = _stack([random_face_profile(rng, g) for _ in range(4)])
            Z0 = np.vstack([random_interior_stack(rng, g, 2), faces])
            assert len({tuple(row) for row in Z0 > 0}) > 1
            op = _operator(g)
            got, want = _flow(op, Z0, cfg), log_rk4_flow(op, Z0, cfg)
            assert np.array_equal(got == 0, want == 0)
            assert np.all((got == 0) == (Z0 == 0))
            assert np.abs(got - want).max() <= 1e-12


class TestLyapunov:
    def test_rate_positive_inside_diamond_basin(self, diamond):
        z = mixed([0.5, 0.3, 0.2], [0.6, 0.2, 0.2])
        assert lyapunov_rates(diamond, [z])[0] > 0.0

    def test_rate_vanishes_on_full_sink(self, mp):
        assert sink_component(build_graph(mp)) == frozenset(mp.profiles())
        z = mixed([0.9, 0.1], [0.2, 0.8])
        assert lyapunov_rates(mp, [z])[0] == 0.0

    def test_batch_certifies_once(self, diamond, monkeypatch):
        rng = np.random.default_rng(5)
        zs = [random_mixed_profile(rng, diamond) for _ in range(20)]
        calls = []

        def counted(g):
            calls.append(g)
            return build_graph(g)

        monkeypatch.setattr(zsflow.dynamics, "build_graph", counted)
        rates = lyapunov_rates(diamond, zs)
        assert len(calls) == 1 and rates.shape == (20,)
        for z, rate in zip(zs, rates):
            assert rate == pytest.approx(lyapunov_rates(diamond, [z])[0], rel=1e-12, abs=1e-15)
        assert lyapunov_rates(diamond, []).shape == (0,)

    def test_matches_finite_difference(self, diamond):
        # d/dt x_H from a tiny integration step must agree with the closed
        # form cut rate.
        z = mixed([0.5, 0.3, 0.2], [0.6, 0.2, 0.2])
        rate = lyapunov_rates(diamond, [z])[0]
        cfg = IntegratorConfig(step=1e-4, horizon=2e-4)
        tr = integrate(diamond, z, cfg)
        fd = (tr.mass[2] - tr.mass[0]) / 2e-4
        mid = lyapunov_rates(diamond, [mixed(*(s[1] for s in tr.states))])[0]
        assert abs(fd - mid) < 1e-5
        assert abs(rate - mid) < 1e-3

    def test_symmetric_rate(self):
        # Strategy 0 loses to everything; 1, 2, 3 cycle like RPS.
        g = make_game(
            [[0, -1, -1, -1], [1, 0, -1, 1], [1, 1, 0, -1], [1, -1, 1, 0]],
            "symmetric",
        )
        assert sink_component(build_graph(g)) == frozenset({1, 2, 3})
        z = mixed([0.4, 0.2, 0.2, 0.2])
        rate = lyapunov_rates(g, [z])[0]
        assert rate > 0.0
        tr = integrate(g, z, IntegratorConfig(step=1e-4, horizon=2e-4))
        fd = (tr.mass[2] - tr.mass[0]) / 2e-4
        assert abs(fd - lyapunov_rates(g, [mixed(tr.states[0][1])])[0]) < 1e-5

    def test_factored_rate_matches_dense_oracle(self):
        # Random masks, not only sinks: the factoring is an identity of the
        # cut sum, on interior points and on faces alike.
        rng = np.random.default_rng(61)
        for g in sized_corpus(rng, 300, 8, 8, 8):
            size = g.n if g.symmetric else g.n * g.m
            inside = rng.random(size) < rng.uniform(0.0, 1.0)
            boundary = [random_face_profile(rng, g) for _ in range(10)]
            Z = np.concatenate([random_interior_stack(rng, g, 10), _stack(boundary)])
            fast, dense = _sink_rates(g, inside, Z), dense_sink_rates(g, inside, Z)
            assert np.allclose(fast, dense, rtol=1e-12, atol=1e-15)

    def test_rates_need_no_symmetrised_matrix(self):
        # A strict saddle at (0, 0) is a proper sink of a 100x100 game, whose
        # symmetrised matrix alone would take 800 MB.
        rng = np.random.default_rng(62)
        M = rng.integers(-9, 10, size=(100, 100))
        M[0, 0], M[1:, 0], M[0, 1:] = 0, -10, 10
        g = make_game(M.tolist())
        assert sink_component(build_graph(g)) == {(0, 0)}
        zs = [random_mixed_profile(rng, g) for _ in range(50)]
        tracemalloc.start()
        try:
            rates = lyapunov_rates(g, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rates.shape == (50,) and np.all(rates > 0)
        assert peak < 16 * 2**20


class TestSinkFromTheGame:
    """integrate_batch and lyapunov_rates read the graph's cached sink mask:
    bit for bit what the mask of sink_component's profile set gives."""

    CORPORA = {
        "seeded": lambda: sized_corpus(np.random.default_rng(70), 40, 6, 6, 8),
        "planted": lambda: planted_games(71, 12, 12),
        "tie_heavy": lambda: tie_heavy_games(72, 40),
    }

    @pytest.mark.parametrize("corpus", CORPORA)
    def test_equal_to_the_profile_set_mask(self, corpus):
        rng = np.random.default_rng(73)
        cfg = IntegratorConfig(step=0.05, horizon=1.0)
        proper = 0
        for g in self.CORPORA[corpus]():
            inside = g.node_mask(sink_component(build_graph(g)))
            proper += not inside.all()
            starts = [random_mixed_profile(rng, g) for _ in range(3)]
            starts.append(random_face_profile(rng, g))
            Z0 = _stack(starts)
            mass, dist = _mass_shares(g, _flow(_operator(g), Z0, cfg), inside)
            for b, tr in enumerate(integrate_batch(g, starts, cfg)):
                assert tr.mass.tobytes() == mass[:, b].tobytes()
                assert tr.dist.tobytes() == dist[:, b].tobytes()
            assert lyapunov_rates(g, starts).tobytes() == _sink_rates(g, inside, Z0).tobytes()
        assert proper > 0


class TestEmbedding:
    def test_mp_residual(self, mp):
        rep = check_embedding(mp, mixed([0.9, 0.1], [0.2, 0.8]))
        assert rep.max_residual < 1e-10

    def test_fuzz(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for g in game_corpus(rng, 40):
            if g.symmetric:
                continue
            for _ in range(3):
                rep = check_embedding(g, random_mixed_profile(rng, g))
                worst = max(worst, rep.max_residual)
        assert worst < 1e-10

    def test_rejects_symmetric_games(self, rps):
        with pytest.raises(ValueError):
            check_embedding(rps, uniform_profile(rps))


class TestMwu:
    def test_uniform_mp_is_fixed(self, mp):
        z = uniform_profile(mp)
        zn = mwu_step(mp, z, 0.1)
        assert np.array_equal(zn.vectors[0], z.vectors[0])
        assert np.array_equal(zn.vectors[1], z.vectors[1])

    def test_pure_profiles_are_fixed(self, mp):
        z = mixed([0.0, 1.0], [1.0, 0.0])
        zn = mwu_step(mp, z, 0.5)
        assert np.array_equal(zn.vectors[0], z.vectors[0])
        assert np.array_equal(zn.vectors[1], z.vectors[1])

    def test_zeros_survive_exactly(self, rps):
        zn = mwu_step(rps, mixed([0.3, 0.7, 0.0]), 0.2)
        assert zn.vectors[0][2] == 0.0
        assert abs(zn.vectors[0].sum() - 1.0) < 1e-15

    def test_step_converges_to_flow(self, mp):
        # (mwu(z, eta) - z)/eta -> replicator field as eta -> 0, with the
        # deviation shrinking linearly in eta.
        z = mixed([0.9, 0.1], [0.2, 0.8])
        dx, dy = field(mp, z)

        def err(eta: float) -> float:
            zn = mwu_step(mp, z, eta)
            d1 = (zn.vectors[0] - z.vectors[0]) / eta
            d2 = (zn.vectors[1] - z.vectors[1]) / eta
            return max(np.abs(d1 - dx).max(), np.abs(d2 - dy).max())

        e1, e2 = err(2e-4), err(1e-4)
        assert e1 < 5e-5
        assert 0.4 < e2 / e1 < 0.6

    def test_rejects_nonpositive_eta(self, mp):
        with pytest.raises(ValueError):
            mwu_step(mp, uniform_profile(mp), 0.0)


class TestSeriesHelpers:
    def test_time_average_of_constant_run(self, rps):
        tr = integrate(rps, uniform_profile(rps), IntegratorConfig(step=0.01, horizon=2.0))
        assert np.abs(tr.states[0].mean(axis=0) - 1 / 3).max() < 1e-12

    def test_mp_time_average_approaches_centre(self, mp):
        # The MP orbit cycles, but its running average contracts toward the
        # unique equilibrium at the centre.
        z0 = mixed([0.9, 0.1], [0.2, 0.8])
        tr = integrate(mp, z0, IntegratorConfig(step=0.05, horizon=100.0))
        assert max(np.abs(s.mean(axis=0) - 0.5).max() for s in tr.states) < 0.02

    def test_mass_monotone(self):
        assert mass_monotone(np.array([0.2, 0.5, 0.9, 1.0]))
        assert not mass_monotone(np.array([0.2, 0.5, 0.4, 1.0]))
        # 1e-9 dips sit inside MONOTONE_SLACK.
        assert mass_monotone(np.array([0.2, 0.5, 0.5 - 1e-9, 1.0]))
        # Once the series saturates at 1, later rounding wiggle is ignored.
        sat = np.array([0.2, 0.9, 1.0 - 1e-13, 1.0 - 5e-13, 1.0])
        assert mass_monotone(sat)
        assert mass_monotone(np.array([0.4]))


def oracle_trajectory_csv(tr: Trajectory, g) -> str:
    """The per-cell CSV writer the library used before it formatted whole rows."""
    if g.symmetric:
        labels = list(g.row_labels)
    else:
        labels = [f"p1:{s}" for s in g.row_labels] + [f"p2:{t}" for t in g.col_labels]
    lines = [",".join(["t"] + labels + ["x_H", "payoff", "dist_content"])]
    for k in range(len(tr)):
        cells = [f"{float(tr.times[k]):.17g}"]
        for s in tr.states:
            cells.extend(f"{float(v):.17g}" for v in s[k])
        cells.append(f"{float(tr.mass[k]):.17g}")
        cells.append(f"{float(tr.payoff[k]):.17g}")
        cells.append(f"{float(tr.dist[k]):.17g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class TestWriters:
    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("face", [False, True])
    def test_csv_matches_per_cell_oracle(self, symmetric, face, tmp_path):
        # From an interior start, or from a face, whose exact zeros stay zero.
        rng = np.random.default_rng(31)
        for n in (2, 5, 13):
            g = random_game(rng, symmetric, n, None if symmetric else n + 1)
            z0 = (random_face_profile if face else random_mixed_profile)(rng, g)
            tr = integrate(g, z0, IntegratorConfig(step=0.05, horizon=1.0))
            path = tmp_path / f"{n}.csv"
            write_trajectory_csv(tr, g, str(path))
            assert path.read_bytes() == oracle_trajectory_csv(tr, g).encode()

    @pytest.mark.parametrize("low_half", [False, True])
    def test_csv_edge_values_match_per_cell_oracle(self, mp, low_half, tmp_path):
        # Signed zeros, subnormals and values below 1e-300 print as the oracle does,
        # in the state columns and, one half of them per case, in x_H and dist_content.
        edge = np.array([-0.0, 0.0, 1e-301, -3e-310, 5e-324, 1 / 3, 1e300, -2.5])
        half = edge.reshape(4, 2)
        series = edge[:4] if low_half else edge[4:]
        tr = Trajectory(
            times=np.arange(4.0), states=(half, half[::-1]), payoff=edge[4:],
            mass=series, dist=series,
        )
        path = tmp_path / "edge.csv"
        write_trajectory_csv(tr, mp, str(path))
        assert path.read_bytes() == oracle_trajectory_csv(tr, mp).encode()
        assert "-0," in path.read_text() and "1e-301" in path.read_text()

    def test_csv_layout(self, mp, tmp_path):
        z0 = mixed([0.9, 0.1], [0.2, 0.8])
        tr = integrate(mp, z0, IntegratorConfig(step=0.1, horizon=1.0))
        path = tmp_path / "mp.csv"
        write_trajectory_csv(tr, mp, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,p1:H,p1:T,p2:H,p2:T,x_H,payoff,dist_content"
        assert len(lines) == len(tr) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.9

    def test_csv_symmetric_labels_and_blank_mass(self, rps, tmp_path):
        tr = integrate(rps, mixed([0.2, 0.3, 0.5]), IntegratorConfig(step=0.1, horizon=0.5))
        path = tmp_path / "rps.csv"
        write_trajectory_csv(tr, rps, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,R,P,S,x_H,payoff,dist_content"
        # The sink of rock-paper-scissors is every strategy.
        assert [row.split(",")[4::2] for row in lines[1:]] == [["1", "0"]] * len(tr)

    def test_csv_deterministic(self, mp, tmp_path):
        tr = integrate(mp, mixed([0.9, 0.1], [0.2, 0.8]), IntegratorConfig(step=0.1, horizon=1.0))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(tr, mp, str(a))
        write_trajectory_csv(tr, mp, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_svg_output(self, diamond, tmp_path):
        z0 = mixed([0.2, 0.5, 0.3], [0.4, 0.3, 0.3])
        tr = integrate(diamond, z0, IntegratorConfig(step=0.01, horizon=20.0))
        path = tmp_path / "run.svg"
        write_trajectory_svg(tr, str(path))
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
        assert f">{SVG_TITLE}</text>" in text


def test_long_run_mass_is_monotone(diamond):
    z0 = mixed([0.6, 0.2, 0.2], [0.5, 0.25, 0.25])
    tr = integrate(diamond, z0, IntegratorConfig(step=0.01, horizon=200.0))
    assert mass_monotone(tr.mass)
    assert 1.0 - tr.mass[-1] < 1e-3
    assert math.isclose(tr.mass[0] + tr.dist[0], 1.0, abs_tol=1e-12)
