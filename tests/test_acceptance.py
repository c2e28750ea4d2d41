"""Acceptance gate: eleven behavioural criteria with pinned tolerances and
wall-clock budgets.  Run with `pytest tests/test_acceptance.py -v -s` to see
one printed line per criterion."""
from __future__ import annotations

import contextlib
import io
import json
import time

import numpy as np

from zsflow import (
    IntegratorConfig,
    build_graph,
    integrate,
    integrate_batch,
    mass_monotone,
    mixed,
    solve_nash,
)
from zsflow.cli import main
from zsflow.verify import (
    verify_embedding,
    verify_graph,
    verify_lyapunov,
    verify_nash,
    verify_symmetrisation,
)

from diamond_oracle import diamond_game
from dynamics_oracle import mwu_step
from graph_oracle import profile_arcs

# Conservation evidence recorded by criteria 7 and 9 for criterion 11.
_recorded: dict[str, float] = {}


def _line(num: int, name: str, ok: bool, elapsed: float) -> None:
    print(f"CRITERION {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")


def _conservation_error(tr) -> float:
    return max(float(np.abs(s.sum(axis=1) - 1.0).max()) for s in tr.states)


def test_criterion_01_canonical_graphs(mp, rps):
    t0 = time.perf_counter()
    mp_arcs = set(profile_arcs(build_graph(mp)))
    rps_arcs = set(profile_arcs(build_graph(rps)))
    expected_mp = {
        ((0, 0), (0, 1), 2),
        ((0, 1), (1, 1), 2),
        ((1, 1), (1, 0), 2),
        ((1, 0), (0, 0), 2),
    }
    expected_rps = {(0, 1, 1), (1, 2, 1), (2, 0, 1)}
    elapsed = time.perf_counter() - t0
    ok = mp_arcs == expected_mp and rps_arcs == expected_rps and elapsed < 1.0
    _line(1, "canonical graph arc sets", ok, elapsed)
    assert mp_arcs == expected_mp
    assert rps_arcs == expected_rps
    assert elapsed < 1.0


def test_criterion_02_diamond_attractor_report(games_dir):
    t0 = time.perf_counter()
    found = diamond_game()  # exhaustive integer search
    shipped = str(games_dir / "diamond.json")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["analyze", shipped, "--format", "json"])
    report = json.loads(buf.getvalue())["report"]
    elapsed = time.perf_counter() - t0

    matrix_ok = report["game"]["row_labels"] == ["a", "b", "c"]
    with open(shipped, encoding="utf-8") as fh:
        shipped_matrix = json.load(fh)["matrix"]
    matrix_ok &= shipped_matrix == [
        [int(v) for v in row] for row in np.asarray(found.float_view).tolist()
    ]
    matrix_ok &= shipped_matrix[0][2] == 3
    attractor_ok = report["content"]["maximal_subgames"] == [
        {"rows": ["a", "b", "c"], "cols": ["b", "c"]},
        {"rows": ["b", "c"], "cols": ["a", "b", "c"]},
    ]
    x, y = report["nash"]["equilibrium"]
    eq_ok = max(
        abs(np.array(x) - [0.0, 0.5, 0.5]).max(),
        abs(np.array(y) - [0.0, 0.5, 0.5]).max(),
    ) < 1e-9
    ok = code == 0 and matrix_ok and attractor_ok and eq_ok and elapsed < 10.0
    _line(2, "diamond attractor and equilibrium", ok, elapsed)
    assert code == 0
    assert matrix_ok and attractor_ok and eq_ok
    assert elapsed < 10.0


def test_criterion_03_sink_uniqueness():
    t0 = time.perf_counter()
    rep = verify_graph(count=1000, seed=101)
    elapsed = time.perf_counter() - t0
    ok = rep["passed"] and rep["checked"] == 1000 and elapsed < 10.0
    _line(3, "sink uniqueness over 1000 games", ok, elapsed)
    assert rep["failures"] == []
    assert rep["checked"] == 1000
    assert elapsed < 10.0


def test_criterion_04_symmetrisation_identities():
    t0 = time.perf_counter()
    rep = verify_symmetrisation(count=200, seed=202)
    elapsed = time.perf_counter() - t0
    ok = rep["passed"] and rep["checked"] == 200 and elapsed < 5.0
    _line(4, "symmetrisation identities exact", ok, elapsed)
    assert rep["failures"] == []
    assert rep["checked"] == 200
    assert elapsed < 5.0


def test_criterion_05_embedding_residual():
    t0 = time.perf_counter()
    rep = verify_embedding(count=100, seed=303, points_per_game=10)
    elapsed = time.perf_counter() - t0
    ok = rep["passed"] and rep["detail"]["max_residual"] <= 1e-10 and elapsed < 5.0
    _line(5, "product embedding residual <= 1e-10", ok, elapsed)
    assert rep["failures"] == []
    assert rep["detail"]["max_residual"] <= 1e-10
    assert elapsed < 5.0


def test_criterion_06_lyapunov_rate():
    t0 = time.perf_counter()
    rep = verify_lyapunov(count=120, seed=404, points_per_game=50)
    elapsed = time.perf_counter() - t0
    ok = (
        rep["passed"]
        and rep["detail"]["proper_sink_games"] > 0
        and elapsed < 30.0
    )
    _line(6, "lyapunov rate positive, matches slope", ok, elapsed)
    assert rep["failures"] == []
    assert rep["detail"]["proper_sink_games"] > 0
    assert elapsed < 30.0


def test_criterion_07_global_convergence(diamond):
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    starts = [
        mixed(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3)))
        for _ in range(100)
    ]
    cfg = IntegratorConfig(step=0.01, horizon=200.0)
    runs = integrate_batch(diamond, starts, cfg)
    worst_dist = max(float(tr.dist[-1]) for tr in runs)
    monotone = all(mass_monotone(tr.mass) for tr in runs)
    conservation = max(_conservation_error(tr) for tr in runs)
    _recorded["convergence_conservation"] = conservation
    elapsed = time.perf_counter() - t0
    ok = worst_dist < 1e-3 and monotone and conservation <= 1e-9 and elapsed < 60.0
    _line(7, "interior starts reach the sink content", ok, elapsed)
    assert worst_dist < 1e-3
    assert monotone
    assert conservation <= 1e-9
    assert elapsed < 60.0


def test_criterion_08_nash_sink_containment():
    t0 = time.perf_counter()
    rep = verify_nash(count=500, seed=606)
    elapsed = time.perf_counter() - t0
    ok = rep["passed"] and rep["checked"] == 500 and elapsed < 120.0
    _line(8, "essential subgames sit in the sink", ok, elapsed)
    assert rep["failures"] == []
    assert rep["checked"] == 500
    assert elapsed < 120.0


def test_criterion_09_time_average(mp):
    t0 = time.perf_counter()
    z0 = mixed([0.9, 0.1], [0.2, 0.8])
    tr = integrate(mp, z0, IntegratorConfig(step=0.05, horizon=1000.0))
    avg_x = tr.states[0].mean(axis=0)
    avg_y = tr.states[1].mean(axis=0)
    err_centre = max(np.abs(avg_x - 0.5).max(), np.abs(avg_y - 0.5).max())
    # Cross-check the target against the solver rather than a hard-coded point.
    eq = solve_nash(mp).equilibrium
    err_nash = max(
        np.abs(avg_x - eq.vectors[0]).max(), np.abs(avg_y - eq.vectors[1]).max()
    )
    conservation = _conservation_error(tr)
    _recorded["average_conservation"] = conservation
    elapsed = time.perf_counter() - t0
    ok = err_centre < 1e-2 and err_nash < 1e-2 and elapsed < 5.0
    _line(9, "cycling orbit averages to equilibrium", ok, elapsed)
    assert err_centre < 1e-2
    assert err_nash < 1e-2
    assert conservation <= 1e-9
    assert elapsed < 5.0


def test_criterion_10_mwu_flow_limit(mp):
    t0 = time.perf_counter()
    z = mixed([0.9, 0.1], [0.2, 0.8])

    def deviation(eta: float) -> float:
        flow = integrate(mp, z, IntegratorConfig(step=eta / 100, horizon=eta)).states
        step = mwu_step(mp, z, eta)
        raw = max(
            np.abs(step.vectors[k] - flow[k][-1]).max() for k in range(2)
        )
        return raw / eta  # deviation per unit time shrinks linearly in eta

    ratio = deviation(5e-3) / deviation(1e-2)
    elapsed = time.perf_counter() - t0
    ok = 0.4 <= ratio <= 0.6 and elapsed < 1.0
    _line(10, "mwu deviation halves with the step", ok, elapsed)
    assert 0.4 <= ratio <= 0.6
    assert elapsed < 1.0


def test_criterion_11_conservation_and_faces(diamond):
    t0 = time.perf_counter()
    # Boundary start: the zero coordinates must survive exactly, and the
    # simplex sums must hold at every sample.
    z0 = mixed([0.0, 0.6, 0.4], [0.5, 0.5, 0.0])
    tr = integrate(diamond, z0, IntegratorConfig(step=0.01, horizon=50.0))
    zeros_exact = (
        np.all(tr.states[0][:, 0] == 0.0) and np.all(tr.states[1][:, 2] == 0.0)
    )
    conservation = _conservation_error(tr)
    recorded_ok = all(v <= 1e-9 for v in _recorded.values())
    elapsed = time.perf_counter() - t0
    ok = zeros_exact and conservation <= 1e-9 and recorded_ok
    _line(11, "simplex sums and zero faces preserved", ok, elapsed)
    assert zeros_exact
    assert conservation <= 1e-9
    # Criteria 7 and 9 stored their own conservation maxima; none may exceed
    # the tolerance.
    assert recorded_ok
