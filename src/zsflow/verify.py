"""Seeded fuzz suites behind the ``verify`` command.

Each scope draws a deterministic corpus of random integer games and checks
one family of invariants, reporting the first counterexample if any.
"""

from __future__ import annotations

import numpy as np

from .content import mass_on
from .dynamics import IntegratorConfig, integrate_batch, lyapunov_rates
from .equilibrium import essential_subgame, solve_nash, verify_preference_nash
from .game import Game, float_matrix, game_to_dict
from .prefgraph import SinkUniquenessError, build_graph, is_strongly_connected, sink_component
from .sampling import game_corpus, random_game, random_mixed_profile
from .symmetrise import check_weight_identity, symmetrise

EMBEDDING_TOL = 1e-10
LYAPUNOV_FD_TOL = 1e-5
LYAPUNOV_FD_DT = 1e-4
NASH_TOL = 1e-9

SCOPES = ("graph", "symmetrisation", "embedding", "lyapunov", "nash")


def _report(scope: str, count: int, seed: int) -> dict:
    return {
        "scope": scope,
        "count": count,
        "seed": seed,
        "checked": 0,
        "passed": True,
        "failures": [],
        "counterexample": None,
        "detail": {},
    }


def _fail(report: dict, g: Game | None, message: str) -> None:
    report["passed"] = False
    report["failures"].append(message)
    if report["counterexample"] is None:
        report["counterexample"] = {
            "scope": report["scope"],
            "message": message,
            "game": None if g is None else game_to_dict(g),
        }


def verify_graph(count: int, seed: int) -> dict:
    """Every sampled game must certify a unique sink component."""
    report = _report("graph", count, seed)
    rng = np.random.default_rng(seed)
    for g in game_corpus(rng, count):
        report["checked"] += 1
        try:
            sink = sink_component(build_graph(g))
        except SinkUniquenessError as exc:
            _fail(report, g, f"sink not unique: {exc}")
            break
        if not sink:
            _fail(report, g, "empty sink component")
            break
    return report


def verify_symmetrisation(count: int, seed: int) -> dict:
    """Anti-symmetry and the two-weight split of the symmetrised matrix."""
    report = _report("symmetrisation", count, seed)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        g = random_game(rng, False, n, m)
        report["checked"] += 1
        sg = symmetrise(g)
        size = len(sg.matrix)
        anti = all(
            sg.matrix[a][b] == -sg.matrix[b][a] for a in range(size) for b in range(size)
        )
        if not anti:
            _fail(report, g, "symmetrised matrix is not anti-symmetric")
            break
        identity = check_weight_identity(g)
        if not identity.ok:
            _fail(
                report,
                g,
                f"weight identity violated on {len(identity.violations)} pairs",
            )
            break
    return report


def verify_embedding(count: int, seed: int, points_per_game: int = 10) -> dict:
    """Product-rule derivative matches the symmetrised field at random points."""
    from .dynamics import check_embedding

    report = _report("embedding", count, seed)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        g = random_game(rng, False, n, m)
        report["checked"] += 1
        for _ in range(points_per_game):
            z = random_mixed_profile(rng, g, interior=True)
            res = check_embedding(g, z).max_residual
            worst = max(worst, res)
            if res > EMBEDDING_TOL:
                _fail(report, g, f"embedding residual {res:g} exceeds {EMBEDDING_TOL:g}")
                break
        if not report["passed"]:
            break
    report["detail"]["max_residual"] = worst
    return report


def _proper_sink_points(rng, g: Game, sink, points: int, max_tries: int = 400):
    """Interior points whose sink mass lies in (0.05, 0.95)."""
    picked = []
    tries = 0
    while len(picked) < points and tries < max_tries:
        tries += 1
        z = random_mixed_profile(rng, g, interior=True)
        if 0.05 < mass_on(z, sink) < 0.95:
            picked.append(z)
    return picked


def verify_lyapunov(count: int, seed: int, points_per_game: int = 50) -> dict:
    """Positivity of the sink-mass growth rate and agreement with a centered
    finite difference along the integrated flow."""
    report = _report("lyapunov", count, seed)
    rng = np.random.default_rng(seed)
    cfg = IntegratorConfig(step=LYAPUNOV_FD_DT, horizon=2 * LYAPUNOV_FD_DT)
    proper = 0
    checked_points = 0
    for g in game_corpus(rng, count):
        report["checked"] += 1
        sink = sink_component(build_graph(g))
        if len(sink) == len(g.profiles()):
            continue
        proper += 1
        points = _proper_sink_points(rng, g, sink, points_per_game)
        if not points:
            continue
        trajectories = integrate_batch(g, points, cfg, H=sink)
        rates = lyapunov_rates(g, sink, points)
        mids = lyapunov_rates(g, sink, [tr.state(1) for tr in trajectories])
        for rate, mid, tr in zip(rates.tolist(), mids.tolist(), trajectories):
            checked_points += 1
            if not rate > 0:
                _fail(report, g, f"non-positive sink-mass rate {rate:g}")
                break
            fd = (float(tr.mass[2]) - float(tr.mass[0])) / (2 * LYAPUNOV_FD_DT)
            if abs(mid - fd) > LYAPUNOV_FD_TOL:
                _fail(
                    report,
                    g,
                    f"rate {mid:g} vs finite difference {fd:g} differ by {abs(mid - fd):g}",
                )
                break
        if not report["passed"]:
            break
    report["detail"]["proper_sink_games"] = proper
    report["detail"]["points_checked"] = checked_points
    return report


def verify_nash(count: int, seed: int) -> dict:
    """Equilibrium certificates, minimax consistency and the sink/connectivity
    verdicts for the essential subgame."""
    report = _report("nash", count, seed)
    rng = np.random.default_rng(seed)
    for g in game_corpus(rng, count):
        report["checked"] += 1
        pg = build_graph(g)
        cert = solve_nash(g, pg)
        M = float_matrix(g)
        if g.symmetric:
            x = cert.equilibrium.vectors[0]
            ok = abs(cert.game_value) <= NASH_TOL and np.max(M @ x) <= NASH_TOL
        else:
            x, y = cert.equilibrium.vectors
            v = cert.game_value
            ok = (
                abs(float(np.max(M @ y)) - v) <= NASH_TOL
                and abs(float(np.min(M.T @ x)) - v) <= NASH_TOL
            )
        if not ok:
            _fail(report, g, "certificate fails minimax consistency")
            break
        nash_check = verify_preference_nash(g, pg)
        if not nash_check.passed:
            _fail(
                report,
                g,
                f"essential subgame verdicts in_sink={nash_check.in_sink} "
                f"strongly_connected={nash_check.strongly_connected}",
            )
            break
        ess = essential_subgame(g)
        full = (
            len(ess[0]) == g.n
            if g.symmetric
            else len(ess[0]) == g.n and len(ess[1]) == g.m
        )
        if full and not is_strongly_connected(pg, pg.nodes):
            _fail(report, g, "fully mixed essential subgame but graph not strongly connected")
            break
    return report


_RUNNERS = {
    "graph": verify_graph,
    "symmetrisation": verify_symmetrisation,
    "embedding": verify_embedding,
    "lyapunov": verify_lyapunov,
    "nash": verify_nash,
}


def run_scope(scope: str, count: int, seed: int) -> list[dict]:
    """Run one named scope, or all of them."""
    if scope == "all":
        return [_RUNNERS[name](count, seed) for name in SCOPES]
    if scope not in _RUNNERS:
        raise ValueError(f"unknown scope {scope!r}; choose from {('all',) + SCOPES}")
    return [_RUNNERS[scope](count, seed)]
