"""Seeded fuzz suites behind the ``verify`` command.

Each scope draws a deterministic corpus of random integer games and checks
one family of invariants, reporting the first counterexample if any.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import (
    IntegratorConfig,
    _embedding_residuals,
    _flow,
    _mass_shares,
    _operator,
    _profile_masses,
    _sink_rates,
)
from .equilibrium import solve_nash
from .game import Game, game_to_dict
from .prefgraph import SinkUniquenessError, build_graph
from .sampling import game_corpus, random_game, random_interior_stack
from .symmetrise import _pair_differences, _weight_identity

EMBEDDING_TOL = 1e-10
LYAPUNOV_FD_TOL = 1e-5
LYAPUNOV_FD_DT = 1e-4
NASH_TOL = 1e-9
PROPER_SINK_TRIES = 400  # interior points drawn per game in the lyapunov scope, at most

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
            sink = build_graph(g)._sink
        except SinkUniquenessError as exc:
            _fail(report, g, f"sink not unique: {exc}")
            break
        if not sink.any():
            _fail(report, g, "empty sink component")
            break
    return report


def verify_symmetrisation(count: int, seed: int) -> dict:
    """Anti-symmetry and the two-weight split of the symmetrised matrix, built
    once per game, both exact in integers; the split is read against the
    preference graph's weights."""
    report = _report("symmetrisation", count, seed)
    rng = np.random.default_rng(seed)
    pairs = 0
    for _ in range(count):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        g = random_game(rng, False, n, m)
        report["checked"] += 1
        S = _pair_differences(g.int_view)
        if not np.array_equal(S, -S.T):
            _fail(report, g, "symmetrised matrix is not anti-symmetric")
            break
        identity = _weight_identity(g, S)
        pairs += identity.pairs_checked
        if not identity.ok:
            _fail(
                report,
                g,
                f"weight identity violated on {len(identity.violations)} pairs",
            )
            break
    report["detail"]["pairs_checked"] = pairs
    return report


def verify_embedding(count: int, seed: int, points_per_game: int = 10) -> dict:
    """Product-rule derivative matches the symmetrised field at random points,
    one batch of points per game."""
    report = _report("embedding", count, seed)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        g = random_game(rng, False, n, m)
        report["checked"] += 1
        res = _embedding_residuals(g, random_interior_stack(rng, g, points_per_game)).max(axis=1)
        end = _checked_through(res > EMBEDDING_TOL)
        worst = max([worst] + res[:end].tolist())
        if end and res[end - 1] > EMBEDDING_TOL:
            _fail(report, g, f"embedding residual {res[end - 1]:g} exceeds {EMBEDDING_TOL:g}")
            break
    report["detail"]["max_residual"] = worst
    return report


def _checked_through(bad: np.ndarray) -> int:
    """How many points are checked: up to and including the first bad one."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) + 1 if hits.size else bad.size


def _proper_sink_points(rng, g: Game, inside: np.ndarray, points: int):
    """Stacked interior points whose mass on the profiles of the mask inside
    lies in (0.05, 0.95), from at most PROPER_SINK_TRIES draws.  Tries are
    drawn in rounds of at most the number of points still wanted, so the
    generator stops where drawing one point at a time would."""
    picked = [random_interior_stack(rng, g, 0)]
    tries = 0
    while (need := points - sum(map(len, picked))) > 0 and tries < PROPER_SINK_TRIES:
        Z = random_interior_stack(rng, g, min(need, PROPER_SINK_TRIES - tries))
        tries += len(Z)
        mass = _profile_masses(g, Z)[:, inside].sum(axis=1)
        picked.append(Z[(0.05 < mass) & (mass < 0.95)])
    return np.concatenate(picked)


def verify_lyapunov(count: int, seed: int, points_per_game: int = 50) -> dict:
    """Positivity of the sink-mass growth rate and agreement with a centered
    finite difference along the integrated flow, one graph, one batch of
    points and one integration per game.  The detail reports the smallest
    rate and the largest finite-difference gap over the points checked."""
    report = _report("lyapunov", count, seed)
    rng = np.random.default_rng(seed)
    cfg = IntegratorConfig(step=LYAPUNOV_FD_DT, horizon=2 * LYAPUNOV_FD_DT)
    proper = 0
    checked_points = 0
    min_rate, max_gap = math.inf, 0.0
    for g in game_corpus(rng, count):
        report["checked"] += 1
        inside = build_graph(g)._sink
        if inside.all():
            continue
        proper += 1
        Z = _proper_sink_points(rng, g, inside, points_per_game)
        if not len(Z):
            continue
        full = _flow(_operator(g), Z, cfg)  # samples at 0, dt and 2 dt
        mass = _mass_shares(g, full, inside)[0]
        fd = (mass[2] - mass[0]) / (2 * LYAPUNOV_FD_DT)
        rates = _sink_rates(g, inside, Z)
        mids = _sink_rates(g, inside, full[1])
        gaps = np.abs(mids - fd)
        end = _checked_through(~(rates > 0) | (gaps > LYAPUNOV_FD_TOL))
        checked_points += end
        min_rate = min([min_rate] + rates[:end].tolist())
        max_gap = max([max_gap] + gaps[:end].tolist())
        rate, mid, slope, gap = (float(v[end - 1]) for v in (rates, mids, fd, gaps))
        if not rate > 0:
            _fail(report, g, f"non-positive sink-mass rate {rate:g}")
            break
        if gap > LYAPUNOV_FD_TOL:
            _fail(report, g, f"rate {mid:g} vs finite difference {slope:g} differ by {gap:g}")
            break
    report["detail"]["proper_sink_games"] = proper
    report["detail"]["points_checked"] = checked_points
    report["detail"]["min_rate"] = min_rate if checked_points else None
    report["detail"]["max_fd_gap"] = max_gap if checked_points else None
    return report


def verify_nash(count: int, seed: int) -> dict:
    """Equilibrium certificates, minimax consistency and the sink/connectivity
    verdicts for the essential subgame."""
    report = _report("nash", count, seed)
    rng = np.random.default_rng(seed)
    for g in game_corpus(rng, count):
        report["checked"] += 1
        cert = solve_nash(g)
        M = g.float_view
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
        ess = cert.essential
        if not ess.passed:
            _fail(
                report,
                g,
                f"essential subgame verdicts in_sink={ess.in_sink} "
                f"strongly_connected={ess.strongly_connected}",
            )
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
