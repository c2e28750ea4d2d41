"""Seeded inputs, operation schedules and output checks for the benchmark.

Games are drawn here with numpy's PCG64 generator, not with
``zsflow.sampling``, so a change to the library cannot change the workload.
Every check recomputes what it needs from the game file or the raw output; none
of them calls the zsflow code being timed.

A workload is a fixed *cycle* of operation specs, its slots.  A run repeats
whole cycles until its time is up, so every run measures the same mix of sizes
and only the payoffs differ with the seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# Fixed game sizes: the size mix decides which layer dominates, so it is part
# of the workload definition and does not vary with the seed.  A cycle takes
# about 2 s, so a 20 s run times every operation of it about ten times and
# each operation's time is an average over cycles.
ANALYZE_SIZES = (2, 3, 4, 5, 6, 7, 8)  # generic non-symmetric games
ANALYZE_SYM_SIZES = (3, 4, 5, 6, 7)  # generic symmetric games
ANALYZE_TIE_SIZES = (3, 4, 5, 6)  # tie-heavy games, both modes
SIMULATE_HORIZON = 10.0
SIMULATE_STEP = 0.01  # the CLI default
# (scope, games per operation): cheap scopes check more games, so that every
# operation's time averages over enough randomly sized games.  The nash scope
# is left out: its time is set by the few 7-strategy symmetric games that
# zsflow's own sampler draws per operation, a number that varies with the
# seed, and the analyze workload times support enumeration already.
VERIFY_SCOPES = (("graph", 100), ("symmetrisation", 60), ("embedding", 40), ("lyapunov", 60))
PLANTED = ((20, 8), (30, 10), (40, 12))  # (n, planted block size k)
FULL_SINK_ROWS = (12, 14, 15)
PROBE_LADDER = (4, 6, 8, 10, 12, 16, 20, 30, 50, 100)
PROBE_LIMIT_S = 5.0

NASH_TOL = 1e-7
# x_H is a float sum of products; it can round one ulp past 1.
MASS_TOL = 1e-12

WHY = {
    "analyze": "analyze --format json on 2-8 strategy square and symmetric games, "
    "generic and tie-heavy payoffs; support enumeration in equilibrium dominates",
    "simulate": f"simulate --start random --horizon {SIMULATE_HORIZON:g} on bundled and "
    "random 5-30 strategy games; the RK4 integrator and CSV writer in dynamics dominate",
    "verify": "verify --count 40-100 on the graph, symmetrisation, embedding and lyapunov "
    "scopes, a new seed each; many tiny games, so per-call overhead dominates",
    "attractor": "load_game, build_graph, sink_component, content_of on planted-sink "
    "20-40 games and full-sink 12-15 row games; prefgraph and content dominate",
}
WORKLOADS = tuple(WHY)


@dataclass
class Op:
    """One operation: a CLI argv or an attractor pipeline call on one game."""

    kind: str
    label: str
    size: int  # strategies per side; for verify, games per scope
    games: int
    argv: list = field(default_factory=list)
    game_path: str | None = None
    csv_path: str | None = None
    svg_path: str | None = None
    dot_path: str | None = None
    block: tuple | None = None  # planted (rows, cols) for attractor games


# --------------------------------------------------------------------- games


def _labels(n: int, prefix: str) -> list:
    return [f"{prefix}{i}" for i in range(n)]


def write_game(path: str, matrix: np.ndarray, symmetric: bool) -> None:
    n, m = matrix.shape
    data = {
        "mode": "symmetric" if symmetric else "non-symmetric",
        "matrix": [[int(v) for v in row] for row in matrix],
        "row_labels": _labels(n, "s"),
        "col_labels": _labels(n, "s") if symmetric else _labels(m, "t"),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def read_game(path: str) -> tuple[np.ndarray, bool]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return np.array(data["matrix"], dtype=float), data["mode"] == "symmetric"


def random_matrix(rng, n: int, m: int, low: int, high: int, symmetric: bool) -> np.ndarray:
    if symmetric:
        k = rng.integers(low, high + 1, size=(n, n))
        return np.triu(k, 1) - np.triu(k, 1).T
    return rng.integers(low, high + 1, size=(n, m))


def planted_matrix(rng, n: int, k: int) -> tuple[np.ndarray, tuple]:
    """An n x n game whose sink is a random k x k block.

    The block is a full-sink game (see ``full_sink_matrix``), so the sink is
    the whole block and its cost does not vary with the seed.  Outside rows
    lose to every block row in block columns, and outside columns lose to
    every block column in block rows, so every profile reaches the block and
    no arc leaves it.
    """
    rows = np.sort(rng.choice(n, size=k, replace=False))
    cols = np.sort(rng.choice(n, size=k, replace=False))
    M = rng.integers(-99, 100, size=(n, n))
    out_r = np.setdiff1d(np.arange(n), rows)
    out_c = np.setdiff1d(np.arange(n), cols)
    M[np.ix_(rows, cols)] = full_sink_matrix(rng, k)
    M[np.ix_(out_r, cols)] = -200 - rng.integers(0, 4, size=(out_r.size, k))
    M[np.ix_(rows, out_c)] = 200 + rng.integers(0, 4, size=(k, out_c.size))
    return M, (tuple(int(i) for i in rows), tuple(int(j) for j in cols))


def full_sink_matrix(rng, n: int) -> np.ndarray:
    """An n x n game whose preference graph is strongly connected.

    The diagonal is the strict maximum of its row and column: from (i, i) the
    column player reaches all of row i, and from (i, j) the row player
    reaches (j, j).
    """
    M = rng.integers(-99, 100, size=(n, n))
    M[np.diag_indices(n)] = rng.choice(np.arange(100, 200), size=n, replace=False)
    return M


# ----------------------------------------------------------------- schedules


def cycle(workload: str) -> list[dict]:
    """The fixed operation specs of one cycle of a workload."""
    if workload == "analyze":
        # A symmetric 2x2 game is one payoff, too few games to never repeat.
        return (
            [{"n": n, "symmetric": False, "high": 9} for n in ANALYZE_SIZES]
            + [{"n": n, "symmetric": True, "high": 9} for n in ANALYZE_SYM_SIZES]
            + [{"n": n, "symmetric": sym, "high": 2}
               for sym in (False, True) for n in ANALYZE_TIE_SIZES]
        )
    if workload == "simulate":
        return [
            {"bundled": "matching_pennies", "svg": True},
            {"bundled": "rock_paper_scissors", "svg": False},
            {"bundled": "diamond", "svg": True},
            {"n": 5, "symmetric": False, "svg": False},
            {"n": 12, "symmetric": False, "svg": True},
            {"n": 30, "symmetric": False, "svg": False},
            {"n": 9, "symmetric": True, "svg": True},
            {"n": 30, "symmetric": True, "svg": False},
        ]
    if workload == "verify":
        return [{"scope": scope, "count": count} for scope, count in VERIFY_SCOPES]
    if workload == "attractor":
        return [{"planted": n, "block": k} for n, k in PLANTED] + [
            {"full": n} for n in FULL_SINK_ROWS
        ]
    raise ValueError(f"unknown workload {workload!r}")


class OpFactory:
    """Turns cycle specs into operations with fresh seeded games.

    Game files go to ``workdir``; no game repeats within one factory, because
    zsflow caches Nash and float-matrix results on the value of a game.
    """

    def __init__(self, workload: str, seed: int, workdir: str, games_dir: str) -> None:
        self.workload = workload
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.seed = seed
        self.workdir = workdir
        self.games_dir = games_dir
        self.seen: set = set()
        self.count = 0

    def _fresh(self, draw, symmetric: bool = False) -> np.ndarray:
        for _ in range(10000):
            M = draw()
            key = (symmetric, M.shape, M.tobytes())
            if key not in self.seen:
                self.seen.add(key)
                return M
        raise RuntimeError("no unseen game left for this operation spec")

    def make(self, spec: dict) -> Op:
        k = self.count
        self.count += 1
        path = os.path.join(self.workdir, f"op{k}.json")
        rng = self.rng
        if self.workload == "analyze":
            n, sym, high = spec["n"], spec["symmetric"], spec["high"]
            M = self._fresh(lambda: random_matrix(rng, n, n, -high, high, sym), sym)
            write_game(path, M, sym)
            kind = "sym" if sym else "nonsym"
            argv = ["analyze", path, "--format", "json"]
            dot = None
            if high == 9:
                dot = os.path.join(self.workdir, f"op{k}.dot")
                argv += ["--dot", dot]
            return Op("analyze", f"{kind} {n} [-{high},{high}]", n, 1, argv,
                      game_path=path, dot_path=dot)
        if self.workload == "simulate":
            if "bundled" in spec:
                path = os.path.join(self.games_dir, spec["bundled"] + ".json")
                n = read_game(path)[0].shape[0]
                label = spec["bundled"]
            else:
                n, sym = spec["n"], spec["symmetric"]
                M = self._fresh(lambda: random_matrix(rng, n, n, -9, 9, sym), sym)
                write_game(path, M, sym)
                label = f"{'sym' if sym else 'nonsym'} {n}"
            csv = os.path.join(self.workdir, f"op{k}.csv")
            argv = ["simulate", path, "--start", "random", "--horizon", f"{SIMULATE_HORIZON:g}",
                    "--seed", str(int(rng.integers(2**31))), "--csv", csv, "--format", "json"]
            svg = None
            if spec["svg"]:
                svg = os.path.join(self.workdir, f"op{k}.svg")
                argv += ["--svg", svg]
            return Op("simulate", label, n, 1, argv, game_path=path, csv_path=csv, svg_path=svg)
        if self.workload == "verify":
            scope, count = spec["scope"], spec["count"]
            op_seed = self.seed * 100003 + k
            argv = ["verify", "--scope", scope, "--count", str(count), "--seed", str(op_seed),
                    "--out-dir", self.workdir, "--format", "json"]
            return Op("verify", f"{scope} x{count}", count, count, argv)
        if "planted" in spec:
            n, kb = spec["planted"], spec["block"]
            holder = {}

            def draw():
                M, holder["block"] = planted_matrix(rng, n, kb)
                return M

            M = self._fresh(draw)
            write_game(path, M, False)
            return Op("attractor", f"planted {n} block {kb}", n, 1, game_path=path,
                      block=holder["block"])
        n = spec["full"]
        M = self._fresh(lambda: full_sink_matrix(rng, n))
        write_game(path, M, False)
        return Op("attractor", f"full {n}", n, 1, game_path=path,
                  block=(tuple(range(n)), tuple(range(n))))


# -------------------------------------------------------------------- checks


def out_neighbours(M: np.ndarray, symmetric: bool, p) -> list:
    """Profiles the preference graph points to from p, read off the matrix."""
    if symmetric:
        return [q for q in range(M.shape[0]) if q != p and M[p, q] <= 0]
    i, j = p
    rows = [(r, j) for r in range(M.shape[0]) if r != i and M[r, j] >= M[i, j]]
    cols = [(i, c) for c in range(M.shape[1]) if c != j and M[i, c] <= M[i, j]]
    return rows + cols


def sink_problem(M: np.ndarray, symmetric: bool, sink: set) -> str | None:
    """Why ``sink`` is not a closed, strongly connected profile set, or None."""
    if not sink:
        return "empty sink"
    out = {p: out_neighbours(M, symmetric, p) for p in sink}
    for p, qs in out.items():
        for q in qs:
            if q not in sink:
                return f"arc {p} -> {q} leaves the sink"
    start = next(iter(sorted(sink)))
    for adj in (out, _reverse(out)):
        seen = {start}
        todo = [start]
        while todo:
            for q in adj.get(todo.pop(), ()):
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
        if seen != sink:
            return "sink is not strongly connected"
    return None


def _reverse(out: dict) -> dict:
    rev: dict = {p: [] for p in out}
    for p, qs in out.items():
        for q in qs:
            rev[q].append(p)
    return rev


def _profile(name: str, symmetric: bool):
    if symmetric:
        return int(name[1:])
    r, c = name.split(",")
    return int(r[1:]), int(c[1:])


def check_analyze(game_path: str, code: int, out: str, dot_path: str | None = None) -> str | None:
    if code != 0:
        return f"exit code {code}"
    manifest = json.loads(out)
    if manifest.get("passed") is not True:
        return "report not passed"
    if dot_path is not None:
        with open(dot_path, encoding="utf-8") as fh:
            if not fh.readline().startswith("digraph"):
                return "DOT file does not start with a digraph"
    M, sym = read_game(game_path)
    report = manifest["report"]
    vecs = [np.array(v) for v in report["nash"]["equilibrium"]]
    v = report["nash"]["game_value"]
    for x in vecs:
        if np.any(x < -NASH_TOL) or abs(x.sum() - 1.0) > NASH_TOL:
            return "equilibrium is not a mixed strategy"
    if sym:
        (x,) = vecs
        residual = max(float(np.max(M @ x)), abs(v))
    else:
        x, y = vecs
        residual = max(abs(float(np.max(M @ y)) - v), abs(float(np.min(M.T @ x)) - v))
    if residual > NASH_TOL:
        return f"minimax residual {residual:g}"
    sink = {_profile(s, sym) for s in report["sink"]["profiles"]}
    return sink_problem(M, sym, sink)


def check_simulate(op: Op, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    manifest = json.loads(out)
    with open(op.csv_path, encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    want = math.ceil(SIMULATE_HORIZON / SIMULATE_STEP) + 1
    if rows != want:
        return f"CSV has {rows} data rows, expected {want}"
    x_h = manifest["result"]["final_sink_mass"]
    if not -MASS_TOL <= x_h <= 1.0 + MASS_TOL:
        return f"final x_H {x_h!r} outside [0, 1]"
    if op.svg_path is not None and os.path.getsize(op.svg_path) == 0:
        return "empty SVG"
    return None


def check_verify(count: int, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    reports = json.loads(out)["result"]
    if len(reports) != 1:
        return f"{len(reports)} scopes reported"
    for r in reports:
        if not r["passed"] or r["checked"] != count:
            return f"scope {r['scope']} passed={r['passed']} checked={r['checked']}"
    return None


def check_attractor(op: Op, sink, subgames) -> str | None:
    M, _ = read_game(op.game_path)
    sink = set(sink)
    rows, cols = op.block
    if sink != {(i, j) for i in rows for j in cols}:
        return "sink is not the planted block"
    problem = sink_problem(M, False, sink)
    if problem:
        return problem
    if not subgames:
        return "no maximal subgame"
    for sg_rows, sg_cols in subgames:
        if not all((i, j) in sink for i in sg_rows for j in sg_cols):
            return f"subgame {sg_rows}x{sg_cols} is not inside the sink"
    return None
