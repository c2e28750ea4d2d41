"""Per-layer spans, recorded by wrapping zsflow's public functions from outside.

Nothing under ``src/`` changes: each traced function is replaced by a wrapper
in every zsflow namespace that holds a reference to it, including module-level
dicts such as ``verify._RUNNERS``, because modules import by name and a
reference left behind would bypass the wrapper.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from math import comb
from time import perf_counter

# Layer (zsflow module) -> public functions timed in it.
TRACED = {
    "game": ("load_game", "float_matrix"),
    "prefgraph": ("build_graph", "scc", "sink_component", "is_strongly_connected", "to_dot"),
    "content": ("content_of", "maximal_subgames"),
    "equilibrium": ("solve_nash", "essential_subgame", "verify_preference_nash"),
    "symmetrise": ("symmetrise", "sym_float_matrix", "check_weight_identity"),
    "dynamics": (
        "integrate",
        "integrate_batch",
        "lyapunov_rate",
        "check_embedding",
        "write_trajectory_csv",
        "write_trajectory_svg",
    ),
    "verify": (
        "verify_graph",
        "verify_symmetrisation",
        "verify_embedding",
        "verify_lyapunov",
        "verify_nash",
    ),
    "cli": ("main",),
}
# Spans whose call count is not reported: one per operation or scope.
SELF_ONLY = ("verify", "cli")
# Counts computed at layer boundaries, reported per operation.
COUNTS = (
    "prefgraph.arcs",
    "content.subsets_scanned",
    "equilibrium.support_pairs",
    "dynamics.steps",
    "dynamics.csv_bytes",
    "prefgraph.sink_uniqueness_errors",
    "dynamics.integration_errors",
)
_ERRORS = {
    "SinkUniquenessError": "prefgraph.sink_uniqueness_errors",
    "IntegrationError": "dynamics.integration_errors",
}


def span_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    """Spans kept in memory as (name, start, end, parent index, op id)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []  # [span index, seconds covered by child spans]
        self.op = None
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._solved: set = set()

    def start_op(self, op_id: int) -> None:
        self.op = op_id
        self._solved = set()

    def install(self) -> list:
        """Wrap every traced function; returns the names that were found."""
        mods = [m for name, m in sys.modules.items() if name == "zsflow" or name.startswith("zsflow.")]
        found = []
        for mod_name, fns in TRACED.items():
            mod = sys.modules.get(f"zsflow.{mod_name}")
            for fn in fns:
                orig = getattr(mod, fn, None)
                if orig is None:
                    continue
                found.append(f"{mod_name}.{fn}")
                wrapped = self._wrap(f"{mod_name}.{fn}", orig)
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)
                        elif isinstance(value, dict):
                            for k2, v2 in list(value.items()):
                                if v2 is orig:
                                    value[k2] = wrapped
        return found

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                key = _ERRORS.get(type(exc).__name__)
                if key:
                    self.counts[key] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans[idx] = (name, t0, t1, parent, self.op)
                self.calls[name] += 1
                self.self_s[name] += (t1 - t0) - frame[1]
            self._count(name, args, result)
            return result

        return wrapper

    def _count(self, name: str, args: tuple, result) -> None:
        if name == "prefgraph.build_graph":
            self.counts["prefgraph.arcs"] += len(result.arcs)
        elif name == "content.maximal_subgames":
            H, g = args[0], args[1]
            if not g.symmetric:
                self.counts["content.subsets_scanned"] += 2 ** len({p[0] for p in H})
        elif name in ("equilibrium.solve_nash", "equilibrium.essential_subgame"):
            g = args[0]
            # The enumeration is cached per game, so count each game once.
            if id(g) not in self._solved:
                self._solved.add(id(g))
                self.counts["equilibrium.support_pairs"] += sum(
                    comb(g.n, k) * comb(g.m, k) for k in range(1, min(g.n, g.m) + 1)
                )
        elif name == "dynamics.integrate_batch":
            self.counts["dynamics.steps"] += args[2].steps * len(args[1])
        elif name == "dynamics.write_trajectory_csv":
            self.counts["dynamics.csv_bytes"] += os.path.getsize(args[2])

    def write(self, path: str, ops: dict) -> None:
        """Write the operations table and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for op_id, meta in ops.items():
                fh.write(json.dumps({"op": op_id, **meta}) + "\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps([name, round(t0, 7), round(t1, 7), parent, op]) + "\n")
