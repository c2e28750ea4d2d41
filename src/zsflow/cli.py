"""Command line interface.

    zsflow analyze GAME [--dot PATH]
    zsflow simulate GAME [--start SPEC] [--horizon T] [--step H] [--csv PATH] [--svg PATH]
    zsflow verify [--scope SCOPE] [--count N]
    zsflow symmetrise GAME [--out PATH]

Common flags (per command): --seed, --out-dir, --format {text,json}.
Exit codes: 0 success, 2 input or usage error, 3 invariant violation or
failed verification.  All outputs are deterministic for a fixed command line
and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .content import content_of, content_to_dict
from .dynamics import (
    IntegrationError,
    IntegratorConfig,
    integrate,
    write_trajectory_csv,
    write_trajectory_svg,
)
from .equilibrium import NoEquilibriumError, certificate_to_dict, solve_nash
from .game import (
    Game,
    GameFormatError,
    MixedProfile,
    game_to_json,
    load_game,
    mixed,
    uniform_profile,
)
from .prefgraph import SinkUniquenessError, build_graph, scc, sink_component, to_dot
from .sampling import random_mixed_profile
from .symmetrise import symmetrise
from .verify import SCOPES, run_scope

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VIOLATION = 3


@functools.cache  # parse_args leaves the parser as it is
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42, help="random seed (default 42)")
    common.add_argument("--out-dir", default=".", help="directory for emitted files")
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="zsflow",
        description="Preference graphs, sink attractors and replicator dynamics "
        "for two-player zero-sum games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="graph, sink, attractor and equilibrium report")
    p.add_argument("game", help="game JSON file")
    p.add_argument("--dot", metavar="PATH", help="write the preference graph in DOT format")

    p = sub.add_parser("simulate", parents=[common], help="integrate the replicator flow")
    p.add_argument("game", help="game JSON file")
    p.add_argument(
        "--start",
        default="uniform",
        help="'uniform', 'random', or explicit weights like '0.2,0.8' "
        "(two players separated by ';')",
    )
    p.add_argument("--horizon", type=float, default=200.0)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--csv", metavar="PATH", help="trajectory CSV path (default <out-dir>/<game>_trajectory.csv)")
    p.add_argument("--svg", metavar="PATH", help="also write a polyline chart")

    p = sub.add_parser("verify", parents=[common], help="run seeded invariant fuzz suites")
    p.add_argument("--scope", choices=("all",) + SCOPES, default="all")
    p.add_argument("--count", type=int, default=100, help="games per scope (default 100)")

    p = sub.add_parser("symmetrise", parents=[common], help="write the symmetrised game file")
    p.add_argument("game", help="non-symmetric game JSON file")
    p.add_argument("--out", metavar="PATH", help="output path (default <out-dir>/<game>_symmetrised.json)")

    return parser


def _emit(manifest: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(manifest, indent=2))
    else:
        for line in text_lines:
            print(line)


def _parse_start(spec: str, g: Game, seed: int) -> MixedProfile:
    if spec == "uniform":
        return uniform_profile(g)
    if spec == "random":
        return random_mixed_profile(np.random.default_rng(seed), g)
    groups = spec.split(";")
    if len(groups) != len(g.blocks):
        raise ValueError(
            f"start must have {len(g.blocks)} weight group(s) for this game, got {len(groups)}"
        )
    try:
        vectors = [np.array([float(v) for v in grp.split(",")]) for grp in groups]
    except ValueError as exc:
        raise ValueError(f"cannot parse start weights {spec!r}") from exc
    return mixed(*vectors)


def _check_parents(*paths: str | None) -> None:
    """Fail before any work or write unless each output path's parent is a directory."""
    for path in filter(None, paths):
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise NotADirectoryError(f"cannot write {path}: {parent} is not an existing directory")


def _analyze(args) -> int:
    g = load_game(args.game)
    _check_parents(args.dot)
    pg = build_graph(g)
    part = scc(pg)
    sink = sink_component(pg)  # raises SinkUniquenessError on violation
    cont = content_of(sink, g)
    cert = solve_nash(g, pg)
    nash_check = cert.essential
    report = {
        "game": {
            "path": args.game,
            "mode": g.mode,
            "rows": g.n,
            "cols": g.m,
            "row_labels": list(g.row_labels),
            "col_labels": list(g.col_labels),
        },
        "graph": {
            "nodes": len(pg.nodes),
            "arcs": pg.arc_count,
            "zero_weight_arc_pairs": part.ties,
            "components": len(part.components),
            "component_sizes": [len(c) for c in part.components],
        },
        "sink": {
            "size": len(sink),
            "profiles": sorted(g.profile_name(p) for p in sink),
        },
        "attractor_is_full_space": len(sink) == len(pg.nodes),
        "content": content_to_dict(cont, g),
        "nash": certificate_to_dict(cert, g),
        "preference_nash": {
            "in_sink": nash_check.in_sink,
            "strongly_connected": nash_check.strongly_connected,
            "zero_weight_arc_pairs": nash_check.zero_weight_arc_pairs,
        },
    }
    outputs = []
    if args.dot:
        path = args.dot
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_dot(pg))
        outputs.append(path)
    passed = nash_check.passed
    manifest = {
        "command": "analyze",
        "input": args.game,
        "seed": args.seed,
        "outputs": outputs,
        "report": report,
        "passed": passed,
    }
    sub_text = "; ".join(
        "x".join("{" + ",".join(labels) + "}" for labels in sg.values())
        for sg in report["content"]["maximal_subgames"]
    )
    lines = [
        f"game: {g.n}x{g.m} {g.mode} ({args.game})",
        f"preference graph: {len(pg.nodes)} nodes, {pg.arc_count} arcs, "
        f"{part.ties} tied pair(s), {len(part.components)} component(s)",
        f"sink component ({len(sink)}/{len(pg.nodes)} profiles): "
        + " ".join(report["sink"]["profiles"]),
        "attractor: "
        + ("whole strategy space" if report["attractor_is_full_space"] else sub_text),
        f"nash value: {cert.game_value:.12g}",
        "equilibrium: "
        + " | ".join(
            "(" + ", ".join(f"{v:.6g}" for v in vec) + ")"
            for vec in cert.equilibrium.vectors
        ),
        f"checks: support in sink {'PASS' if nash_check.in_sink else 'FAIL'}; "
        f"support strongly connected {'PASS' if nash_check.strongly_connected else 'FAIL'}",
    ]
    if outputs:
        lines.append(f"wrote: {', '.join(outputs)}")
    _emit(manifest, args.format, lines)
    return EXIT_OK if passed else EXIT_VIOLATION


def _simulate(args) -> int:
    g = load_game(args.game)
    cfg = IntegratorConfig(step=args.step, horizon=args.horizon)
    z0 = _parse_start(args.start, g, args.seed)
    stem = os.path.splitext(os.path.basename(args.game))[0]
    csv_path = args.csv or os.path.join(args.out_dir, f"{stem}_trajectory.csv")
    _check_parents(csv_path, args.svg)
    tr = integrate(g, z0, cfg)
    write_trajectory_csv(tr, g, csv_path)
    outputs = [csv_path]
    if args.svg:
        write_trajectory_svg(tr, args.svg)
        outputs.append(args.svg)
    support_products = [
        {
            "initial": float(np.prod(s[0][s[0] > 0])),
            "final": float(np.prod(s[-1][s[-1] > 0])),
        }
        for s in tr.states
    ]
    manifest = {
        "command": "simulate",
        "input": args.game,
        "seed": args.seed,
        "config": {
            "start": args.start,
            "horizon": args.horizon,
            "step": args.step,
            "method": "rk4-log",
        },
        "outputs": outputs,
        "result": {
            "samples": len(tr),
            "final_time": float(tr.times[-1]),
            "final_sink_mass": float(tr.mass[-1]),
            "final_dist_content": float(tr.dist[-1]),
            "final_payoff": float(tr.payoff[-1]),
            "support_product_per_player": support_products,
        },
        "passed": True,
    }
    lines = [
        f"game: {g.n}x{g.m} {g.mode} ({args.game})",
        f"integrated {len(tr) - 1} steps of {args.step:g} "
        f"(rk4-log), horizon {args.horizon:g}",
        f"final x_H = {float(tr.mass[-1]):.9f}  (dist_content = {float(tr.dist[-1]):.3e})",
        f"final payoff = {float(tr.payoff[-1]):.9g}",
        f"wrote: {', '.join(outputs)}",
    ]
    _emit(manifest, args.format, lines)
    return EXIT_OK


def _verify(args) -> int:
    if args.count < 0:
        raise ValueError("--count must be non-negative")
    if args.count == 0:
        print("warning: --count 0 checks nothing; vacuous pass", file=sys.stderr)
    reports = run_scope(args.scope, args.count, args.seed)
    outputs = []
    passed = all(r["passed"] for r in reports)
    for r in reports:
        ce = r.pop("counterexample")
        if ce is not None:
            os.makedirs(args.out_dir, exist_ok=True)
            path = os.path.join(args.out_dir, f"counterexample_{r['scope']}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(ce, fh, indent=2)
                fh.write("\n")
            outputs.append(path)
    manifest = {
        "command": "verify",
        "input": None,
        "seed": args.seed,
        "config": {"scope": args.scope, "count": args.count},
        "outputs": outputs,
        "result": reports,
        "passed": passed,
    }
    lines = []
    for r in reports:
        status = "PASS" if r["passed"] else "FAIL"
        extra = ""
        if r["detail"]:
            extra = "  (" + ", ".join(f"{k}={v}" for k, v in r["detail"].items()) + ")"
        lines.append(f"{r['scope']}: {status}  checked {r['checked']} game(s){extra}")
        for msg in r["failures"]:
            lines.append(f"  failure: {msg}")
    lines.append("verification " + ("PASS" if passed else "FAIL"))
    if outputs:
        lines.append(f"wrote: {', '.join(outputs)}")
    _emit(manifest, args.format, lines)
    return EXIT_OK if passed else EXIT_VIOLATION


def _symmetrise(args) -> int:
    g = load_game(args.game)
    stem = os.path.splitext(os.path.basename(args.game))[0]
    path = args.out or os.path.join(args.out_dir, f"{stem}_symmetrised.json")
    _check_parents(path)
    sg = symmetrise(g)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(game_to_json(sg))
    manifest = {
        "command": "symmetrise",
        "input": args.game,
        "seed": args.seed,
        "outputs": [path],
        "result": {"profiles": sg.n},
        "passed": True,
    }
    lines = [
        f"symmetrised {g.n}x{g.m} game into {sg.n} profile strategies",
        f"wrote: {path}",
    ]
    _emit(manifest, args.format, lines)
    return EXIT_OK


_COMMANDS = {
    "analyze": _analyze,
    "simulate": _simulate,
    "verify": _verify,
    "symmetrise": _symmetrise,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GameFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        # an allocation that fails, where no size cap refused the input first
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SinkUniquenessError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except NoEquilibriumError as exc:
        print(f"nash solving failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
