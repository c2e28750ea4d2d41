"""Benchmark child process: one closed-loop client of zsflow.

Set-up is ``import zsflow`` plus one untimed ``analyze`` of the bundled diamond
game; the child prints ``ready`` when it is done, and the parent times the
interval from spawn to that line.  In ``run`` mode the child then issues the
workload's operations back to back: one untimed warm-up cycle, then timed
cycles until ``--seconds`` have passed, finishing the cycle it is in.  It
checks every output outside the timed region and writes its result, the
seconds of every slot in every timed cycle, as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import workloads as wl
from reference import reference_s
from tracer import COUNTS, SELF_ONLY, Tracer, span_names

# Reference kernel time as a share of timed operation time.
REF_SHARE = 0.2


def _run_cli(cli, argv: list) -> tuple[int, str, float]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        code = cli.main(argv)
        dt = perf_counter() - t0
    return code, out.getvalue(), dt


def _run_op(zsflow, cli, op: wl.Op) -> tuple[str | None, float]:
    """Time one operation, then check its output; returns (problem, seconds)."""
    if op.kind == "attractor":
        t0 = perf_counter()
        g = zsflow.load_game(op.game_path)
        sink = zsflow.sink_component(zsflow.build_graph(g))
        content = zsflow.content_of(sink, g)
        dt = perf_counter() - t0
        return wl.check_attractor(op, sink, content.subgames), dt
    code, out, dt = _run_cli(cli, op.argv)
    if op.kind == "analyze":
        return wl.check_analyze(op.game_path, code, out, op.dot_path), dt
    if op.kind == "simulate":
        return wl.check_simulate(op, code, out), dt
    return wl.check_verify(op.size, code, out), dt


def _remove(*paths) -> None:
    for path in paths:
        if path and os.path.exists(path):
            os.remove(path)


def _per_layer(tracer, n_ops: int, games: int, busy_s: float) -> dict:
    metrics = {}
    for name in span_names():
        if name.split(".")[0] not in SELF_ONLY:
            metrics[f"{name}.calls"] = tracer.calls[name] / n_ops
        metrics[f"{name}.self_s"] = tracer.self_s[name] / n_ops
    for key in COUNTS:
        metrics[key] = tracer.counts[key] / n_ops
    metrics["prefgraph.build_graph.calls_per_game"] = (
        tracer.calls["prefgraph.build_graph"] / games if games else 0.0
    )
    metrics["dynamics.steps_per_s"] = tracer.counts["dynamics.steps"] / busy_s if busy_s else 0.0
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--spans")
    ap.add_argument("--out")
    args = ap.parse_args()

    import zsflow
    from zsflow import cli

    src = os.path.join(os.path.realpath(args.root), "src")
    if not os.path.realpath(zsflow.__file__).startswith(src + os.sep):
        print(f"zsflow imported from {zsflow.__file__}, not from {src}", file=sys.stderr)
        return 2
    diamond = os.path.join(args.root, "games", "diamond.json")
    code, _, _ = _run_cli(cli, ["analyze", diamond, "--format", "json"])
    if code != 0:
        print(f"warm-up analyze exited {code}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    factory = wl.OpFactory(args.workload, args.seed, args.workdir, os.path.join(args.root, "games"))
    specs = wl.cycle(args.workload)
    slot_s: list = [[] for _ in specs]  # timed seconds of each slot, one per cycle
    slot_games = [0] * len(specs)
    ref_s: list = []  # reference kernel seconds, timed between operations
    timed_s = 0.0
    ops_meta: dict = {}
    failures: list = []
    games = 0
    cycles = 0
    start = None
    while True:
        # The first cycle warms up the code paths and is checked but not timed.
        warm_up = start is None
        for slot, spec in enumerate(specs):
            op_id = len(ops_meta)
            ops_meta[op_id] = {"label": str(spec), "slot": slot, "timed": not warm_up}
            op = None
            try:
                op = factory.make(spec)
                ops_meta[op_id].update(label=op.label, size=op.size)
                if tracer:
                    tracer.start_op(op_id)
                problem, dt = _run_op(zsflow, cli, op)
            except Exception:  # an operation that raises counts as failed; keep going
                problem, dt = traceback.format_exc(limit=3), None
            finally:
                if op is not None:
                    _remove(op.csv_path, op.svg_path, op.dot_path)
            ops_meta[op_id]["s"] = dt
            if problem is not None:
                failures.append(f"op {op_id} ({ops_meta[op_id]['label']}): {problem}")
                continue
            games += op.games
            slot_games[slot] = op.games
            if not warm_up:
                slot_s[slot].append(dt)
                timed_s += dt
                # Sample the machine's speed in step with the operations.
                while sum(ref_s) < REF_SHARE * timed_s:
                    ref_s.append(reference_s())
        if warm_up:
            start = perf_counter()
            continue
        cycles += 1
        if perf_counter() - start >= args.seconds:
            break

    result = {
        "slot_s": slot_s,
        "labels": [ops_meta[i]["label"] for i in range(len(specs))],
        "slot_games": slot_games,
        "ref_s": ref_s,
        "attempted": len(ops_meta),
        "failed": len(failures),
        "failures": failures[:5],
        "cycles": cycles,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        busy_s = sum(meta["s"] or 0.0 for meta in ops_meta.values())
        result["per_layer"] = _per_layer(tracer, len(ops_meta), games, busy_s)
        result["spans"] = len(tracer.spans)
        tracer.write(args.spans, ops_meta)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
