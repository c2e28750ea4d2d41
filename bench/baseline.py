"""Regenerate ``bench/baseline.json``, a point of the performance trajectory.

    python3 bench/baseline.py --seed 1 --seconds 20

Runs every workload through ``run.py`` twice, untraced for the end-to-end
metrics and traced for the per-layer ones, and reads each traced run's span
file for milliseconds of self time per call at each game size.  The tracing
overhead is the traced result against the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402

# Spans below this share of a workload's traced self time are left out.
MIN_SHARE = 0.01


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    record, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(record)["run_record"], json.loads(result)


def layer_table(spans_path: str) -> dict:
    """Per span name and operation label: calls and mean self ms per call."""
    labels, spans = {}, []
    with open(spans_path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if isinstance(row, dict):
                labels[row["op"]] = row["label"]
            else:
                spans.append(row)
    covered = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    self_s: dict = defaultdict(lambda: defaultdict(list))
    for k, (name, t0, t1, _, op) in enumerate(spans):
        self_s[name][labels[op]].append(t1 - t0 - covered[k])
    total = sum(sum(map(sum, by_label.values())) for by_label in self_s.values())
    table = {}
    for name, by_label in sorted(self_s.items(), key=lambda kv: -sum(map(sum, kv[1].values()))):
        share = sum(map(sum, by_label.values())) / total
        if share < MIN_SHARE:
            continue
        table[name] = {
            "share": round(share, 4),
            "by_op": {
                label: {"calls": len(xs), "self_ms_per_call": round(1e3 * statistics.mean(xs), 4)}
                for label, xs in by_label.items()
            },
        }
    return table


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args()

    point = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in wl.WORKLOADS:
        record, plain = run(workload, args.seed, args.seconds, 0)
        _, traced = run(workload, args.seed, args.seconds, 1)
        e2e = {k: v["value"] for k, v in plain["metrics"].items()}
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        spans = os.path.join(ROOT, ".bench_out", f"spans-{workload}-seed{args.seed}.jsonl")
        point["machine"] = {k: record[k] for k in ("commit", "python", "numpy", "scipy", "nproc", "cpu")}
        point["workloads"][workload] = {
            "why": wl.WHY[workload],
            "correct": plain["correct"] and traced["correct"],
            "end_to_end": e2e,
            "tracing_overhead": {
                "norm_op_s.p50": layers["trace.norm_op_s.p50"] / e2e["norm_op_s.p50"] - 1.0,
                "norm_games_per_s": 1.0 - layers["trace.norm_games_per_s"] / e2e["norm_games_per_s"],
            },
            "per_layer": {k: v for k, v in layers.items() if v},
            "self_ms_by_op": layer_table(spans),
        }
        print(f"{workload}: done", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
