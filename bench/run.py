"""zsflow benchmark: one seeded workload, measured in a fresh child process.

    python3 bench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Workloads: analyze, simulate, verify, attractor (see ``workloads.WHY``).
Run it from the root of a source checkout; zsflow is imported from ``src/``.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end ones: ``setup_s`` (median of several spawns, normalised),
``norm_op_s.p50`` and ``norm_op_s.p90`` over the cycle's operations,
``norm_games_per_s`` of one cycle and the child's ``peak_rss_mb``.  The
``norm_`` times are scaled to a nominal machine speed by a reference kernel
timed between the operations (see README.md).
With ``--trace 1`` the child wraps zsflow's public functions and the metrics
are per-layer calls, self time and computed counts, each a mean per
operation, plus the ``analyze_max_n`` capacity probe.  The lines before the
result are a run record: seed, rationale, versions and machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 5  # spawns per run; setup_s is their median
SETUP_REF_RUNS = 3  # reference kernel runs before each spawn, for setup_s
CHILD_LIMIT_S = 170.0
WAIT_NOTE = "not recorded: zsflow is single-threaded, so no layer waits on another"

PER_LAYER_UNITS = {
    ".calls": "count",
    ".self_s": "s",
    ".calls_per_game": "ratio",
    ".csv_bytes": "bytes",
    ".steps_per_s": "1/s",
}


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # One client thread: keep numpy's BLAS from starting a thread pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn_child(extra: list, timeout: float) -> tuple[float, int]:
    """Run child.py; returns (seconds from spawn to its 'ready' line, exit code)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT] + extra
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=_child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = -9
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready":
        return float("nan"), code if code else 2
    return ready, code


def trimmed_mean(values: list) -> float:
    """Mean without the lowest and highest tenth, so one stall moves nothing."""
    xs = sorted(values)
    k = len(xs) // 10
    return statistics.fmean(xs[k:len(xs) - k])


def percentile(values: list, q: float) -> float:
    """Linear-interpolated quantile q of values."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def analyze_max_n(seed: int, workdir: str) -> tuple[int, list]:
    """Largest ladder n whose analyze finishes and checks out within the limit."""
    import numpy as np

    rng = np.random.default_rng([seed, len(wl.WORKLOADS)])
    best, rungs = 0, []
    for n in wl.PROBE_LADDER:
        path = os.path.join(workdir, f"probe{n}.json")
        wl.write_game(path, wl.random_matrix(rng, n, n, -9, 9, False), False)
        cmd = [sys.executable, "-m", "zsflow.cli", "analyze", path, "--format", "json"]
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                                  timeout=wl.PROBE_LIMIT_S, cwd=workdir)
            problem = wl.check_analyze(path, proc.returncode, proc.stdout)
        except subprocess.TimeoutExpired:
            problem = f"over {wl.PROBE_LIMIT_S:g} s"
        rungs.append({"n": n, "s": round(perf_counter() - t0, 3), "problem": problem})
        if problem:
            break
        best = n
    return best, rungs


def run_record(args) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "why": wl.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client process, operations back to back",
        "commit": commit,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in (os.path.join("src", "zsflow", "cli.py"), os.path.join("games", "diamond.json")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"error: {need} not found under {ROOT}; run from a zsflow checkout",
                  file=sys.stderr)
            return 2

    record = run_record(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=OUT_DIR)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    try:
        setup, setup_ref = [], []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup_ref += [ref.reference_s() for _ in range(SETUP_REF_RUNS)]
                ready, code = spawn_child(["--mode", "setup"], 60.0)
                if code != 0:
                    print(f"error: set-up child exited {code}", file=sys.stderr)
                    return 3
                setup.append(ready)
            setup_ref += [ref.reference_s() for _ in range(SETUP_REF_RUNS)]
        out = os.path.join(workdir, "result.json")
        ready, code = spawn_child(
            ["--mode", "run", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir, "--spans", spans, "--out", out],
            CHILD_LIMIT_S,
        )
        if code != 0 or not os.path.exists(out):
            print(f"error: workload child exited {code}", file=sys.stderr)
            return 3
        setup.append(ready)
        with open(out, encoding="utf-8") as fh:
            res = json.load(fh)
        probe = analyze_max_n(args.seed, workdir) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["temp_outputs_removed"] = not os.path.exists(workdir)

    if not res["cycles"] or not all(res["slot_s"]):
        print(f"error: an operation never succeeded: {res['failures']}", file=sys.stderr)
        return 3
    # Each slot of the cycle is timed as its trimmed mean over the run's
    # cycles; the percentiles and the rate are taken over these slot times.
    op_s = [trimmed_mean(times) for times in res["slot_s"]]
    games_per_s = sum(res["slot_games"]) / sum(op_s)
    # The reference kernel ran between the same operations, so the ratio of
    # its nominal to its measured time takes out the machine's drift.
    ref_s = trimmed_mean(res["ref_s"])
    speed = ref.NOMINAL_S / ref_s
    norm_op_s = [t * speed for t in op_s]
    record["operations"] = {
        "attempted": res["attempted"],
        "cycles_timed": res["cycles"],
        "slot_s": dict(zip(res["labels"], op_s)),
        "failures": res["failures"],
    }
    record["reference"] = {"samples": len(res["ref_s"]), "mean_s": ref_s,
                           "nominal_s": ref.NOMINAL_S}
    record["raw"] = {"op_s.p50": percentile(op_s, 0.5), "op_s.p90": percentile(op_s, 0.9),
                     "games_per_s": games_per_s}
    if args.trace:
        record["per_layer_basis"] = "mean per operation; self time = span minus child spans"
        record["wait"] = WAIT_NOTE
        record["spans"] = {"count": res["spans"], "file": os.path.relpath(spans, ROOT)}
        record["analyze_max_n_rungs"] = probe[1]
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in res["per_layer"].items()}
        metrics["analyze_max_n"] = {"value": probe[0], "unit": "n"}
        metrics["fail_frac"] = {"value": res["failed"] / res["attempted"], "unit": "ratio"}
        metrics["trace.norm_op_s.p50"] = {"value": percentile(norm_op_s, 0.5), "unit": "s"}
        metrics["trace.norm_games_per_s"] = {"value": games_per_s / speed, "unit": "1/s"}
    else:
        record["setup_samples_s"] = setup
        setup_speed = ref.NOMINAL_S / trimmed_mean(setup_ref)
        metrics = {
            "setup_s": {"value": statistics.median(setup) * setup_speed, "unit": "s"},
            "norm_op_s.p50": {"value": percentile(norm_op_s, 0.5), "unit": "s"},
            "norm_op_s.p90": {"value": percentile(norm_op_s, 0.9), "unit": "s"},
            "norm_games_per_s": {"value": games_per_s / speed, "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
