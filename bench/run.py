"""qstc benchmark: one workload per run, every metric printed by name.

    python3 bench/run.py --workload sweep_window --seed 1 --seconds 30 --trace 0

Workloads are ``sweep_window``, ``sweep_fixed_T`` and ``analysis`` (see
bench/README.md for why each exists).  Set-up is timed in fresh processes;
the workload then runs in one more fresh process with BLAS threads pinned to
1.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a run that alternates untraced and traced passes.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH, "worker.py")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0

#: (name, unit, better) of the metrics printed with --trace 0
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("task_gmean_ms", "ms", "lower"),
    ("task_tail_ms", "ms", "lower"),
    ("evals_per_s", "1/s", "higher"),
    ("nli_mean", "nines", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def per_layer():
    """(name, unit, better) of the metrics printed with --trace 1."""
    out = []
    for fn in tracing.FUNCTIONS:
        out += [(f"{fn}.calls", "count", "lower"),
                (f"{fn}.self_ms", "ms", "lower"),
                (f"{fn}.total_ms", "ms", "lower")]
    out += [
        ("dynamics.transfer_probability.samples", "count", "lower"),
        ("design.pgt_search.scan_budget", "count", "lower"),
        ("optimize.optimize.generations", "count", "higher"),
        ("optimize.optimize.improving_gen_ratio", "ratio", "higher"),
        ("trace_overhead_s", "s", "lower"),
    ]
    return tuple(out)


def worker_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SWEEPS), default="full",
                        help="smoke: a few tasks per workload, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    deadline = time.monotonic() + TIME_LIMIT_S
    env = worker_env()
    common = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
              "--scale", args.scale]
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            proc = subprocess.run(common + ["--setup-only"], env=env, stdout=subprocess.DEVNULL,
                                  timeout=deadline - time.monotonic())
            setup_times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                return fail(f"set-up failed with exit code {proc.returncode}")
        result_path = os.path.join(
            OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        proc = subprocess.run(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--result", result_path],
            env=env, stdout=subprocess.DEVNULL, timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {TIME_LIMIT_S:g} s")
    if proc.returncode != 0:
        return fail(f"worker failed with exit code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    result["metrics"]["setup_s"] = statistics.median(setup_times)
    result["notes"]["setup_s"] = f"median of {SETUP_REPEATS} fresh processes"
    result["setup_times_s"] = setup_times
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)

    env_info = result["environment"]
    print(f"qstc benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"passes: {result['passes']}, tasks per pass: {result['tasks_per_pass']}, "
          f"checks: {result['checks']} ({len(result['failed_checks'])} failed)")
    for kind in ("failed_tasks", "failed_checks"):
        for line in result[kind][:20]:
            message = f"  FAILED {kind[7:-1].upper()} {line}"
            print(message)
            print(f"bench:{message}", file=sys.stderr)
    if args.trace:
        table, values = per_layer(), result["layers"]
        if result["absent"]:
            print("absent (no longer defined by qstc, read as 0): " + ", ".join(result["absent"]))
        objective = values["optimize.objective.calls"]
        if objective:
            print(f"dynamics.peak_search calls per optimize.objective call: "
                  f"{values['dynamics.peak_search.calls'] / objective:.4f}")
    else:
        table, values = END_TO_END, result["metrics"]
    for name, unit, better in table:
        note = result["notes"].get(name)
        print(f"{name} = {values[name]:.6g} {unit} ({better} is better"
              + (f"; {note})" if note else ")"))
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} failed of {attempted} tasks and "
          f"checks; lower is better)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in table},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
