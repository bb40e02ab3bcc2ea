"""One benchmark run in a fresh process: set up, run passes, check the outputs.

``run.py`` starts this script with BLAS threads pinned to 1 and reads the JSON
file it writes.  With ``--setup-only`` it stops after set-up, which is how
``run.py`` times set-up in fresh processes.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
LIBRARY = ("cli", "chains", "spectral", "exact", "dynamics", "design", "optimize")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# task_tail_ms averages the slowest tenth of task latencies.  A percentile
# would jump between clusters of tasks with different budgets (fig3, fig4,
# fig5) when noise reorders the tasks at its rank; a mean over the tail moves
# smoothly.  The geometric mean stands in for the median for the same reason.
TAIL_SHARE = 0.1
MIN_PASSES = 2


def import_library():
    """Import qstc from this checkout's ``src/``, never from anywhere else.

    Importing every module here puts the library's import cost into set-up;
    the CLI would otherwise import them lazily inside the first task.
    """
    if not os.path.isfile(os.path.join(SRC, "qstc", "__init__.py")):
        raise SystemExit(f"bench: no qstc package under {SRC}")
    sys.path.insert(0, SRC)
    modules = {}
    for name in LIBRARY:
        try:
            modules[name] = importlib.import_module(f"qstc.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"qstc.{name}" or name == "cli":
                raise
    location = os.path.dirname(os.path.abspath(sys.modules["qstc"].__file__))
    if location != os.path.join(SRC, "qstc"):
        raise SystemExit(f"bench: qstc imported from {location}, not from {SRC}")
    return types.SimpleNamespace(**modules)


def blas_threads():
    """Thread counts reported by each OpenBLAS the process has loaded."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), f"{pkg.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            try:  # RTLD_NOLOAD: only look at a library that is already loaded
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[os.path.basename(path)] = fn()
                    break
    return found


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def environment():
    import numpy
    import scipy
    import sympy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
    }


def fresh_caches():
    """Clear sympy's cache so every pass pays what one CLI invocation pays."""
    import sympy.core.cache

    sympy.core.cache.clear_cache()


def run_passes(workload, seconds, tracer):
    """Passes until ``seconds`` would be exceeded; every other pass traced.

    The first pass's outputs are checked while they are still on disk; later
    passes are checked by comparing their outputs' digest with the first's.
    """
    passes, checks = [], []
    measured = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        fresh_caches()
        with tracer if traced else contextlib.nullcontext():
            result = workload.run_pass()
        passes.append((traced, result))
        measured += result.wall_s
        if len(passes) == 1:
            checks += workload.check(result)
        else:
            checks.append(workloads.Check(
                f"pass {len(passes)}{' (traced)' if traced else ''} outputs byte-identical "
                "to pass 1", result.digest == passes[0][1].digest))
        if len(passes) >= MIN_PASSES and measured * (1 + 1 / len(passes)) > seconds:
            return passes, checks


def end_to_end(untraced, first):
    latencies = sorted(t * 1e3 for p in untraced for t in p.latencies)
    tail = latencies[-math.ceil(TAIL_SHARE * len(latencies)):]
    evaluations = sum(p.evaluations for p in untraced)
    eval_seconds = sum(p.eval_seconds for p in untraced)
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "task_gmean_ms": statistics.geometric_mean(latencies),
        "task_tail_ms": statistics.fmean(tail),
        "evals_per_s": evaluations / eval_seconds if eval_seconds else 0.0,
        "nli_mean": statistics.fmean(first.quality) if first.quality else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "wall_s": f"median of {len(untraced)} passes",
        "task_gmean_ms": f"{len(latencies)} tasks",
        "task_tail_ms": f"mean of the slowest {len(tail)} of {len(latencies)} tasks",
        "evals_per_s": f"{evaluations} evaluations in {eval_seconds:.3f} s of tasks",
        "nli_mean": f"mean of {len(first.quality)} results",
    }
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SWEEPS), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", help="JSON file to write the run's results to")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    lib = import_library()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = workloads.WORKLOADS[args.workload](lib, args.seed, args.scale, workdir)
        setup_s = time.perf_counter() - start
        if args.setup_only:
            return 0
        tracer = tracing.Tracer() if args.trace else None
        passes, checks = run_passes(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = passes[0][1]
    untraced = [p for traced, p in passes if not traced]
    metrics, notes = end_to_end(untraced, first)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "passes": len(passes),
        "pass_wall_s": [[p.wall_s, traced] for traced, p in passes],
        "tasks_per_pass": first.tasks,
        "attempted": sum(p.tasks for _, p in passes) + len(checks),
        "failed": sum(p.failed for _, p in passes) + sum(not c.ok for c in checks),
        "failed_checks": [f"{c.name}: {c.detail}" for c in checks if not c.ok],
        "failed_tasks": [f"pass {i}: {line}" for i, (_, p) in enumerate(passes, 1)
                         for line in p.errors],
        "checks": len(checks),
        "setup_in_worker_s": setup_s,
        "metrics": metrics,
        "notes": notes,
        "environment": environment(),
    }
    if tracer is not None:
        traced = [p for t, p in passes if t]
        layers = tracer.summary(passes=len(traced))
        layers["trace_overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                      - metrics["wall_s"])
        result["layers"] = layers
        result["absent"] = tracer.absent
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}.json"))
    if args.result:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
