"""Smoke test for the benchmark's own code.

Runs every workload at ``--scale smoke``, untraced and traced, and checks the
printed metric names and units against BENCHMARK.json.  Run with
``python3 -m pytest -q bench/test_bench.py``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracing  # noqa: E402


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in benchmark_spec()["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in table]
    for m in table:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = f"{m['name']} = "
        assert any(line.startswith(printed) and f" {m['unit']} ({m['better']} is better" in line
                   for line in lines), printed


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(str(tmp_path), "--workload", "analysis", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_records_missing_functions_as_absent():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from qstc import chains

    functions = ("chains.homogeneous_chain", "chains.no_such_function", "no_such_module.f")
    tracer = tracing.Tracer(functions=functions)
    with tracer:
        chains.homogeneous_chain(8)
    assert tracer.absent == ["chains.no_such_function", "no_such_module.f"]
    summary = tracer.summary()
    assert summary["chains.homogeneous_chain.calls"] == 1
    assert summary["chains.no_such_function.calls"] == 0
    assert chains.homogeneous_chain.__module__ == "qstc.chains"
    assert not hasattr(chains.homogeneous_chain, "__wrapped__")
