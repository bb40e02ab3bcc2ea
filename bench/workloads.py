"""The benchmark's workloads: seeded inputs, one pass over a fixed task list,
and the checks on what a pass wrote.

Every task goes through ``cli.main`` looked up on the module at call time, so a
traced run sees the CLI layer and everything below it.  A sweep task is one
optimization problem, timed around its ``optimize.optimize`` call; an analysis
task is one CLI command.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

# Published Table 2 of the source paper: highest factor degree for k = 1..30,
# and the solvable-sequence tag where the paper gives one.
TABLE2_DEGREES = (
    2, 2, 2, 2, 3, 2, 3, 2, 5, 2, 6, 3, 2, 2, 8, 3, 9, 2, 6, 5,
    11, 2, 10, 6, 3, 3, 14, 2, 15, 2,
)
TABLE2_TAGS = {
    1: "S8", 2: "S5", 3: "S14", 4: "S8", 6: "S5", 8: "S14", 10: "S8",
    13: "S44", 14: "S5", 18: "S14", 22: "S8", 28: "S44", 30: "S5",
}

T_MULTIPLES = (5, 10, 20, 40)

# The recipes' grids (fig3, fig4, fig5) at the smallest budget optimize accepts
# for each: ten generations of a population of 15 per variable, where fig5's
# k=4 problem (8 variables) sets its budget.  The "smoke" scale keeps one or
# two points of each grid so the benchmark's own test runs in seconds.
SWEEPS = {
    "full": (
        ("fig3", "fixed_w_opt_g", 2, 150, "w",
         (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0), T_MULTIPLES),
        ("fig4", "alpha_opt_tg", 3, 300, "alpha",
         (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0), T_MULTIPLES),
        ("fig5", "full_k_plus_4", None, 1200, "k", (2, 3, 4), (10,)),
    ),
    "smoke": (
        ("fig3", "fixed_w_opt_g", 2, 150, "w", (0.6,), (5, 10)),
        ("fig4", "alpha_opt_tg", 3, 300, "alpha", (2.0,), (5,)),
        ("fig5", "full_k_plus_4", None, 900, "k", (2,), (10,)),
    ),
}

# Analysis sizes: Table 2 depth, random-chain k range, evolve samples.
ANALYSIS = {
    "full": {"k_max": 30, "chain_ks": range(11), "samples": 100_000},
    "smoke": {"k_max": 4, "chain_ks": range(3), "samples": 1_000},
}
EVOLVE_K = 4  # N = 17
EVOLVE_TMAX = 2000.0
# Pretty-good-transfer targets: homogeneous chains (N, epsilon) that reach
# epsilon within PGT_TIME / coupling.  P_c(t) = P_1(c t), so the reached
# infidelity does not depend on the seeded coupling scale c.
PGT_TARGETS = ((11, 1e-3), (17, 1e-2))
PGT_TIME = 2.0e5


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class PassResult:
    """What one pass over the task list did and wrote."""

    wall_s: float
    latencies: list
    tasks: int
    failed: int
    evaluations: int
    eval_seconds: float
    quality: list
    digest: str
    outputs: dict = field(default_factory=dict)
    #: one line per failed task: what it was and the error it gave
    errors: list = field(default_factory=list)


def call_cli(cli, argv):
    """Run one CLI command in-process with its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@contextlib.contextmanager
def timed_calls(module, attr, sink):
    """Append the duration of every ``module.attr`` call to ``sink``."""
    original = getattr(module, attr)
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(clock() - start)

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, original)


def digest_files(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def write_json(payload, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


class Sweep:
    """The fig3, fig4 and fig5 grids, one warm-started CLI sweep per group.

    A group is one value of w, alpha or k with all its arrival times: the
    problems that ``optimize.sweep`` warm-starts from each other.  Each group
    gets its own DE seed, so one unlucky seed cannot shift a whole figure.
    """

    def __init__(self, lib, seed, scale, workdir, window):
        self.lib = lib
        self.workdir = workdir
        rng = random.Random(seed)
        self.groups = []
        for figure, scenario, k, budget, axis, values, multiples in SWEEPS[scale]:
            for value in values:
                config = {"scenario": scenario, "k": value if k is None else k,
                          "seed": rng.randrange(1, 2**31), "budget": budget,
                          "window_max": window, "warm_start": True,
                          "sweep": {axis: [value], "T_multiples": list(multiples)}}
                name = f"{figure}-{axis}{value:g}"
                path = os.path.join(workdir, f"{name}.json")
                write_json(config, path)
                n = 3 * config["k"] + 5
                self.groups.append((name, path, [f"T={m * n:g}" for m in multiples]))

    def run_pass(self):
        cli, optimize = self.lib.cli, self.lib.optimize
        latencies, outputs, written, errors = [], {}, [], []
        failed = tasks = evaluations = 0
        quality = []
        start = time.perf_counter()
        with timed_calls(optimize, "optimize", latencies):
            for name, config, times in self.groups:
                size = len(times)
                tasks += size
                out_json = os.path.join(self.workdir, f"{name}-out.json")
                out_csv = os.path.join(self.workdir, f"{name}.csv")
                code = call_cli(cli, ["--manifest", os.path.join(self.workdir, "manifest.json"),
                                      "optimize", "--config", config,
                                      "--out", out_json, "--out-csv", out_csv])
                if code != 0:
                    failed += size
                    errors.append(f"{name}: optimize exited with code {code}")
                    continue
                written += [out_json, out_csv]
                with open(out_json, encoding="utf-8") as fh:
                    entries = json.load(fh)["sweep"]
                failed += size - len(entries) + sum("error" in e for e in entries)
                errors += [f"{name} {t}: {e['error']}" for t, e in zip(times, entries)
                           if "error" in e]
                if len(entries) != size:
                    errors.append(f"{name}: {len(entries)} sweep entries, want {size}")
                results = [e for e in entries if "error" not in e]
                outputs[name] = results
                evaluations += sum(e["evaluations"] for e in results)
                quality += [e["neg_log_infidelity"] for e in results]
        wall = time.perf_counter() - start
        return PassResult(wall, latencies, tasks, failed, evaluations, sum(latencies),
                          quality, digest_files(written), outputs, errors)

    def check(self, result):
        bound = self.lib.design.dimerized_upper_bound
        checks = []
        for name, entries in result.outputs.items():
            for e in entries:
                label = f"{name} T={e['problem']['arrival_time']:g}"
                values = [e["best_P"], *e["trajectory"]]
                checks.append(Check(f"P in [0,1]: {label}",
                                    all(0.0 <= p <= 1.0 for p in values)))
                if e["problem"]["scenario"] == "fixed_w_opt_g":
                    cap = bound(e["problem"]["fixed_params"]["w"])
                    checks.append(Check(f"P <= P_up(w) + 1e-6: {label}",
                                        e["best_P"] <= cap + 1e-6,
                                        f"P={e['best_P']:.12g} P_up={cap:.12g}"))
        return checks


class Analysis:
    """Table 2, lemma checks, glueing, a long evolve trace, PGT and PST designs."""

    def __init__(self, lib, seed, scale, workdir):
        self.lib = lib
        self.workdir = workdir
        size = ANALYSIS[scale]
        rng = random.Random(seed)

        def out(name):
            return os.path.join(workdir, name)

        self.tasks = [["sequences", "--k-max", str(size["k_max"]), "--out", out("rows.json")]]
        self.chain_files = {}
        for k in size["chain_ks"]:
            n_g = k // 2 + 1 if k % 2 == 0 else (k + 1) // 2
            spec = {"symmetric": {"k": k,
                                  "v": [rng.uniform(0.5, 2.0) for _ in range(k + 1)],
                                  "g": [rng.uniform(0.5, 2.0) for _ in range(n_g)]}}
            path = out(f"chain{k}.json")
            write_json(spec, path)
            self.chain_files[k] = path
            self.tasks.append(["spectrum", path, "--verify-lemmas", "--out", out(f"spectrum{k}.json")])
            if k % 2 == 0:  # glueing needs an odd number of qubits, N = 3k+5
                self.tasks.append(["glue", path, "--bridge-v", repr(rng.uniform(0.5, 2.0)),
                                   "--out", out(f"glued{k}.json")])
        evolve_k = min(EVOLVE_K, max(size["chain_ks"]))
        self.evolve = (self.chain_files[evolve_k], size["samples"], out("evolve.csv"))
        # evolve and the PGT scans are the tasks that evaluate P(t)
        self.eval_tasks = [len(self.tasks)]
        self.tasks.append(["evolve", self.evolve[0], "--tmax", repr(EVOLVE_TMAX),
                           "--samples", str(size["samples"]), "--out", self.evolve[2]])
        self.pgt = []
        for n, eps in PGT_TARGETS:
            coupling = rng.uniform(0.5, 2.0)
            path = out(f"homogeneous{n}.json")
            write_json({"homogeneous": {"N": n, "coupling": coupling}}, path)
            result = out(f"pgt{n}.json")
            self.pgt.append((result, eps))
            self.eval_tasks.append(len(self.tasks))
            self.tasks.append(["design", "pgt", "--spec", path, "--epsilon", repr(eps),
                               "--tmax", repr(PGT_TIME / coupling), "--out", result])
        self.pst = []
        for family in ("n8", "n11"):
            k = rng.randint(1, 3)
            lo, hi = lib.design.feasible_interval(family, k)
            v1 = math.sqrt(lo + rng.uniform(0.2, 0.8) * (hi - lo))
            result = out(f"pst-{family}.json")
            self.pst.append(result)
            self.tasks.append(["design", "pst", "--family", family, "--k", str(k),
                               "--v1", repr(v1), "--out", result])
        self.outputs = [t[-1] for t in self.tasks]
        self.manifest = out("manifest.json")

    def run_pass(self):
        cli = self.lib.cli
        latencies, errors = [], []
        clock = time.perf_counter
        start = clock()
        for argv in self.tasks:
            t0 = clock()
            code = call_cli(cli, ["--manifest", self.manifest, *argv])
            latencies.append(clock() - t0)
            if code != 0:
                errors.append(f"{' '.join(argv[:2])}: exited with code {code}")
        wall = clock() - start
        evaluations, quality = self.evolve[1], []
        for path, _ in self.pgt:
            with open(path, encoding="utf-8") as fh:
                pgt = json.load(fh)
            evaluations += pgt["scan_budget"]
            quality.append(-math.log10(pgt["best_infidelity"]))
        eval_seconds = sum(latencies[i] for i in self.eval_tasks)
        return PassResult(wall, latencies, len(self.tasks), len(errors), evaluations,
                          eval_seconds, quality, digest_files(self.outputs), errors=errors)

    def check(self, result):
        import numpy as np

        lib = self.lib
        checks = []
        with open(self.tasks[0][-1], encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        for row in rows:
            k = row["k"]
            want = (TABLE2_DEGREES[k - 1], TABLE2_TAGS.get(k, ""), "proved")
            got = (row["poly"], row["sequence"], row["certification"])
            checks.append(Check(f"Table 2 row k={k}", got == want, f"got {got}, want {want}"))
        for k in self.chain_files:
            with open(os.path.join(self.workdir, f"spectrum{k}.json"), encoding="utf-8") as fh:
                lemmas = json.load(fh)["lemmas"]
            for flag in ("lemma1", "lemma2", "lemma3", "lemma4"):
                if lemmas[flag] is not None:
                    checks.append(Check(f"{flag} k={k}", lemmas[flag] is True,
                                        str(lemmas["violations"])))
            glued = os.path.join(self.workdir, f"glued{k}.json")
            if os.path.exists(glued):
                parent, child = (np.linalg.eigvalsh(lib.chains.build_hamiltonian(
                    lib.chains.load_spec(path)).toarray()) for path in (self.chain_files[k], glued))
                ok = child.size == 2 * parent.size + 1 and all(
                    np.min(np.abs(child - lam)) < 1e-8 for lam in parent)
                checks.append(Check(f"glue k={k}: parent spectrum inside child spectrum", ok))

        spec_file, samples, trace_file = self.evolve
        with open(trace_file, encoding="utf-8") as fh:
            trace = np.array([float(row["P"]) for row in csv.DictReader(fh)])
        series = lib.dynamics.chain_series(lib.chains.load_spec(spec_file))
        exact = series.probability(np.linspace(0.0, EVOLVE_TMAX, samples))
        dev = float(np.max(np.abs(trace - exact))) if trace.shape == exact.shape else math.inf
        checks.append(Check("evolve trace = chain_series to 1e-9", dev < 1e-9, f"max dev {dev:.3g}"))
        checks.append(Check("evolve P in [0,1]",
                            bool(trace.size and trace.min() >= 0.0 and trace.max() <= 1.0)))

        for path, eps in self.pgt:
            with open(path, encoding="utf-8") as fh:
                pgt = json.load(fh)
            checks.append(Check(f"pgt reached epsilon={eps:g}",
                                pgt["reached"] and pgt["best_infidelity"] < eps,
                                f"infidelity {pgt['best_infidelity']:.3g}"))
        for path in self.pst:
            with open(path, encoding="utf-8") as fh:
                d = json.load(fh)
            fields = {key: d[key] for key in ("family", "k", "v1", "couplings")}
            fields["feasible_interval"] = tuple(d["feasible_interval"])
            fields["target_spectrum"] = tuple(d["target_spectrum"])
            chain = lib.design.PstDesign(**fields).chain()
            p = lib.dynamics.transfer_probability(chain, [math.pi]).probability[0]
            checks.append(Check(f"pst {d['family']} k={d['k']}: P(pi) = 1", p > 1 - 1e-9,
                                f"P(pi)={p:.15g}"))
        return checks


WORKLOADS = {
    "sweep_window": lambda lib, seed, scale, workdir: Sweep(lib, seed, scale, workdir, True),
    "sweep_fixed_T": lambda lib, seed, scale, workdir: Sweep(lib, seed, scale, workdir, False),
    "analysis": Analysis,
}
