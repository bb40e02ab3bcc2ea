"""Acceptance suite: ten end-to-end criteria, one printed verdict line each.

Each test prints ``ACCEPTANCE n: PASS/FAIL`` with a short measurement summary
before asserting, so a full run reads as a checklist.
"""

import json
import math
import time

import numpy as np
import pytest

from qstc import chains, design, dynamics, exact, optimize, spectral
from qstc.errors import InfeasibleDesignError

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# closed-form oracles, written out independently of the library
# ---------------------------------------------------------------------------

# Positive eigenvalues of the homogeneous chains as explicit nested radicals.
TABLE1_POSITIVE = {
    5: [1.0, SQRT3],
    11: [1.0, SQRT3, math.sqrt(3 + SQRT2), math.sqrt(3 - SQRT2)],
    23: [1.0, SQRT3, math.sqrt(3 + SQRT2), math.sqrt(3 - SQRT2)]
    + [
        math.sqrt(3 + s0 * math.sqrt(2 + s1 * SQRT2))
        for s0 in (1, -1)
        for s1 in (1, -1)
    ],
    8: [1.0, 2.0, SQRT2],
    17: [1.0, 2.0, SQRT2, SQRT3, math.sqrt(3 + SQRT3), math.sqrt(3 - SQRT3)],
    35: [1.0, 2.0, SQRT2, SQRT3, math.sqrt(3 + SQRT3), math.sqrt(3 - SQRT3)]
    + [math.sqrt(3 + SQRT2), math.sqrt(3 - SQRT2)]
    + [
        math.sqrt(3 + s0 * math.sqrt(2 + s1 * SQRT3))
        for s0 in (1, -1)
        for s1 in (1, -1)
    ],
    14: [1.0]
    + [math.sqrt((5 + s * SQRT5) / 2) for s in (1, -1)]
    + [math.sqrt((7 + s * SQRT5) / 2) for s in (1, -1)],
    29: [1.0]
    + [math.sqrt((5 + s * SQRT5) / 2) for s in (1, -1)]
    + [math.sqrt((7 + s * SQRT5) / 2) for s in (1, -1)]
    + [SQRT3]
    + [
        math.sqrt(3 + s0 * math.sqrt((5 + s1 * SQRT5) / 2))
        for s0 in (1, -1)
        for s1 in (1, -1)
    ],
}

# Exact corner-to-corner amplitude of the homogeneous N=17 chain.
P17_FREQS = np.array(
    [1.0, 2.0, SQRT2, SQRT3, math.sqrt(3 - SQRT3), math.sqrt(3 + SQRT3)]
)
P17_COEFFS = (
    np.array([-2.0, -1.0, -3.0, 2.0, 2.0 + SQRT3, 2.0 - SQRT3]) / 12.0
)

# Published degree column and family tags, k = 1..30.
TABLE2_DEGREES = [
    2, 2, 2, 2, 3, 2, 3, 2, 5, 2, 6, 3, 2, 2, 8, 3, 9, 2, 6, 5,
    11, 2, 10, 6, 3, 3, 14, 2, 15, 2,
]
TABLE2_TAGS = {
    1: "S8", 2: "S5", 3: "S14", 4: "S8", 6: "S5", 8: "S14", 10: "S8",
    13: "S44", 14: "S5", 18: "S14", 22: "S8", 28: "S44", 30: "S5",
}


def table1_full_spectrum(n):
    pos = sorted(TABLE1_POSITIVE[n])
    k = (n - 5) // 3
    return np.array([-v for v in reversed(pos)] + [0.0] * (k + 1) + pos)


def random_symmetric_chain(rng, k):
    v = rng.uniform(0.1, 3.0, k + 1).tolist()
    g = rng.uniform(0.1, 3.0, k // 2 + 1).tolist()
    return chains.mirror_chain(v, g + g[-1:] if k % 2 else g)


class TestAcceptance:
    def test_criterion_01_table1_spectra(self):
        start = time.monotonic()
        worst = 0.0
        for n in (5, 8, 11, 14, 17, 23, 29, 35):
            h = chains.build_hamiltonian(chains.homogeneous_chain(n))
            lam = np.linalg.eigvalsh(h.toarray())
            worst = max(worst, float(np.max(np.abs(lam - table1_full_spectrum(n)))))
        elapsed = time.monotonic() - start
        report(
            1,
            worst < 1e-10 and elapsed < 5.0,
            f"8 chain lengths, max eigenvalue deviation {worst:.2e}, {elapsed:.2f}s",
        )

    def test_criterion_02_lemma_suite(self):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        worst_pair = worst_contain = worst_resid = 0.0
        null_ok = True
        for _ in range(200):
            k = int(rng.choice([0, 2, 4, 6, 8, 10]))  # odd chain lengths, glueable
            spec = random_symmetric_chain(rng, k)
            h = chains.build_hamiltonian(spec)
            lam = np.linalg.eigvalsh(h.toarray())
            scale = float(np.max(np.abs(lam)))
            null_ok &= int(np.count_nonzero(np.abs(lam) < 1e-9 * scale)) == k + 1
            worst_pair = max(worst_pair, float(np.max(np.abs(np.sort(lam) + np.sort(lam)[::-1]))))

            result = spectral.glue(spec, float(rng.uniform(0.1, 3.0)))
            h_child = chains.build_hamiltonian(result.child).toarray()
            lam_child = np.linalg.eigvalsh(h_child)
            ok, dev = spectral.match_contained(lam, lam_child, tol=1e-10)
            null_ok &= ok
            worst_contain = max(worst_contain, dev)

            block = result.transform.T @ h_child @ result.transform
            n = spec.n
            off = block.copy()
            off[: n + 1, : n + 1] = 0.0
            off[n + 1 :, n + 1 :] = 0.0
            worst_resid = max(worst_resid, float(np.max(np.abs(off))))
        elapsed = time.monotonic() - start
        ok = (
            null_ok
            and worst_pair < 1e-10
            and worst_contain < 1e-10
            and worst_resid < 1e-12
            and elapsed < 30.0
        )
        report(
            2,
            ok,
            "200 random symmetric chains: "
            f"pairing {worst_pair:.2e}, containment {worst_contain:.2e}, "
            f"block residual {worst_resid:.2e}, {elapsed:.2f}s",
        )

    def test_criterion_03_p17_equivalence(self):
        times = np.linspace(0.0, 500.0, 10_000)
        trace = dynamics.transfer_probability(chains.homogeneous_chain(17), times)
        closed = (np.cos(np.outer(times, P17_FREQS)) @ P17_COEFFS) ** 2
        dev = float(np.max(np.abs(np.asarray(trace.probability) - closed)))
        report(3, dev < 1e-9, f"10^4 samples in [0, 500], max deviation {dev:.2e}")

    def test_criterion_04_pst_n8(self):
        worst_spec = worst_pst = worst_return = 0.0
        rejected = True
        for k in (1, 2, 3, 5, 10):
            lo, hi = design.feasible_interval("n8", k)
            for frac in (0.25, 0.5, 0.75):
                d = design.design_pst_n8(k, math.sqrt(lo + frac * (hi - lo)))
                lam = np.linalg.eigvalsh(chains.build_hamiltonian(d.chain()).toarray())
                target = np.sort([0, 0] + [s * (k + j) for j in range(3) for s in (1, -1)])
                worst_spec = max(worst_spec, float(np.max(np.abs(lam - target))))
                trace = dynamics.transfer_probability(d.chain(), [math.pi, 2 * math.pi])
                worst_pst = max(worst_pst, abs(trace.probability[0] - 1.0))
                worst_return = max(worst_return, abs(trace.probability[1]))
            try:
                design.design_pst_n8(k, math.sqrt(hi) + 0.05)
                rejected = False
            except InfeasibleDesignError as err:
                rejected &= err.interval == (lo, hi)
        ok = worst_spec < 1e-9 and worst_pst < 1e-9 and worst_return < 1e-9 and rejected
        report(
            4,
            ok,
            f"15 designs: spectrum {worst_spec:.2e}, |P(pi)-1| {worst_pst:.2e}, "
            f"|P(2pi)| {worst_return:.2e}, infeasible rejected with interval",
        )

    def test_criterion_05_pst_n11(self):
        d = design.design_pst_n11(1, 2.0)
        expected = {
            "v2": math.sqrt(63.0) / 4.0,
            "v3": math.sqrt(5.0),
            "g1": math.sqrt(1.5),
            "g2": 0.75,
        }
        coupling_dev = max(abs(d.couplings[k] - v) for k, v in expected.items())
        lam = np.linalg.eigvalsh(chains.build_hamiltonian(d.chain()).toarray())
        target = np.sort([0, 0, 0, 1, -1, 2, -2, 3, -3, 4, -4])
        spec_dev = float(np.max(np.abs(lam - target)))
        # Frobenius trace identity: sum lambda^2 = 2 sum couplings^2 = 60
        spec11 = d.chain()
        frob = 2 * sum(c * c for c in spec11.t + spec11.w + spec11.g)
        trace = dynamics.transfer_probability(spec11, [math.pi])
        pst_dev = abs(trace.probability[0] - 1.0)
        ok = (
            coupling_dev < 1e-12
            and spec_dev < 1e-9
            and abs(frob - 60.0) < 1e-10
            and pst_dev < 1e-9
        )
        report(
            5,
            ok,
            f"couplings {coupling_dev:.2e}, spectrum {spec_dev:.2e}, "
            f"trace identity |{frob:.12g}-60|, |P(pi)-1| {pst_dev:.2e}",
        )

    def test_criterion_06_upper_bound(self):
        start = time.monotonic()
        t_arrival = 40.0 * 11
        exceed = -1.0
        worst_gap_high_w = 0.0
        for w in np.arange(0.2, 1.01, 0.1):
            w = round(float(w), 1)
            problem = optimize.OptProblem(
                scenario=optimize.Scenario.FIXED_W_OPT_G,
                k=2,
                arrival_time=t_arrival,
                seed=7,
                fixed_params={"w": w},
                window_max=True,
            )
            res = optimize.optimize(problem, 2000)
            bound = design.dimerized_upper_bound(w)
            exceed = max(exceed, res.best_p - bound)
            if w >= 0.6:
                worst_gap_high_w = max(worst_gap_high_w, bound - res.best_p)
        elapsed = time.monotonic() - start
        exact_at_one = design.dimerized_upper_bound(1.0) == 1.0
        ok = (
            exceed <= 1e-6
            and worst_gap_high_w < 0.02
            and exact_at_one
            and elapsed < 600.0
        )
        report(
            6,
            ok,
            f"9 w-points at T=40N: max excess {exceed:.2e}, "
            f"worst gap (w>=0.6) {worst_gap_high_w:.4f}, P_up(1)={exact_at_one}, "
            f"{elapsed:.1f}s",
        )

    def test_criterion_07_table2(self):
        start = time.monotonic()
        matches = 0
        tags_ok = True
        for k in range(1, 31):
            rep = exact.char_poly_report(k)
            matches += rep.max_degree == TABLE2_DEGREES[k - 1]
            tags_ok &= rep.sequence == TABLE2_TAGS.get(k)
        elapsed = time.monotonic() - start
        ok = matches == 30 and tags_ok and elapsed < 600.0
        report(
            7,
            ok,
            f"degree column {matches}/30, sequence tags "
            f"{'match' if tags_ok else 'mismatch'}, {elapsed:.1f}s",
        )

    def test_criterion_08_full_optimization(self):
        start = time.monotonic()
        values = {}
        for k in (2, 3, 4):
            problem = optimize.OptProblem(
                scenario=optimize.Scenario.FULL_K_PLUS_4,
                k=k,
                arrival_time=10.0 * (3 * k + 5),
                seed=5,
                window_max=True,
            )
            values[k] = optimize.optimize(problem, 30_000).best_p
        elapsed = time.monotonic() - start
        ok = all(v > 0.99 for v in values.values())
        detail = ", ".join(f"k={k}: P={v:.4f}" for k, v in values.items())
        report(8, ok, f"{detail} (budget 3x10^4 <= 10^5 each, T=10N, {elapsed:.1f}s)")

    def test_criterion_09_determinism(self):
        problems = [
            optimize.OptProblem(
                scenario=optimize.Scenario.FIXED_W_OPT_G,
                k=2,
                arrival_time=t,
                seed=13,
                fixed_params={"w": 0.8},
                window_max=True,
            )
            for t in (55.0, 110.0)
        ]
        csv_a = "\n".join(optimize.sweep_csv_rows(optimize.sweep(problems, 300)))
        csv_b = "\n".join(optimize.sweep_csv_rows(optimize.sweep(problems, 300)))
        json_a = json.dumps(optimize.optimize(problems[0], 300).to_dict(), sort_keys=True)
        json_b = json.dumps(optimize.optimize(problems[0], 300).to_dict(), sort_keys=True)
        ok = csv_a.encode() == csv_b.encode() and json_a == json_b
        report(9, ok, "repeated sweeps and runs are byte-identical (seeded streams)")

    def test_criterion_10_sweep_monotonicity(self):
        start = time.monotonic()
        multiples = (5.0, 10.0, 20.0, 40.0)
        w_values = (0.3, 0.5, 0.7, 0.9)
        problems = [
            optimize.OptProblem(
                scenario=optimize.Scenario.FIXED_W_OPT_G,
                k=2,
                arrival_time=m * 11,
                seed=7,
                fixed_params={"w": w},
                window_max=True,
            )
            for w in w_values
            for m in multiples
        ]
        results = optimize.sweep(problems, 600)
        assert all(err is None for _, err in results)
        good = total = 0
        idx = 0
        for _ in w_values:
            values = [results[idx + j][0].best_p for j in range(len(multiples))]
            idx += len(multiples)
            for a, b in zip(values, values[1:]):
                total += 1
                good += b >= a - 1e-12
        elapsed = time.monotonic() - start
        fraction = good / total
        report(
            10,
            fraction >= 0.9,
            f"{good}/{total} adjacent-T pairs non-decreasing "
            f"({fraction:.0%}, threshold 90%), {elapsed:.1f}s",
        )
