"""Tests for eigenvalues, glueing and the solvable-sequence spectra."""

import hashlib
import itertools
import math

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qstc import chains, exact, spectral
from qstc.errors import StructuralError, ValidationError


def random_symmetric_chain(rng, k):
    v = rng.uniform(0.1, 3.0, k + 1).tolist()
    g = rng.uniform(0.1, 3.0, k // 2 + 1).tolist()
    return chains.mirror_chain(v, g + g[-1:] if k % 2 else g)


class TestEigenvalues:
    def test_null_multiplicity_homogeneous(self):
        for n in (5, 8, 11, 14, 17):
            spec = chains.homogeneous_chain(n)
            lam = spectral.eigenvalues(chains.build_hamiltonian(spec))
            assert spectral.spectrum_to_dict(lam)["null_multiplicity"] == spec.k + 1


class TestJacobiSpectrum:
    @settings(max_examples=60, deadline=None)
    @given(
        n_cells=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_full_spectrum_from_jacobi_random_chain(self, n_cells, seed):
        # spec(H) = {+/- sqrt(mu_j)} plus k+1 zeros, mu = spec(J): the chain is
        # bipartite with J = B B^T of full rank n_cells+1 (lemma 2)
        rng = np.random.default_rng(seed)
        couplings = rng.uniform(0.05, 4.0, 3 * n_cells + 1)
        snap = rng.random(couplings.size) < 0.3
        couplings[snap] = rng.choice([0.05, 4.0], int(snap.sum()))
        spec = chains.ChainSpec(
            n_cells=n_cells,
            t=couplings[:n_cells],
            w=couplings[n_cells : 2 * n_cells],
            g=couplings[2 * n_cells :],
        )
        assume(not chains.is_mirror_symmetric(spec))
        root = np.sqrt(np.linalg.eigvalsh(chains.jacobi_matrix(spec.t, spec.w, spec.g)))
        expected = np.sort(np.concatenate([-root, np.zeros(spec.k + 1), root]))
        lam = np.linalg.eigvalsh(chains.build_hamiltonian(spec).toarray())
        assert np.max(np.abs(lam - expected)) < 1e-10


class TestGlue:
    def test_child_length(self):
        parent = chains.homogeneous_chain(5)
        result = spectral.glue(parent, 1.0)
        assert result.child.n == 11

    def test_homogeneous_glue_is_homogeneous(self):
        parent = chains.homogeneous_chain(11)
        result = spectral.glue(parent, 1.0)
        assert result.child == chains.homogeneous_chain(23)

    def test_containment(self):
        rng = np.random.default_rng(3)
        parent = random_symmetric_chain(rng, 2)
        result = spectral.glue(parent, 1.3)
        lam_p = np.linalg.eigvalsh(chains.build_hamiltonian(parent).toarray())
        lam_c = np.linalg.eigvalsh(chains.build_hamiltonian(result.child).toarray())
        ok, worst = spectral.match_contained(lam_p, lam_c, tol=1e-10)
        assert ok and worst < 1e-10

    def test_block_diagonalization(self):
        rng = np.random.default_rng(4)
        parent = random_symmetric_chain(rng, 4)
        result = spectral.glue(parent, 0.7)
        h_c = chains.build_hamiltonian(result.child).toarray()
        block = result.transform.T @ h_c @ result.transform
        n = parent.n
        off = block.copy()
        off[: n + 1, : n + 1] = 0.0
        off[n + 1 :, n + 1 :] = 0.0
        assert np.max(np.abs(off)) < 1e-12
        assert np.allclose(block[: n + 1, : n + 1], result.block_a, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        half_k=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_block_diagonal_in_cell_order_random_chain(self, half_k, seed):
        # T^T H_child T = block_a (+) H_parent, the parent block in cell order
        rng = np.random.default_rng(seed)
        parent = random_symmetric_chain(rng, 2 * half_k)
        bridge_v = float(rng.uniform(0.1, 3.0))
        result = spectral.glue(parent, bridge_v)
        n = parent.n
        h_p = chains.build_hamiltonian(parent).toarray()
        border = np.zeros(n + 1)
        border[n - 2] = np.sqrt(2.0) * bridge_v  # the left copy's right corner
        assert np.array_equal(result.block_a[:n, :n], h_p)
        assert np.array_equal(result.block_a[n], border)
        assert np.array_equal(result.block_a[:, n], border)
        t = result.transform
        assert np.max(np.abs(t.T @ t - np.eye(2 * n + 1))) < 1e-12
        expected = np.zeros((2 * n + 1, 2 * n + 1))
        expected[: n + 1, : n + 1] = result.block_a
        expected[n + 1 :, n + 1 :] = h_p
        h_c = chains.build_hamiltonian(result.child).toarray()
        assert np.max(np.abs(t.T @ h_c @ t - expected)) < 1e-12

    def test_rejects_even_length(self):
        with pytest.raises(StructuralError):
            spectral.glue(chains.homogeneous_chain(8), 1.0)

    def test_rejects_asymmetric(self):
        spec = chains.ChainSpec(n_cells=3, t=(1, 2, 1), w=(1, 1, 1), g=(1,) * 4)
        with pytest.raises(StructuralError):
            spectral.glue(spec, 1.0)

    def test_rejects_nonpositive_bridge(self):
        with pytest.raises(ValidationError):
            spectral.glue(chains.homogeneous_chain(5), 0.0)


class TestMatchContained:
    def test_respects_multiplicity(self):
        ok, _ = spectral.match_contained([1.0, 1.0], [1.0, 2.0], tol=1e-12)
        assert not ok
        ok, worst = spectral.match_contained([1.0, 1.0], [1.0, 1.0, 2.0], tol=1e-12)
        assert ok and worst == 0.0

    def test_deviation_reported(self):
        ok, worst = spectral.match_contained([1.0], [1.0 + 5e-11, 2.0], tol=1e-10)
        assert ok
        assert math.isclose(worst, 5e-11, rel_tol=1e-3)

    def test_deviation_does_not_depend_on_tol(self):
        # the greedy at tol = 1e-10 would take 1 - 5e-11, the first value in reach
        for tol in (1e-10, 1e-12, 0.0):
            assert spectral.match_contained([1.0], [1 - 5e-11, 1.0, 2.0], tol) == (True, 0.0)
        low = 1 - 5e-11
        assert spectral.match_contained([1.0, 1.0], [low, 1.0, 2.0], 1e-12) == (False, 1.0 - low)
        assert spectral.match_contained([1.0, 2.0], [1.0], 1.0) == (False, math.inf)

    @settings(max_examples=60, deadline=None)
    @given(
        sub=st.lists(st.integers(-5, 5), max_size=4),
        extra=st.lists(st.integers(-5, 5), max_size=4),
        noise=st.integers(0, 2**32 - 1),
    )
    def test_smallest_deviation_of_any_matching(self, sub, extra, noise):
        # brute force over every injective assignment of sub to full; about half
        # the values of full are exact, so both lists may repeat values
        rng = np.random.default_rng(noise)
        full = [x + rng.uniform(-1e-3, 1e-3) * rng.integers(2) for x in sub + extra]
        best = min(max((abs(full[j] - x) for x, j in zip(sub, perm)), default=0.0)
                   for perm in itertools.permutations(range(len(full)), len(sub)))
        ok, d = spectral.match_contained(sub, full, 0.0)
        assert d == best and ok == (best == 0.0)


class TestVerifyLemmas:
    def test_homogeneous_all_pass(self):
        report = spectral.verify_lemmas(chains.homogeneous_chain(11))
        assert report.lemma1 and report.lemma2 and report.lemma3 and report.lemma4

    def test_even_length_partial(self):
        report = spectral.verify_lemmas(chains.homogeneous_chain(8))
        assert report.lemma1 is None and report.lemma4 is None
        assert report.lemma2 and report.lemma3

    @settings(max_examples=20, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_symmetric_chains(self, k, seed):
        rng = np.random.default_rng(seed)
        spec = random_symmetric_chain(rng, k)
        report = spectral.verify_lemmas(spec)
        assert report.lemma2 and report.lemma3
        if spec.n % 2 == 1:
            assert report.lemma1 and report.lemma4


class TestScaleEquivariance:
    """Verdicts depend on coupling ratios only; deviations scale with the couplings."""

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=8),
        mirror=st.booleans(),
        j=st.integers(min_value=-60, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # a raw eigvalsh call gives this chain's null modes other last bits at 2^19
    @example(k=5, mirror=True, j=19, seed=119)
    def test_power_of_two_scaling(self, k, mirror, j, seed):
        rng = np.random.default_rng(seed)
        if mirror:
            spec = random_symmetric_chain(rng, k)
        else:
            c = rng.uniform(0.1, 3.0, 3 * k + 4)
            spec = chains.ChainSpec(n_cells=k + 1, t=c[: k + 1], w=c[k + 1 : 2 * k + 2],
                                    g=c[2 * k + 2 :])
        s = 2.0**j
        scaled = chains.ChainSpec(n_cells=spec.n_cells, t=[s * x for x in spec.t],
                                  w=[s * x for x in spec.w], g=[s * x for x in spec.g])
        base, report = spectral.verify_lemmas(spec), spectral.verify_lemmas(scaled)
        for name in ("lemma1", "lemma2", "lemma3", "lemma4"):
            assert getattr(report, name) == getattr(base, name)
        assert report.lemma2 and report.lemma3
        assert report.violations == {
            name: value if name == "null_multiplicity" else value * s
            for name, value in base.violations.items()
        }
        payload = spectral.spectrum_to_dict(
            spectral.eigenvalues(chains.build_hamiltonian(scaled)))
        expected = spectral.spectrum_to_dict(
            spectral.eigenvalues(chains.build_hamiltonian(spec)))
        assert payload["null_multiplicity"] == expected["null_multiplicity"] == spec.k + 1
        assert payload["eigenvalues"] == [x * s for x in expected["eigenvalues"]]


# Every catalogued length N = 2^level (N0+1) - 1 with k <= 50 (N <= 155).
CATALOGUED = [
    (n0, level)
    for n0 in (5, 8, 14, 44)
    for level in range(6)
    if 2**level * (n0 + 1) - 1 <= 155
]


# Frozen oracle: sha256 of "\n".join(exact.sequence_tags(k)) for every
# catalogued k <= 100, recorded from an independent construction that deduped
# and sorted each level by float value; it pins sympy's printed radicals byte
# for byte.
TAG_DIGESTS = {
    0: "f4bca9dfd81d8a510f70a69c284094f55ba2058e6ef7c50df9a6c3837a6bfe9c",
    1: "d1a60eed4278ec814ae5761c7d8f27432660a96efe6293beb9bf5ad375294992",
    2: "bd1e961b76ac2e9226ea7fd4055af018325d1282455eaae1d6afc435a29b3d2e",
    3: "d4dfac3bd9a21a42be5d40df91f8b7e4ac0a5f05fcee74a8d0559f346454a17b",
    4: "4d6f9b7fa6af92392bac16c983d6d4ef9069b9ee65e1336ddb7e47d1ad910847",
    6: "f4e511ab5124e2a7ed9bb23e753cc0acae2a10fca86f4347ba964ffa1fc1edf7",
    8: "2e657b554b8772ec2ba05653c4f3126ddd529a869c10f211e05f52514f04108d",
    10: "ff9385d72b148336b8503672b4ecff973e4a60b4df02480a4033db82818a1656",
    13: "46f68c858ccf64307d90ebb53d7a08d8789f29ef1cde7902c2af93a9d448534e",
    14: "8cf43508198db4e8aedbdef9ed47ad051e04389b418abe2b72c4e8880a47affe",
    18: "d828e9714b9c702f5010322a2e600d44a77e32321fee4315047eaf4c43b1d65e",
    22: "d66c42572e9b1ee950cc9318d61ec57911873a52c7285b56acc0de487ee9fe95",
    28: "e9b1a29ecee5c3b02162deb64f8eadce3a226341d4aedc208dea091a40ac1d49",
    30: "35f6c7605aae65b6fa7b6debab51080e55f3fcd11f5f3dea114b193568195c7a",
    38: "cad09c91f7d1d8b7d0245a3e5c41d19f11176c8616f3dd70fa1f21f03ad1be67",
    46: "327595fb1fc306d523895b820a910b45cc92e06d0babfff17889f8f6f8e66465",
    58: "0795b48268b04849078d6d2471ae88bc76c0375e591c1adcc905b6a3914f8ad0",
    62: "ec0cb3d53aa56b69e531ae8cdd366125a2d505bc26454be507a64688173d2317",
    78: "e20877a6c73ac2497cea9b86b802460f7c07d4e52893c3daf8acec79364a06de",
    94: "d1a6e3f3a38491a636ec87aabeec676d20dd668c2a450be0f37be11b7f825ed0",
}


class TestSequenceSpectrum:
    """The nested-radical spectra of the solvable families (``exact.sequence_tags``)."""

    def test_golden_digests(self):
        catalogued = [k for k in range(101) if exact.classify_sequence(k) is not None]
        assert catalogued == list(TAG_DIGESTS)
        for k, digest in TAG_DIGESTS.items():
            text = "\n".join(exact.sequence_tags(k))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, k

    def test_base_lengths(self):
        for n0 in (5, 8, 14, 44):
            k = (n0 - 5) // 3
            assert exact.classify_sequence(k) == f"S{n0}"
            assert len(exact.sequence_tags(k)) == n0
        assert len(CATALOGUED) == 16

    @pytest.mark.parametrize("n0,level", CATALOGUED)
    def test_matches_numerics(self, n0, level):
        n = 2**level * (n0 + 1) - 1
        k = (n - 5) // 3
        tags = exact.sequence_tags(k)
        assert exact.classify_sequence(k) == f"S{n0}"
        values = np.array([float(sympy.sympify(tag).evalf(30)) for tag in tags])
        lam = np.linalg.eigvalsh(chains.build_hamiltonian(chains.homogeneous_chain(n)).toarray())
        assert np.max(np.abs(values - lam)) < 1e-10

    def test_tag_count(self):
        tags = exact.sequence_tags(4)  # N = 17, S8 level 1
        assert len(tags) == 17
        assert tags.count("0") == 5

    def test_unknown_base_rejected(self):
        # N = 20 (k = 5) belongs to no catalogued family
        assert exact.classify_sequence(5) is None
        assert exact.sequence_tags(5) is None

    def test_negative_level_rejected(self):
        # N = 3k+5 <= 2 is shorter than every family base; k = -2 has k+2 = 0
        for k in (-1, -2, -3, -10):
            assert exact.sequence_tags(k) is None

    def test_to_dict(self):
        lam = spectral.eigenvalues(chains.build_hamiltonian(chains.homogeneous_chain(5)))
        payload = spectral.spectrum_to_dict(lam, exact.sequence_tags(0))
        assert payload["null_multiplicity"] == 1
        assert len(payload["eigenvalues"]) == 5
        assert payload["tags"] == ["-sqrt(3)", "-1", "0", "1", "sqrt(3)"]
        assert spectral.spectrum_to_dict(lam)["tags"] == []
