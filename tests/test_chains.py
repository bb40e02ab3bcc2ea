"""Tests for chain specifications and Hamiltonian assembly."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hamiltonian_from_edges, jacobi_from_diagonals
from qstc import chains
from qstc.errors import ValidationError, write_json


def random_chain(rng, n_cells, lo=0.1, hi=3.0):
    return chains.ChainSpec(
        n_cells=n_cells,
        t=rng.uniform(lo, hi, n_cells),
        w=rng.uniform(lo, hi, n_cells),
        g=rng.uniform(lo, hi, n_cells + 1),
    )


class TestChainSpec:
    def test_size_relation(self):
        for nc in range(1, 12):
            spec = chains.homogeneous_chain(3 * nc + 2)
            assert spec.n == 3 * nc + 2
            assert spec.k == nc - 1

    def test_coupling_length_validation(self):
        with pytest.raises(ValidationError):
            chains.ChainSpec(n_cells=2, t=(1.0,), w=(1.0, 1.0), g=(1.0, 1.0, 1.0))
        with pytest.raises(ValidationError):
            chains.ChainSpec(n_cells=2, t=(1.0, 1.0), w=(1.0, 1.0), g=(1.0, 1.0))

    def test_positive_couplings_required(self):
        with pytest.raises(ValidationError):
            chains.ChainSpec(n_cells=1, t=(0.0,), w=(1.0,), g=(1.0, 1.0))
        with pytest.raises(ValidationError):
            chains.ChainSpec(n_cells=1, t=(-1.0,), w=(1.0,), g=(1.0, 1.0))
        with pytest.raises(ValidationError):
            chains.ChainSpec(n_cells=1, t=(math.nan,), w=(1.0,), g=(1.0, 1.0))

    def test_homogeneous_length_validation(self):
        for bad in (4, 6, 7, 9):
            with pytest.raises(ValidationError):
                chains.homogeneous_chain(bad)


class TestMirrorSites:
    def test_permutation_and_involution(self):
        for n_cells in range(1, 14):
            image = chains.mirror_sites(n_cells)
            n = 3 * n_cells + 2
            assert sorted(image) == list(range(n))
            assert np.array_equal(image[image], np.arange(n))
            # the corners, A1 of the first and of the last cell, swap
            assert image[0] == n - 2 and image[n - 2] == 0


class TestHamiltonian:
    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(0)
        for nc in (1, 2, 4):
            h = chains.build_hamiltonian(random_chain(rng, nc)).toarray()
            assert np.array_equal(h, h.T)
            assert np.all(np.diag(h) == 0.0)

    def test_row_degree_bound(self):
        h = chains.build_hamiltonian(chains.homogeneous_chain(17)).toarray()
        assert int(np.max(np.count_nonzero(h, axis=1))) <= 3

    def test_tree(self):
        # N-1 edges for a tree on N vertices plus nothing else
        spec = chains.homogeneous_chain(14)
        assert np.count_nonzero(chains.build_hamiltonian(spec).toarray()) == 2 * (spec.n - 1)

    @settings(max_examples=60, deadline=None)
    @given(
        nc=st.integers(min_value=1, max_value=13),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_edge_list(self, nc, seed):
        spec = random_chain(np.random.default_rng(seed), nc)
        h = chains.build_hamiltonian(spec).toarray()
        assert h.tobytes() == hamiltonian_from_edges(spec).tobytes()


class TestJacobiMatrix:
    @settings(max_examples=60, deadline=None)
    @given(
        n_cells=st.integers(min_value=1, max_value=7),
        size=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_stack_equals_per_member(self, n_cells, size, seed):
        rng = np.random.default_rng(seed)
        specs = [random_chain(rng, n_cells, lo=0.05, hi=4.0) for _ in range(size)]
        t, w, g = (np.array([getattr(spec, name) for spec in specs]) for name in "twg")
        stacked = chains.jacobi_matrix(t, w, g)
        assert stacked.shape == (size, n_cells + 1, n_cells + 1)
        assert np.array_equal(chains.jacobi_matrix(t[None], w[None], g[None])[0], stacked)
        for spec, jac in zip(specs, stacked):
            assert np.array_equal(jac, chains.jacobi_matrix(spec.t, spec.w, spec.g))
            assert np.array_equal(jac, jacobi_from_diagonals(spec))


class TestSymmetry:
    def test_homogeneous_is_symmetric(self):
        assert chains.is_mirror_symmetric(chains.homogeneous_chain(11))

    def test_asymmetric_detected(self):
        spec = chains.ChainSpec(n_cells=2, t=(1.0, 2.0), w=(1.0, 1.0), g=(1.0,) * 3)
        assert not chains.is_mirror_symmetric(spec)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_symmetric_form_is_mirror_chain(self, k, seed):
        # v: the k+1 left backbone couplings; g: the first k//2+1 pendant
        # couplings, the last one repeated in the middle for odd k
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.05, 4.0, k + 1).tolist()
        g = rng.uniform(0.05, 4.0, k // 2 + 1).tolist()
        spec = chains.spec_from_dict({"symmetric": {"k": k, "v": v, "g": g}})
        assert spec == chains.mirror_chain(v, g + g[-1:] if k % 2 else g)
        assert spec.n == 3 * k + 5
        assert chains.backbone_sequence(spec)[: k + 1] == tuple(v)
        assert spec.g[: len(g)] == tuple(g)
        for bad in ({"v": v + [1.0]}, {"v": v[:-1]}, {"g": g + [1.0]}, {"g": g[:-1]},
                    {"k": -1 - k}):
            with pytest.raises(ValidationError):
                chains.spec_from_dict({"symmetric": {"k": k, "v": v, "g": g, **bad}})


class TestMirrorChain:
    @settings(max_examples=60, deadline=None)
    @given(
        n_cells=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_symmetric_with_given_left_half(self, n_cells, seed):
        rng = np.random.default_rng(seed)
        backbone = tuple(rng.uniform(0.05, 4.0, n_cells))
        pendants = tuple(rng.uniform(0.05, 4.0, (n_cells + 2) // 2))
        spec = chains.mirror_chain(backbone, pendants)
        assert spec.n_cells == n_cells
        assert chains.backbone_sequence(spec)[:n_cells] == backbone
        assert spec.g[: len(pendants)] == pendants
        assert chains.is_mirror_symmetric(spec)
        # H is invariant under the site reflection itself
        image = chains.mirror_sites(n_cells)
        h = chains.build_hamiltonian(spec).toarray()
        assert np.array_equal(h, h[np.ix_(image, image)])

    def test_wrong_pendant_count_rejected(self):
        with pytest.raises(ValidationError):
            chains.mirror_chain((1.0, 2.0), (1.0,))
        with pytest.raises(ValidationError):
            chains.mirror_chain((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        spec = random_chain(rng, 3)
        path = tmp_path / "spec.json"
        write_json(dataclasses.asdict(spec), path)
        loaded = chains.load_spec(path)
        assert loaded == spec

    def test_symmetric_form(self):
        spec = chains.spec_from_dict(
            {"symmetric": {"k": 2, "v": [1, 2, 3], "g": [0.5, 0.7]}}
        )
        assert spec.n == 11
        assert chains.is_mirror_symmetric(spec)

    def test_homogeneous_shorthand(self):
        spec = chains.spec_from_dict({"homogeneous": {"N": 8}})
        assert spec == chains.homogeneous_chain(8)

    @pytest.mark.parametrize(
        "data, unknown",
        [
            ({"homogeneous": {"N": 8, "couplng": 2}}, "couplng"),
            ({"homogeneous": {"N": 8}, "n_cells": 2}, "n_cells"),
            ({"symmetric": {"k": 2, "v": [1, 2, 3], "g": [0.5, 0.7], "w": [1]}}, "'w'"),
            ({"symmetric": {"k": 2, "v": [1, 2, 3], "g": [0.5, 0.7]}, "extra": 1}, "extra"),
            ({"n_cells": 1, "t": [1], "w": [1], "g": [1, 1], "numberng": "cell"}, "numberng"),
        ],
    )
    def test_unknown_keys_rejected(self, data, unknown):
        # a misspelt key must not silently fall back to its default
        with pytest.raises(ValidationError, match=unknown):
            chains.spec_from_dict(data)

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"homogeneous": {"N": 11.9}}, "'N'"),
            ({"homogeneous": {"N": "11"}}, "'N'"),
            ({"homogeneous": {"N": 11, "coupling": True}}, "'coupling'"),
            ({"symmetric": {"k": 1.5, "v": [1, 2], "g": [1]}}, "'k'"),
            ({"n_cells": 1.9, "t": [1], "w": [1], "g": [1, 1]}, "'n_cells'"),
            ({"n_cells": 1, "t": "1", "w": [1], "g": [1, 1]}, "'t'"),
            ({"n_cells": 1, "t": [1], "w": [1], "g": [1, 1], "numbering": 0}, "'numbering'"),
        ],
    )
    def test_mistyped_value_rejected(self, data, key):
        # a value is read as it is written: 11.9 is not rounded to 11, nor
        # "1" read character by character
        with pytest.raises(ValidationError, match=key):
            chains.spec_from_dict(data)

    def test_numbering_key_accepted(self):
        data = dict(dataclasses.asdict(chains.homogeneous_chain(8)), numbering="cell")
        assert chains.spec_from_dict(json.loads(json.dumps(data))) == chains.homogeneous_chain(8)

    def test_body_must_be_object(self):
        with pytest.raises(ValidationError):
            chains.spec_from_dict({"homogeneous": 8})

    def test_malformed_input(self, tmp_path):
        with pytest.raises(ValidationError):
            chains.spec_from_dict([1, 2, 3])
        with pytest.raises(ValidationError):
            chains.spec_from_dict({"n_cells": 2})
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_cells": 2, "t": [1')
        with pytest.raises(ValidationError):
            chains.load_spec(bad)
        with pytest.raises(ValidationError):
            chains.load_spec(tmp_path / "missing.json")


class TestHamiltonianProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        nc=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_spectrum_symmetry_random(self, nc, seed):
        # the chain graph is bipartite, so eigenvalues pair as +/- lambda
        rng = np.random.default_rng(seed)
        h = chains.build_hamiltonian(random_chain(rng, nc)).toarray()
        lam = np.sort(np.linalg.eigvalsh(h))
        assert np.max(np.abs(lam + lam[::-1])) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(
        nc=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_serialization_round_trip_random(self, nc, seed):
        rng = np.random.default_rng(seed)
        spec = random_chain(rng, nc)
        data = json.loads(json.dumps(dataclasses.asdict(spec)))
        assert chains.spec_from_dict(data) == spec
