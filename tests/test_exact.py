"""Tests for exact characteristic polynomials and the factor-degree column."""

import math

import numpy as np
import pytest
import sympy as sy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import char_poly_exact, factor_degrees, poly_eval, poly_trim, reduce_even
from qstc import chains, exact
from qstc.errors import NumericalError, StructuralError, UnsupportedInputError, ValidationError

# Frozen oracle: reported highest factor degree for k = 1..30.  Independently
# derived from the squared-eigenvalue formula y_j = 3 + 2 cos(pi j / (k+2))
# and the minimal polynomials of 2 cos(2 pi / n); cross-checked against the
# published degree column.
REPORTED_DEGREES = [
    2, 2, 2, 2, 3, 2, 3, 2, 5, 2, 6, 3, 2, 2, 8, 3, 9, 2, 6, 5,
    11, 2, 10, 6, 3, 3, 14, 2, 15, 2,
]

# Frozen oracle: family tags on the same rows (None where no family applies).
SEQUENCE_TAGS = {
    0: "S5", 1: "S8", 2: "S5", 3: "S14", 4: "S8", 6: "S5", 8: "S14",
    10: "S8", 13: "S44", 14: "S5", 18: "S14", 22: "S8", 28: "S44", 30: "S5",
}


class TestPolyHelpers:
    def test_trim(self):
        assert poly_trim([1, 2, 0, 0]) == [1, 2]
        assert poly_trim([0, 0]) == [0]
        assert poly_trim([]) == [0]

    def test_mul_and_eval(self):
        # (1 + x)(1 - x) = 1 - x^2
        assert exact.poly_mul([1, 1], [1, -1]) == [1, 0, -1]
        assert poly_eval([1, 0, -1], 3) == -8


class TestCharPolyExact:
    def test_two_by_two(self):
        # det(xI - [[0,1],[1,0]]) = x^2 - 1
        assert char_poly_exact(np.array([[0, 1], [1, 0]])) == [-1, 0, 1]

    def test_matches_float_charpoly(self):
        h = chains.build_hamiltonian(chains.homogeneous_chain(11)).toarray()
        coeffs = char_poly_exact(h)
        ref = np.poly(h)[::-1]  # low-first
        assert np.allclose(np.array(coeffs, dtype=float), ref, atol=1e-6)

    def test_rejects_non_integer(self):
        with pytest.raises(UnsupportedInputError):
            char_poly_exact(np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_constant_term_is_determinant(self):
        h = chains.build_hamiltonian(chains.homogeneous_chain(8)).toarray()
        coeffs = char_poly_exact(h)
        # det(xI - H) at x=0 equals det(-H) = (-1)^n det(H)
        assert coeffs[0] == round((-1) ** 8 * np.linalg.det(h))


class TestReduceEven:
    def test_round_trip(self):
        # x^2 * (x^4 - 5x^2 + 4) = x^(k+1) q(x^2) with k=1, q = y^2 - 5y + 4
        p = [0, 0, 4, 0, -5, 0, 1]
        assert reduce_even(p, 1) == [4, -5, 1]

    def test_sign_normalization(self):
        p = [0, 0, -4, 0, 5, 0, -1]
        assert reduce_even(p, 1) == [4, -5, 1]

    def test_rejects_wrong_null_order(self):
        with pytest.raises(StructuralError):
            reduce_even([0, 1, 0, 1], 1)

    def test_rejects_odd_part(self):
        with pytest.raises(StructuralError):
            reduce_even([0, 0, 1, 1, 1], 1)

    def test_consistent_with_full_charpoly(self):
        for k in (0, 1, 2, 3, 4):
            h = chains.build_hamiltonian(chains.homogeneous_chain(3 * k + 5)).toarray()
            assert reduce_even(char_poly_exact(h), k) == exact.reduced_charpoly_homogeneous(k)


class TestReducedCharpoly:
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 8])
    def test_roots_are_cosine_values(self, k):
        # squared nonzero eigenvalues are 3 + 2 cos(pi j / (k+2)), j=1..k+2
        m = k + 2
        q = exact.reduced_charpoly_homogeneous(k)
        roots = np.sort(np.roots(np.array(q[::-1], dtype=float)))
        expected = np.sort([3.0 + 2.0 * math.cos(math.pi * j / m) for j in range(1, m + 1)])
        assert np.max(np.abs(roots - expected)) < 1e-8

    @pytest.mark.parametrize("k", [10, 25])
    def test_cosine_identity_via_hamiltonian(self, k):
        # for larger k, root extraction from coefficients is ill-conditioned;
        # verify the same identity through the Hamiltonian spectrum instead
        m = k + 2
        h = chains.build_hamiltonian(chains.homogeneous_chain(3 * k + 5))
        lam = np.linalg.eigvalsh(h.toarray())
        squared = np.sort(lam[lam > 1e-9] ** 2)
        expected = np.sort([3.0 + 2.0 * math.cos(math.pi * j / m) for j in range(1, m + 1)])
        assert np.max(np.abs(squared - expected)) < 1e-10

    def test_monic_integer(self):
        q = exact.reduced_charpoly_homogeneous(7)
        assert q[-1] == 1
        assert all(isinstance(c, int) for c in q)

    def test_rejects_negative_k(self):
        with pytest.raises(ValidationError):
            exact.reduced_charpoly_homogeneous(-1)


def doubling_family(k):
    """S<N0> if 3k+5 = 2^level*(N0+1) - 1 for a family base N0, else None."""
    for n0 in (5, 8, 14, 44):
        length = n0
        while length < 3 * k + 5:
            length = 2 * length + 1
        if length == 3 * k + 5:
            return f"S{n0}"
    return None


class TestClassification:
    def test_sequence_tags(self):
        for k in range(0, 31):
            assert exact.classify_sequence(k) == SEQUENCE_TAGS.get(k)
        for k in range(-10, 3001):
            assert exact.classify_sequence(k) == doubling_family(k), k

    def test_reported_degrees(self):
        assert [exact.table_degree(k) for k in range(1, 31)] == REPORTED_DEGREES

    def test_sequences_report_quadratic(self):
        for k, tag in SEQUENCE_TAGS.items():
            if tag is not None and 1 <= k <= 30:
                assert exact.table_degree(k) == 2

    def test_cyclotomic_degrees_sum(self):
        # factor degrees partition deg q = k + 2
        for k in range(0, 25):
            assert sum(exact.char_poly_report(k).rational_degrees) == k + 2


class TestNumberTheory:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(min_value=1, max_value=10**5))
    @example(n=1)
    @example(n=2)
    @example(n=3**10)
    @example(n=99991)  # prime
    @example(n=316**2)  # square: its root is listed once
    def test_helpers_match_sympy(self, n):
        assert exact.divisors(n) == sy.divisors(n)
        assert exact.totient(n) == sy.totient(n)
        assert exact.prime_factors(n) == sy.primefactors(n)
        if n % 2 and n > 1:
            # table_degree's test for a pure power of 3
            assert (exact.prime_factors(n) == [3]) == (n == 3 ** sy.multiplicity(3, n))


class TestMinimalPolynomials:
    @pytest.mark.parametrize("n", range(2, 41))
    def test_cyclotomic_poly(self, n):
        z = sy.symbols("z")
        want = sy.Poly(sy.cyclotomic_poly(n, z), z).all_coeffs()[::-1]
        assert exact.cyclotomic_poly(n) == [int(c) for c in want]

    @pytest.mark.parametrize("n", range(3, 41))
    def test_psi_is_minimal_polynomial_of_2cos(self, n):
        x = sy.symbols("x")
        want = sy.Poly(sy.minimal_polynomial(2 * sy.cos(2 * sy.pi / n), x), x).all_coeffs()[::-1]
        assert exact.psi_poly(n) == [int(c) for c in want]

    def test_shift(self):
        # (y - 3)^2 + 1 = y^2 - 6 y + 10
        assert exact.poly_shift([1, 0, 1], 3) == [10, -6, 1]


class TestCharPolyReport:
    def test_report_fields(self):
        report = exact.char_poly_report(2)
        assert report.n == 11
        assert report.sequence == "S5"
        assert report.max_degree == 2
        assert report.certification == "proved"
        assert sum(report.rational_degrees) == report.k + 2

    def test_rational_degrees_match_prediction(self):
        # the linear factor y - 1, and one factor of degree phi(n)/2 per divisor n >= 3 of 2m
        for k in range(0, exact.K_CAP + 1):
            report = exact.char_poly_report(k)
            predicted = [1] + [sy.totient(n) // 2 for n in sy.divisors(2 * (k + 2)) if n >= 3]
            assert report.rational_degrees == tuple(sorted(predicted))
            assert report.certification == "proved"

    @pytest.mark.parametrize("k", [*range(0, 31), 50, 75, 100])
    def test_rational_degrees_match_factoring_oracle(self, k):
        report = exact.char_poly_report(k)
        assert report.rational_degrees == factor_degrees(list(report.reduced_poly))
        assert report.certification == "proved"

    def test_perturbed_polynomial_is_numerical_error(self, monkeypatch):
        reduced = exact.reduced_charpoly_homogeneous

        def perturbed(k):
            q = reduced(k)
            return [q[0] + 1, *q[1:]]

        monkeypatch.setattr(exact, "reduced_charpoly_homogeneous", perturbed)
        with pytest.raises(NumericalError):
            exact.char_poly_report(4)

    def test_to_dict_serializes_big_ints(self):
        payload = exact.char_poly_report(10).to_dict()
        assert all(isinstance(c, str) for c in payload["reduced_poly"])
        assert payload["N"] == 35

    def test_k_cap(self):
        # one cap: k = 51 ... 100 need no flag, k = 101 is out of range
        assert exact.char_poly_report(51).certification == "proved"
        with pytest.raises(ValidationError, match="0..100"):
            exact.char_poly_report(101)
        with pytest.raises(ValidationError):
            exact.char_poly_report(-1)

    @settings(max_examples=15, deadline=None)
    @given(k=st.integers(min_value=0, max_value=30))
    def test_reduced_poly_value_at_integer_point(self, k):
        # q(x) = product of (x - y_j) with y_j = 3 + 2 cos(pi j / (k+2))
        m = k + 2
        q = exact.reduced_charpoly_homogeneous(k)
        value = poly_eval(q, 6)
        expected = math.prod(6.0 - (3.0 + 2.0 * math.cos(math.pi * j / m)) for j in range(1, m + 1))
        assert isinstance(value, int)
        assert math.isclose(float(value), expected, rel_tol=1e-9)
