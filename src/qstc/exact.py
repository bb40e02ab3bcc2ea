"""Exact characteristic polynomials and the factor-degree column of Table 2.

Everything here runs on arbitrary-precision integers; no floating point enters
the core computations.  Polynomials are coefficient lists, lowest degree
first.

A homogeneous chain with N = 3k+5 qubits has characteristic polynomial
x^(k+1) * q(x^2) where q is monic of degree k+2 with integer coefficients;
``reduced_charpoly_homogeneous`` produces q directly as the characteristic
polynomial of the A1-sublattice Jacobi matrix :func:`chains.jacobi_matrix`,
which carries the nonzero part of the spectrum, while ``char_poly_exact``
computes the full polynomial of any integer-coupling chain by the
Faddeev-LeVerrier recursion.

``char_poly_report`` factors q over the rationals once and certifies the
result against the cyclotomic prediction ``cyclotomic_factor_degrees``; the
published degree column itself comes from ``table_degree``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import sympy as sy

from . import chains
from .errors import NumericalError, StructuralError, UnsupportedInputError, ValidationError

DEFAULT_K_CAP = 50
HARD_K_CAP = 100


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficients lowest degree first)
# ---------------------------------------------------------------------------


def poly_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return list(p) if len(p) else [0]


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# exact characteristic polynomials
# ---------------------------------------------------------------------------


def _integer_matrix(h):
    mat = h.toarray() if isinstance(h, chains.HamiltonianMatrix) else np.asarray(h)
    rounded = np.rint(mat)
    if not np.array_equal(rounded, mat):
        raise UnsupportedInputError("exact characteristic polynomial needs integer couplings")
    n = mat.shape[0]
    return [[int(rounded[i, j]) for j in range(n)] for i in range(n)]


def char_poly_exact(h):
    """Exact char poly det(xI - H) of an integer matrix, monic, low-first.

    Faddeev-LeVerrier with big integers; every division in the recursion is
    exact.
    """
    a = _integer_matrix(h)
    n = len(a)
    if n == 0:
        raise ValidationError("empty matrix")
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # identity
    for step in range(1, n + 1):
        prod = [
            [sum(a[i][l] * m[l][j] for l in range(n) if a[i][l]) for j in range(n)]
            for i in range(n)
        ]
        trace = sum(prod[i][i] for i in range(n))
        if trace % step != 0:
            raise NumericalError("Faddeev-LeVerrier divisibility failure")
        c = -trace // step
        coeffs[n - step] = c
        for i in range(n):
            prod[i][i] += c
        m = prod
    return coeffs


def reduce_even(p, k):
    """Divide out x^(k+1) and substitute y = x^2.

    Fails with :class:`StructuralError` when the polynomial is not of the form
    x^(k+1) * q(x^2), which signals a broken null-multiplicity or pairing
    property upstream.
    """
    p = poly_trim(p)
    if len(p) <= k + 1 or any(c != 0 for c in p[: k + 1]):
        raise StructuralError(f"polynomial is not divisible by x^{k + 1}")
    shifted = p[k + 1:]
    if any(c != 0 for c in shifted[1::2]):
        raise StructuralError("quotient is not even in x")
    q = shifted[0::2]
    if q[-1] < 0:
        q = [-c for c in q]
    return poly_trim(q)


def reduced_charpoly_homogeneous(k):
    """Monic integer q(y) with char poly(h_{3k+5}) = x^(k+1) q(x^2).

    The nonzero squared eigenvalues of the homogeneous chain are the
    eigenvalues of its (k+2)x(k+2) Jacobi matrix :func:`chains.jacobi_matrix`;
    q is that matrix's characteristic polynomial, computed by the three-term
    continuant recurrence.
    """
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    jac = _integer_matrix(chains.jacobi_matrix(chains.homogeneous_chain(3 * k + 5)))
    prev = [1]
    cur = [-jac[0][0], 1]
    for j in range(1, len(jac)):
        nxt = poly_mul([-jac[j][j], 1], cur)
        off2 = jac[j][j - 1] ** 2
        for i, cf in enumerate(prev):
            nxt[i] -= off2 * cf
        prev, cur = cur, nxt
    return poly_trim(cur)


# ---------------------------------------------------------------------------
# factor degrees and sequence classification
# ---------------------------------------------------------------------------


def cyclotomic_factor_degrees(k):
    """Rational factor degrees of the reduced polynomial, from first principles.

    The squared nonzero eigenvalues of the homogeneous chain with N = 3k+5
    qubits are y_j = 3 + 2 cos(pi j / m) with m = k+2.  Each divisor n >= 3
    of 2m contributes one irreducible factor of degree phi(n)/2 (the minimal
    polynomial of 3 + 2 cos(2 pi / n)), and n = 2 contributes the linear
    factor y - 1.  Returns the sorted degree multiset.
    """
    m = k + 2
    degrees = [1]  # n = 2, root y = 1
    for n in sy.divisors(2 * m):
        if n >= 3:
            degrees.append(int(sy.totient(n)) // 2)
    return tuple(sorted(degrees))


def _odd_part(n):
    while n % 2 == 0:
        n //= 2
    return n


def table_degree(k):
    """Highest residual factor degree after peeling catalogued radicals.

    Convention used by the published degree column: a factor whose roots
    belong to one of the catalogued square-root doubling families (conductor
    odd part 1, 3, 5 or 15) counts as quadratic; a factor reachable by a
    tower of angle trisections over such a family (odd part a higher power of
    3) counts as cubic; every other factor counts with its rational degree.
    The result is floored at 2 because eigenvalues are square roots of the
    polynomial's roots.
    """
    m = k + 2
    worst = 2
    for n in sy.divisors(2 * m):
        if n < 3:
            continue
        u = _odd_part(n)
        if u in (1, 3, 5, 15):
            reported = 2
        elif u == 3 ** sy.multiplicity(3, u):
            reported = 3  # pure power of 3: trisection tower
        else:
            # angle halvings peel the even conductor part; the obstruction
            # degree comes from the odd part alone
            reported = int(sy.totient(u)) // 2
        worst = max(worst, reported)
    return worst


def classify_sequence(k):
    """Family tag ('S5', ...) if 3k+5 = 2^m*(N0+1)-1 for a catalogued N0."""
    n = 3 * k + 5
    for n0 in (5, 8, 14, 44):
        length = n0
        while length <= n:
            if length == n:
                return f"S{n0}"
            length = 2 * length + 1
    return None


@dataclass(frozen=True)
class CharPolyReport:
    """Exact spectral-algebra summary of a homogeneous chain.

    ``rational_degrees`` are the sorted degrees of the irreducible rational
    factors of the reduced polynomial; ``certification`` is "proved" when they
    equal :func:`cyclotomic_factor_degrees` and "evidence" otherwise.
    """

    k: int
    n: int
    reduced_poly: tuple
    rational_degrees: tuple
    max_degree: int
    certification: str
    sequence: str | None

    def to_dict(self):
        return {
            "k": self.k,
            "N": self.n,
            "reduced_poly": [str(c) for c in self.reduced_poly],
            "factor_degrees": list(self.rational_degrees),
            "rational_degrees": list(self.rational_degrees),
            "max_degree": self.max_degree,
            "certification": self.certification,
            "sequence": self.sequence,
        }


def char_poly_report(k, allow_large=False):
    """Full report for the homogeneous chain with N = 3k+5 qubits."""
    cap = HARD_K_CAP if allow_large else DEFAULT_K_CAP
    if not 0 <= k <= cap:
        raise ValidationError(
            f"k={k} outside supported range 0..{cap}"
            + ("" if allow_large else " (pass allow_large=True up to 100)")
        )
    if allow_large and k > DEFAULT_K_CAP:
        warnings.warn(f"k={k}: exact factorization beyond k={DEFAULT_K_CAP} can be slow")
    q = reduced_charpoly_homogeneous(k)
    y = sy.symbols("y")
    factors = sy.factor_list(sy.Poly(list(reversed(q)), y, domain="ZZ"))[1]
    rational = tuple(sorted(f.degree() for f, mult in factors for _ in range(mult)))
    certification = "proved" if rational == cyclotomic_factor_degrees(k) else "evidence"
    return CharPolyReport(
        k=k,
        n=3 * k + 5,
        reduced_poly=tuple(q),
        rational_degrees=rational,
        max_degree=table_degree(k),
        certification=certification,
        sequence=classify_sequence(k),
    )
