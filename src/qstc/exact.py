"""Exact characteristic polynomials and the factor-degree column of Table 2.

Everything here runs on arbitrary-precision integers; no floating point enters
the core computations.  Polynomials are coefficient lists, lowest degree
first.

A homogeneous chain with N = 3k+5 qubits has characteristic polynomial
x^(k+1) * q(x^2) where q is monic of degree k+2 with integer coefficients;
``reduced_charpoly_homogeneous`` produces q directly as the characteristic
polynomial of the A1-sublattice Jacobi matrix :func:`chains.jacobi_matrix`,
which carries the nonzero part of the spectrum.  (The test suite checks it
against the full Faddeev-LeVerrier polynomial of H.)

``char_poly_report`` proves the rational factorization of q without factoring
it.  With m = k+2, q(y) = (y - 1) * prod_{n | 2m, n >= 3} Psi_n(y - 3), where
Psi_n (:func:`psi_poly`) is the minimal polynomial of 2 cos(2 pi / n).  Psi_n
is irreducible over the rationals of degree phi(n)/2 (D. H. Lehmer, Amer.
Math. Monthly 40, 165 (1933)) and is Phi_n(z) z^(-phi(n)/2) written in
x = z + 1/z (W. Watkins and J. Zeitlin, Amer. Math. Monthly 100, 471 (1993)).
So one exact check of that integer identity proves the rational factor
degrees, which ``char_poly_report`` reads off the very factors it has just
multiplied; the published degree column itself comes from ``table_degree``.

The divisors, totients and prime factors these identities need come from the
integer helpers below, so importing this module does not load sympy.

The solvable families S5, S8, S14 and S44 are catalogued here once, in
``_FAMILIES``, keyed by the odd part of m = k+2: ``classify_sequence`` tags a
length with its family, ``table_degree`` counts the families' factors as
quadratic, and ``sequence_tags`` builds the nested-radical eigenvalues of a
catalogued length by their index j, which ``spectrum --exact`` writes.  Only
``sequence_tags`` prints radicals, so it alone imports sympy, when called.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from . import chains
from .errors import NumericalError, ValidationError

K_CAP = 100


# ---------------------------------------------------------------------------
# integer number theory (n >= 1)
# ---------------------------------------------------------------------------


def prime_factors(n):
    """Distinct prime factors of n, ascending, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def totient(n):
    """Euler's phi(n) = n prod_{p | n} (1 - 1/p)."""
    for p in prime_factors(n):
        n -= n // p
    return n


def divisors(n):
    """Divisors of n, ascending."""
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficients lowest degree first)
# ---------------------------------------------------------------------------


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_shift(p, s):
    """p(y - s), by Horner steps on the linear factor y - s."""
    out = [p[-1]]
    for c in reversed(p[:-1]):
        out = poly_mul(out, [-s, 1])
        out[0] += c
    return out


def cyclotomic_poly(n):
    """Phi_n(z) for n >= 2, as prod_{d | n} (1 - z^d)^mu(n/d) mod z^(phi(n)+1).

    Each factor is one pass over the coefficients: a product with 1 - z^d or
    a division by it (a running sum with stride d); truncated power series
    form a ring, so the order of the passes does not matter.
    """
    size = totient(n) + 1
    p = [1] + [0] * (size - 1)
    primes = prime_factors(n)
    for mask in range(1 << len(primes)):
        d, odd = n, False
        for i, prime in enumerate(primes):
            if mask >> i & 1:
                d, odd = d // prime, not odd
        if odd:  # mu(n/d) = -1
            for i in range(d, size):
                p[i] += p[i - d]
        else:
            for i in reversed(range(d, size)):
                p[i] -= p[i - d]
    return p


def psi_poly(n):
    """Minimal polynomial Psi_n(x) of 2 cos(2 pi / n), n >= 3, degree phi(n)/2.

    Phi_n is palindromic of degree 2e, so z^(-e) Phi_n(z) = a_e +
    sum_{j>=1} a_(e+j) (z^j + z^-j), and z^j + z^-j = C_j(z + 1/z) with
    C_0 = 2, C_1 = x, C_(j+1) = x C_j - C_(j-1).
    """
    a = cyclotomic_poly(n)
    e = len(a) // 2
    out = [0] * (e + 1)
    out[0] = a[e]
    prev, cur = [2], [0, 1]
    for j in range(1, e + 1):
        for i, c in enumerate(cur):
            out[i] += a[e + j] * c
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return out


# ---------------------------------------------------------------------------
# exact characteristic polynomials
# ---------------------------------------------------------------------------


def reduced_charpoly_homogeneous(k):
    """Monic integer q(y) with char poly(h_{3k+5}) = x^(k+1) q(x^2).

    The nonzero squared eigenvalues of the homogeneous chain are the
    eigenvalues of its (k+2)x(k+2) Jacobi matrix :func:`chains.jacobi_matrix`;
    q is that matrix's characteristic polynomial, computed by the three-term
    continuant recurrence.
    """
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    spec = chains.homogeneous_chain(3 * k + 5)
    jac = chains.jacobi_matrix(spec.t, spec.w, spec.g).astype(int).tolist()
    prev = [1]
    cur = [-jac[0][0], 1]
    for j in range(1, len(jac)):
        nxt = poly_mul([-jac[j][j], 1], cur)
        off2 = jac[j][j - 1] ** 2
        for i, cf in enumerate(prev):
            nxt[i] -= off2 * cf
        prev, cur = cur, nxt
    return cur


# ---------------------------------------------------------------------------
# factor degrees and sequence classification
# ---------------------------------------------------------------------------


def _odd_part(n):
    while n % 2 == 0:
        n //= 2
    return n


# The catalogued solvable families, keyed by conductor: the odd part u of
# m = k+2.  Each value is the family's shortest length N0 = 3*m0 - 1, whose
# base is m0 = max(u, 2); every glueing step doubles m.
_FAMILIES = {1: 5, 3: 8, 5: 14, 15: 44}


def table_degree(k):
    """Highest residual factor degree after peeling catalogued radicals.

    Convention used by the published degree column: a factor whose roots
    belong to one of the catalogued square-root doubling families (conductor
    odd part a key of ``_FAMILIES``) counts as quadratic; a factor reachable
    by a tower of angle trisections over such a family (odd part a higher
    power of 3) counts as cubic; every other factor counts with its rational
    degree.  The result is floored at 2 because eigenvalues are square roots
    of the polynomial's roots.
    """
    m = k + 2
    worst = 2
    for n in divisors(2 * m):
        if n < 3:
            continue
        u = _odd_part(n)
        if u in _FAMILIES:
            reported = 2
        elif prime_factors(u) == [3]:
            reported = 3  # pure power of 3: trisection tower
        else:
            # angle halvings peel the even conductor part; the obstruction
            # degree comes from the odd part alone
            reported = totient(u) // 2
        worst = max(worst, reported)
    return worst


def _family(k):
    """(N0, m0) of the catalogued family with k+2 = 2^level*m0, else None."""
    m = k + 2
    if m < 2:  # shorter than every base; the odd part of 0 is undefined
        return None
    u = _odd_part(m)
    return (_FAMILIES[u], max(u, 2)) if u in _FAMILIES else None


def classify_sequence(k):
    """Family tag ('S5', ...) if 3k+5 = 2^level*(N0+1) - 1 for a catalogued N0."""
    family = _family(k)
    return None if family is None else f"S{family[0]}"


def _base_thetas(m0):
    """theta_j = 2 cos(pi j / m0) for j = 1..m0, in radicals, in j order."""
    import sympy as sy

    if m0 != 15:
        return [2 * sy.cos(sy.pi * j / m0) for j in range(1, m0 + 1)]
    # sympy leaves cos(pi j / 15) unevaluated for j coprime to 15, so the S44
    # base is written out for j = 1..7 and mirrored: theta_(15-j) = -theta_j.
    r5 = sy.sqrt(5)
    a, b = sy.sqrt(30 + 6 * r5), sy.sqrt(30 - 6 * r5)
    half = [(r5 - 1 + a) / 4, (r5 + 1 + b) / 4, (r5 + 1) / 2, (1 - r5 + a) / 4,
            sy.Integer(1), (r5 - 1) / 2, (b - r5 - 1) / 4]
    return half + [-th for th in reversed(half)] + [sy.Integer(-2)]


def sequence_tags(k):
    """Exact eigenvalues of the homogeneous chain with N = 3k+5 qubits.

    Returns the N eigenvalues as nested-radical strings in ascending order
    (negatives, the k+1 zeros, positives), or None when 3k+5 belongs to no
    catalogued family.  With m = k+2, the positives are sqrt(3 + theta_j) for
    j = m, ..., 1, where theta_j = 2 cos(pi j / m) runs over the spectrum of
    J - 3I (:func:`chains.jacobi_matrix`).  One glueing step doubles m: at 2m,
    theta_(2j) is theta_j at m, and an odd j takes +sqrt(2 + theta_j) when
    j <= m and -sqrt(2 + theta_(2m-j)) when j > m.
    """
    family = _family(k)
    if family is None:
        return None
    import sympy as sy

    m = family[1]
    thetas = _base_thetas(m)  # thetas[j - 1] is theta_j
    while m < k + 2:
        thetas = [
            thetas[j // 2 - 1] if j % 2 == 0
            else sy.sqrt(2 + thetas[j - 1]) if j <= m
            else -sy.sqrt(2 + thetas[2 * m - j - 1])
            for j in range(1, 2 * m + 1)
        ]
        m *= 2
    tags = [sy.sstr(sy.sqrt(3 + th)) for th in reversed(thetas)]
    return [f"-{t}" for t in reversed(tags)] + ["0"] * (k + 1) + tags


@dataclass(frozen=True)
class CharPolyReport:
    """Exact spectral-algebra summary of a homogeneous chain.

    ``rational_degrees`` are the sorted degrees of the irreducible rational
    factors of the reduced polynomial, read off the factors of the identity
    that :func:`char_poly_report` checks, q(y) = (y - 1) prod_{n | 2m, n >= 3}
    Psi_n(y - 3).  ``certification`` is always "proved": each Psi_n is
    irreducible of degree phi(n)/2 (Lehmer 1933; Watkins and Zeitlin 1993),
    so the degrees follow with no factoring.
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


def char_poly_report(k):
    """Full report for the homogeneous chain with N = 3k+5 qubits.

    A reduced polynomial that fails the product identity is a
    :class:`NumericalError`: both sides are exact, so it can only be a bug.
    """
    if not 0 <= k <= K_CAP:
        raise ValidationError(f"k={k} outside supported range 0..{K_CAP}")
    q = reduced_charpoly_homogeneous(k)
    factors = [poly_shift(psi_poly(n), 3) for n in divisors(2 * (k + 2)) if n >= 3]
    product = [-1, 1]  # y - 1, the root 3 + 2 cos(pi)
    for factor in factors:
        product = poly_mul(product, factor)
    if product != q:
        raise NumericalError(f"k={k}: q(y) is not (y - 1) prod Psi_n(y - 3)")
    return CharPolyReport(
        k=k,
        n=3 * k + 5,
        reduced_poly=tuple(q),
        rational_degrees=tuple(sorted([1] + [len(factor) - 1 for factor in factors])),
        max_degree=table_degree(k),
        certification="proved",
        sequence=classify_sequence(k),
    )
