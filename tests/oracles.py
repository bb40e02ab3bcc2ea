"""Independent oracles for :mod:`qstc.exact`, used only by the tests.

``char_poly_exact`` computes det(xI - H) of any integer matrix by the
Faddeev-LeVerrier recursion, without the chain structure that
``exact.reduced_charpoly_homogeneous`` relies on; ``reduce_even`` checks and
strips the x^(k+1) q(x^2) form so the two can be compared.  Polynomials are
coefficient lists, lowest degree first.
"""

import numpy as np

from qstc.errors import NumericalError, StructuralError, UnsupportedInputError, ValidationError
from qstc.exact import poly_trim


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _integer_matrix(mat):
    mat = np.asarray(mat)
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
