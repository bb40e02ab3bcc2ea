"""Eigenvalues, glueing and the spectral self-checks.

The structural facts used throughout:

* a chain with N = 3k+5 qubits has exactly k+1 null eigenvalues;
* the nonzero eigenvalues come in +/- pairs (the chain graph is bipartite);
* glueing two mirror copies of an odd-length chain through one extra qubit
  produces a chain of length 2N+1 whose spectrum contains the parent's, the
  N+1 new eigenvalues being those of an (N+1)x(N+1) bordered block.  The
  child is built by :func:`chains.mirror_chain` and block-diagonalized in
  cell order, the copies matched by :func:`chains.mirror_sites`.

Spectra come from one call, :func:`eigenvalues`, and every check passes below
:func:`tolerance`: SPECTRAL_TOL times the largest |eigenvalue| tested.  So,
like the facts above, the verdicts do not change when all couplings are
rescaled.  Every nonzero |lambda| >= min g (J = B B^T >= diag(g^2)), while a
null mode computes to about N eps max|lambda|.

The squared nonzero eigenvalues are the eigenvalues of the (k+2)x(k+2)
Jacobi matrix :func:`chains.jacobi_matrix`.  The nested-radical spectra of the
homogeneous families that glueing generates live in :mod:`qstc.exact`
(``sequence_tags``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import chains
from .chains import ChainSpec, HamiltonianMatrix
from .errors import NumericalError, StructuralError, ValidationError

#: a spectral check passes when its deviation is below SPECTRAL_TOL times the
#: largest |eigenvalue| of the spectrum it tests
SPECTRAL_TOL = 1e-10


def _fingerprint(h):
    payload = np.ascontiguousarray(np.round(h, 12)).tobytes()
    return hashlib.sha256(payload).hexdigest()[:16]


def _dense(h):
    if isinstance(h, HamiltonianMatrix):
        return h.toarray()
    return np.asarray(h, dtype=float)


def eigenvalues(h):
    """Eigenvalues of a symmetric matrix, ascending, by one ``eigvalsh`` call.

    The solver sees the matrix divided by the power of two that brings its
    largest |entry| into [1/2, 1); LAPACK is not exactly equivariant under
    power-of-two scaling (its null modes can differ in the last bits), so this
    makes the matrix times 2^j give exactly the eigenvalues times 2^j.
    """
    mat = _dense(h)
    _, exp = np.frexp(np.max(np.abs(mat), initial=0.0))
    try:
        return np.ldexp(np.linalg.eigvalsh(np.ldexp(mat, -exp)), exp)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed on matrix {_fingerprint(mat)}: {exc}"
        ) from exc


def tolerance(lam):
    """Largest deviation that passes a check on the spectrum ``lam``."""
    return SPECTRAL_TOL * float(np.max(np.abs(lam), initial=0.0))


def _null_count(lam):
    """Number of eigenvalues within :func:`tolerance` of zero."""
    return int(np.count_nonzero(np.abs(lam) < tolerance(lam)))


# ---------------------------------------------------------------------------
# glueing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlueResult:
    """Outcome of glueing two mirror copies of a chain through one qubit.

    ``transform`` is orthogonal and block-diagonalizes the child Hamiltonian
    into ``block_a`` (N+1 rows) plus the parent Hamiltonian, both in cell
    order: its first N columns are the mirror-even combinations of the two
    copies, then the bridge qubit, then the mirror-odd combinations.
    """

    child: ChainSpec
    block_a: np.ndarray
    transform: np.ndarray


def glue(parent, bridge_v):
    """Glue two mirror copies of ``parent`` through one qubit.

    The parent must be mirror symmetric with an odd number of qubits; the new
    qubit couples to both backbone end qubits with strength ``bridge_v``.
    """
    if not 0 < bridge_v < np.inf:
        raise ValidationError(f"bridge coupling must be positive and finite, got {bridge_v}")
    if parent.n % 2 == 0:
        raise StructuralError(f"cannot glue an even-length chain (N={parent.n})")
    if not chains.is_mirror_symmetric(parent):
        raise StructuralError("glueing requires a mirror-symmetric parent chain")

    n = parent.n
    child = chains.mirror_chain(chains.backbone_sequence(parent) + (bridge_v,), parent.g)
    # the bridge couples to the right corner A1 of the left copy, site n-2
    block_a = np.zeros((n + 1, n + 1))
    block_a[:n, :n] = chains.build_hamiltonian(parent).toarray()
    block_a[n, n - 2] = block_a[n - 2, n] = np.sqrt(2.0) * bridge_v

    # parent site i is child site i in the left copy and image[i] in the right one
    image = chains.mirror_sites(child.n_cells)[:n]
    sites = np.arange(n)
    transform = np.zeros((child.n, child.n))
    transform[sites, sites] = transform[image, sites] = 1 / np.sqrt(2.0)
    transform[sites, sites + n + 1] = 1 / np.sqrt(2.0)
    transform[image, sites + n + 1] = -1 / np.sqrt(2.0)
    transform[n, n] = 1.0
    return GlueResult(child=child, block_a=block_a, transform=transform)


def match_contained(sub, full, tol):
    """Is every value of ``sub`` present in ``full``, multiplicities respected?

    Returns ``(d <= tol, d)``: d is the smallest max-deviation |full_j - sub_i|
    over all one-to-one matchings of ``sub`` into ``full`` (0 for an empty
    ``sub``, inf when ``full`` is too short), so it does not depend on ``tol``.
    Sorted values always have an order-preserving best matching, so one
    recurrence finds d: after each sorted sub value, ``best[j]`` is the
    smallest max-deviation matching the values so far into the first j of the
    sorted ``full``.
    """
    sub, full = (np.sort(np.asarray(v, dtype=float)) for v in (sub, full))
    best = np.zeros(len(full) + 1)
    for dev in np.abs(np.subtract.outer(sub, full)):  # |full - x| for each sub value x
        np.minimum.accumulate(np.maximum(best[:-1], dev), out=best[1:])
        best[0] = np.inf
    d = float(best[-1])
    return bool(d <= tol), d


@dataclass(frozen=True)
class LemmaReport:
    """Spectral self-checks for a chain; None means not applicable."""

    lemma1: bool | None
    lemma2: bool
    lemma3: bool
    lemma4: bool | None
    violations: dict = field(default_factory=dict)


def verify_lemmas(spec):
    """Check null multiplicity, +/- pairing and (when glueable) the glue laws.

    Deviations pass below the :func:`tolerance` of the chain's spectrum
    (pairing) or the glued child's (the rest); the bridge is the chain's
    largest coupling.  So the chain scaled by 2^j gets the same verdicts and
    null multiplicity, with every deviation times exactly 2^j.
    """
    lam = eigenvalues(chains.build_hamiltonian(spec))
    violations = {}

    violations["null_multiplicity"] = null = _null_count(lam)
    lemma2 = null == spec.k + 1

    pair_dev = float(np.max(np.abs(lam + lam[::-1])))
    lemma3 = pair_dev < tolerance(lam)
    violations["pairing_deviation"] = pair_dev

    lemma1 = lemma4 = None
    if spec.n % 2 == 1 and chains.is_mirror_symmetric(spec):
        result = glue(spec, max(spec.t + spec.w + spec.g))
        h_child = chains.build_hamiltonian(result.child).toarray()
        lam_child = eigenvalues(h_child)
        tol = tolerance(lam_child)
        ok1, dev1 = match_contained(lam, lam_child, tol)
        lemma1 = ok1
        violations["containment_deviation"] = dev1

        block = result.transform.T @ h_child @ result.transform
        m = spec.n + 1  # the bordered block's size; both off-diagonal blocks are m x (m - 1)
        resid = float(np.max(np.abs([block[:m, m:], block[m:, :m].T])))
        ok4, dev4 = match_contained(
            np.concatenate([eigenvalues(result.block_a), lam]), lam_child, tol
        )
        lemma4 = resid < tol and ok4
        violations["block_residual"] = resid
        violations["block_eigen_deviation"] = dev4

    return LemmaReport(
        lemma1=lemma1, lemma2=lemma2, lemma3=lemma3, lemma4=lemma4, violations=violations
    )


def spectrum_to_dict(lam, tags=None):
    """JSON payload {eigenvalues, null_multiplicity, tags} of ascending ``lam``.

    ``tags`` are the exact eigenvalues as strings, one per eigenvalue in the
    same order; none are written when they are not known.
    """
    return {
        "eigenvalues": [float(x) for x in lam],
        "null_multiplicity": _null_count(lam),
        "tags": list(tags) if tags is not None else [],
    }
