"""Eigen-decomposition, glueing and the spectral self-checks.

The structural facts used throughout:

* a chain with N = 3k+5 qubits has exactly k+1 null eigenvalues;
* the nonzero eigenvalues come in +/- pairs (the chain graph is bipartite);
* glueing two mirror copies of an odd-length chain through one extra qubit
  produces a chain of length 2N+1 whose spectrum contains the parent's, the
  N+1 new eigenvalues being those of an (N+1)x(N+1) bordered block.  The
  child is built by :func:`chains.mirror_chain` and block-diagonalized in
  cell order, the copies matched by :func:`chains.mirror_sites`.

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

# |lambda| < ZERO_TOL_FACTOR * max|lambda| classifies a null eigenvalue.
ZERO_TOL_FACTOR = 1e-9
# verify_lemmas: largest deviation that passes, and the bridge coupling it glues with
LEMMA_TOL = 1e-10
LEMMA_BRIDGE_V = 1.0


@dataclass(frozen=True)
class Spectrum:
    """Eigen-decomposition of a one-excitation Hamiltonian.

    ``eigenvalues`` ascending; ``eigenvectors[:, j]`` is the j-th orthonormal
    eigenvector.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    null_multiplicity: int


def _fingerprint(h):
    payload = np.ascontiguousarray(np.round(h, 12)).tobytes()
    return hashlib.sha256(payload).hexdigest()[:16]


def _dense(h):
    if isinstance(h, HamiltonianMatrix):
        return h.toarray()
    return np.asarray(h, dtype=float)


def _null_count(eigenvalues):
    scale = float(np.max(np.abs(eigenvalues))) if len(eigenvalues) else 0.0
    tol = ZERO_TOL_FACTOR * max(scale, 1.0)
    return int(np.count_nonzero(np.abs(eigenvalues) < tol))


def decompose(h):
    """Full symmetric eigen-decomposition, eigenvalues ascending."""
    mat = _dense(h)
    try:
        lam, vec = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed on matrix {_fingerprint(mat)}: {exc}"
        ) from exc
    return Spectrum(
        eigenvalues=lam,
        eigenvectors=vec,
        null_multiplicity=_null_count(lam),
    )


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
    """Greedy sorted matching: is every value of ``sub`` present in ``full``?

    Multiplicities are respected; returns the largest unmatched deviation.
    """
    sub = np.sort(np.asarray(sub))
    full = np.sort(np.asarray(full))
    worst = 0.0
    j = 0
    for x in sub:
        # entries below x - tol cannot match any later (sorted) value either
        while j < len(full) and full[j] < x - tol:
            j += 1
        if j >= len(full):
            return False, np.inf
        d = abs(full[j] - x)
        worst = max(worst, d)
        if d > tol:
            return False, worst
        j += 1
    return True, worst


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

    Deviations below :data:`LEMMA_TOL` pass; glueing uses a bridge coupling of
    :data:`LEMMA_BRIDGE_V`.
    """
    h = chains.build_hamiltonian(spec)
    spectrum = decompose(h)
    lam = spectrum.eigenvalues
    violations = {}

    lemma2 = spectrum.null_multiplicity == spec.k + 1
    violations["null_multiplicity"] = spectrum.null_multiplicity

    pair_dev = float(np.max(np.abs(lam + lam[::-1])))
    lemma3 = pair_dev < LEMMA_TOL
    violations["pairing_deviation"] = pair_dev

    lemma1 = lemma4 = None
    if spec.n % 2 == 1 and chains.is_mirror_symmetric(spec):
        result = glue(spec, LEMMA_BRIDGE_V)
        h_child = chains.build_hamiltonian(result.child).toarray()
        lam_child = np.linalg.eigvalsh(h_child)
        ok1, dev1 = match_contained(lam, lam_child, LEMMA_TOL)
        lemma1 = ok1
        violations["containment_deviation"] = dev1

        block = result.transform.T @ h_child @ result.transform
        n = spec.n
        off = block.copy()
        off[: n + 1, : n + 1] = 0.0
        off[n + 1:, n + 1:] = 0.0
        resid = float(np.max(np.abs(off)))
        lam_a = np.linalg.eigvalsh(result.block_a)
        ok4, dev4 = match_contained(
            np.concatenate([lam_a, lam]), lam_child, LEMMA_TOL
        )
        lemma4 = resid < LEMMA_TOL and ok4
        violations["block_residual"] = resid
        violations["block_eigen_deviation"] = dev4

    return LemmaReport(
        lemma1=lemma1, lemma2=lemma2, lemma3=lemma3, lemma4=lemma4, violations=violations
    )


def spectrum_to_dict(spectrum, tags=None):
    """JSON payload {eigenvalues, null_multiplicity, tags}.

    ``tags`` are the exact eigenvalues as strings, one per eigenvalue in the
    same order; none are written when they are not known.
    """
    return {
        "eigenvalues": [float(x) for x in spectrum.eigenvalues],
        "null_multiplicity": spectrum.null_multiplicity,
        "tags": list(tags) if tags is not None else [],
    }
