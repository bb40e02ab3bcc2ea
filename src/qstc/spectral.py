"""Eigen-decomposition, glueing and the spectral self-checks.

The structural facts used throughout:

* a chain with N = 3k+5 qubits has exactly k+1 null eigenvalues;
* the nonzero eigenvalues come in +/- pairs (the chain graph is bipartite);
* glueing two mirror copies of an odd-length chain through one extra qubit
  produces a chain of length 2N+1 whose spectrum contains the parent's, the
  N+1 new eigenvalues being those of an (N+1)x(N+1) bordered block.

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


def glue_order(spec):
    """Mirror-adapted site order of an odd-length symmetric chain.

    Position j and position N+1-j are mirror images; the first and last
    positions are the two backbone end qubits.  In this order the reflection
    acts as plain index reversal, which is what the glueing transform needs.
    """
    k = spec.k
    if spec.n % 2 == 0:
        raise StructuralError(f"glue order needs an odd-length chain, got N={spec.n}")
    left = []
    for b in range(1, k + 2):
        if b % 2 == 1:
            left.append(("A1", (b + 1) // 2))
            left.append(("A2", (b + 1) // 2))
        else:
            left.append(("B", b // 2))
    center = ("B", (k + 2) // 2)
    right = [chains.mirror_site(s, spec.n_cells) for s in reversed(left)]
    return left + [center] + right


@dataclass(frozen=True)
class GlueResult:
    """Outcome of glueing two mirror copies of a chain through one qubit.

    ``transform`` is orthogonal and block-diagonalizes the child Hamiltonian
    (cell order) into ``block_a`` plus the parent Hamiltonian in its
    mirror-adapted order (``parent_glue``).
    """

    child: ChainSpec
    block_a: np.ndarray
    transform: np.ndarray
    parent_glue: np.ndarray


def glue(parent, bridge_v):
    """Glue two mirror copies of ``parent`` through one qubit.

    The parent must be mirror symmetric with an odd number of qubits; the new
    qubit couples to both backbone end qubits with strength ``bridge_v``.
    """
    if bridge_v <= 0:
        raise ValidationError(f"bridge coupling must be positive, got {bridge_v}")
    if parent.n % 2 == 0:
        raise StructuralError(f"cannot glue an even-length chain (N={parent.n})")
    if not chains.is_mirror_symmetric(parent):
        raise StructuralError("glueing requires a mirror-symmetric parent chain")

    n = parent.n
    k = parent.k
    order = glue_order(parent)
    idx = [chains.cell_index(s, parent.n_cells) for s in order]
    h_p = chains.build_hamiltonian(parent).toarray()[np.ix_(idx, idx)]

    seq = chains.backbone_sequence(parent)
    child_seq = list(seq) + [bridge_v, bridge_v] + list(seq[::-1])
    child = ChainSpec(
        n_cells=2 * k + 3,
        t=tuple(child_seq[0::2]),
        w=tuple(child_seq[1::2]),
        g=tuple(parent.g) + tuple(parent.g[::-1]),
    )

    block_a = np.zeros((n + 1, n + 1))
    block_a[:n, :n] = h_p
    block_a[n, n - 1] = block_a[n - 1, n] = np.sqrt(2.0) * bridge_v

    # Orthogonal half-sum/half-difference transform in the child's
    # mirror-adapted order.
    eye = np.eye(n)
    srev = eye[::-1]
    d_block = np.zeros((2 * n + 1, 2 * n + 1))
    d_block[:n, :n] = eye / np.sqrt(2.0)
    d_block[n + 1:, :n] = srev / np.sqrt(2.0)
    d_block[n, n] = 1.0
    d_block[:n, n + 1:] = eye / np.sqrt(2.0)
    d_block[n + 1:, n + 1:] = -srev / np.sqrt(2.0)

    # Child sites in the glue order: copy 1, bridge qubit, mirrored copy 2.
    child_order = (
        list(order)
        + [("B", k + 2)]
        + [chains.mirror_site(s, child.n_cells) for s in reversed(order)]
    )
    q = np.zeros((child.n, child.n))
    for pos, site in enumerate(child_order):
        q[chains.cell_index(site, child.n_cells), pos] = 1.0
    transform = q @ d_block

    return GlueResult(child=child, block_a=block_a, transform=transform, parent_glue=h_p)


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


def verify_lemmas(spec, tol=1e-10, bridge_v=1.0):
    """Check null multiplicity, +/- pairing and (when glueable) the glue laws."""
    h = chains.build_hamiltonian(spec)
    spectrum = decompose(h)
    lam = spectrum.eigenvalues
    violations = {}

    lemma2 = spectrum.null_multiplicity == spec.k + 1
    violations["null_multiplicity"] = spectrum.null_multiplicity

    pair_dev = float(np.max(np.abs(lam + lam[::-1])))
    lemma3 = pair_dev < tol
    violations["pairing_deviation"] = pair_dev

    lemma1 = lemma4 = None
    if spec.n % 2 == 1 and chains.is_mirror_symmetric(spec):
        result = glue(spec, bridge_v)
        h_child = chains.build_hamiltonian(result.child).toarray()
        lam_child = np.linalg.eigvalsh(h_child)
        ok1, dev1 = match_contained(lam, lam_child, tol)
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
            np.concatenate([lam_a, lam]), lam_child, tol
        )
        lemma4 = resid < max(tol, 1e-12) and ok4
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
