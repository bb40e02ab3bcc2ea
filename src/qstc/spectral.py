"""Eigen-decomposition, glueing, and exactly solvable sequence spectra.

The structural facts used throughout:

* a chain with N = 3k+5 qubits has exactly k+1 null eigenvalues;
* the nonzero eigenvalues come in +/- pairs (the chain graph is bipartite);
* glueing two mirror copies of an odd-length chain through one extra qubit
  produces a chain of length 2N+1 whose spectrum contains the parent's, the
  N+1 new eigenvalues being those of an (N+1)x(N+1) bordered block;
* for homogeneous chains the glueing recursion produces families of lengths
  {N0, 2*N0+1, 4*N0+3, ...} whose eigenvalues are nested square roots.

The squared nonzero eigenvalues are the eigenvalues of the (k+2)x(k+2)
Jacobi matrix :func:`chains.jacobi_matrix`.  For a homogeneous chain they are
3 + theta with theta running over the spectrum of J - 3I, the tridiagonal
matrix with unit off-diagonal and diagonal (-1, 0, ..., 0, -1); one glueing
step doubles that matrix and extends its spectrum by {+/- sqrt(2+theta)}.  The
catalogued families evaluate that recursion symbolically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import sympy as sy

from . import chains
from .chains import ChainSpec, HamiltonianMatrix, Numbering
from .errors import NumericalError, StructuralError, UnsupportedSequenceError, ValidationError

# |lambda| < ZERO_TOL_FACTOR * max|lambda| classifies a null eigenvalue.
ZERO_TOL_FACTOR = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Eigen-decomposition of a one-excitation Hamiltonian.

    ``eigenvalues`` ascending; ``eigenvectors[:, j]`` is the j-th orthonormal
    eigenvector; ``paired`` records whether the nonzero eigenvalues occur in
    +/- pairs.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    null_multiplicity: int
    paired: bool


def _fingerprint(h):
    payload = np.ascontiguousarray(np.round(h, 12)).tobytes()
    return hashlib.sha256(payload).hexdigest()[:16]


def _dense(h):
    if isinstance(h, HamiltonianMatrix):
        return h.toarray()
    return np.asarray(h, dtype=float)


def _null_count(eigenvalues, tol=None):
    scale = float(np.max(np.abs(eigenvalues))) if len(eigenvalues) else 0.0
    if tol is None:
        tol = ZERO_TOL_FACTOR * max(scale, 1.0)
    return int(np.count_nonzero(np.abs(eigenvalues) < tol))


def _is_paired(eigenvalues, tol=1e-10):
    lam = np.sort(eigenvalues)
    return bool(np.max(np.abs(lam + lam[::-1])) < tol)


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
        paired=_is_paired(lam),
    )


def null_multiplicity(h, tol=None):
    """Number of eigenvalues below ``tol`` in magnitude (k+1 for any chain)."""
    mat = _dense(h)
    lam = np.linalg.eigvalsh(mat)
    return _null_count(lam, tol)


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
    idx = [chains.site_index(s, parent) for s in order]
    h_p = chains.build_hamiltonian(parent).toarray()[np.ix_(idx, idx)]

    seq = chains.backbone_sequence(parent)
    child_seq = list(seq) + [bridge_v, bridge_v] + list(seq[::-1])
    child = ChainSpec(
        n_cells=2 * k + 3,
        t=tuple(child_seq[0::2]),
        w=tuple(child_seq[1::2]),
        g=tuple(parent.g) + tuple(parent.g[::-1]),
        numbering=parent.numbering,
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
        q[chains.site_index(site, child), pos] = 1.0
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


# ---------------------------------------------------------------------------
# exactly solvable sequences
# ---------------------------------------------------------------------------

_SQRT5 = sy.sqrt(5)

# Base values of theta (squared eigenvalue minus 3) for the shortest chain of
# each catalogued family.
_SEQUENCE_BASES = {
    5: [sy.Integer(0), sy.Integer(-2)],
    8: [sy.Integer(-2), sy.Integer(-1), sy.Integer(1)],
    14: [
        sy.Integer(-2),
        sy.Rational(-1, 2) + _SQRT5 / 2,
        sy.Rational(-1, 2) - _SQRT5 / 2,
        sy.Rational(1, 2) + _SQRT5 / 2,
        sy.Rational(1, 2) - _SQRT5 / 2,
    ],
    # For N=44 the eight deepest values carry linked signs: the sign inside
    # the inner radical is opposite to the sign of the sqrt(5) term.
    44: [sy.Integer(-2), sy.Integer(-1), sy.Integer(1)]
    + [sy.Rational(s0, 2) + s1 * _SQRT5 / 2 for s0 in (-1, 1) for s1 in (1, -1)]
    + [
        s0 * (sy.Integer(1) + s1 * _SQRT5 + s2 * sy.sqrt(30 - s1 * 6 * _SQRT5)) / 4
        for s0 in (1, -1)
        for s1 in (1, -1)
        for s2 in (1, -1)
    ],
}

MAX_SEQUENCE_LENGTH = 2000


def sequence_lengths():
    """Catalogued base lengths of the solvable families."""
    return tuple(sorted(_SEQUENCE_BASES))


def chain_length(n0, level):
    """Length of the level-th member of the family starting at n0."""
    return 2**level * (n0 + 1) - 1


def _dedupe(values, tol=1e-12):
    out = []
    floats = []
    for expr in values:
        x = float(expr.evalf(30))
        if any(abs(x - y) < tol for y in floats):
            continue
        out.append(expr)
        floats.append(x)
    return out


@dataclass(frozen=True)
class SequenceSpectrum:
    """Closed-form spectrum of a catalogued homogeneous chain."""

    n0: int
    level: int
    n: int
    k: int
    eigenvalues: np.ndarray
    tags: tuple
    null_multiplicity: int


def sequence_spectrum(n0, level):
    """Exact spectrum of the homogeneous chain 2^level*(n0+1) - 1.

    Returns the full spectrum (negatives, k+1 zeros, positives) with the
    positive eigenvalues carried both as floats and as nested-radical tags.
    """
    if n0 not in _SEQUENCE_BASES:
        raise UnsupportedSequenceError(
            f"no catalogued family starts at N0={n0}; known: {sequence_lengths()}"
        )
    if level < 0:
        raise ValidationError(f"level must be >= 0, got {level}")
    n = chain_length(n0, level)
    if n > MAX_SEQUENCE_LENGTH:
        raise ValidationError(f"chain length {n} exceeds the supported cap {MAX_SEQUENCE_LENGTH}")

    thetas = list(_SEQUENCE_BASES[n0])
    for step in range(level):
        grown = list(thetas)
        for theta in thetas:
            root = sy.sqrt(2 + theta)
            grown.extend([root, -root])
        thetas = _dedupe(grown)
        if len(thetas) != 2 ** (step + 1) * len(_SEQUENCE_BASES[n0]):
            raise NumericalError(
                f"sequence recursion for N0={n0} produced {len(thetas)} distinct "
                f"values at level {step + 1}"
            )

    k = (n - 5) // 3
    positives = sorted(
        ((float(sy.sqrt(3 + th).evalf(30)), sy.sqrt(3 + th)) for th in thetas),
        key=lambda item: item[0],
    )
    pos_vals = [v for v, _ in positives]
    pos_tags = [sy.sstr(expr) for _, expr in positives]
    eigenvalues = np.array([-v for v in reversed(pos_vals)] + [0.0] * (k + 1) + pos_vals)
    tags = tuple(
        [f"-{t}" for t in reversed(pos_tags)] + ["0"] * (k + 1) + pos_tags
    )
    return SequenceSpectrum(
        n0=n0,
        level=level,
        n=n,
        k=k,
        eigenvalues=eigenvalues,
        tags=tags,
        null_multiplicity=k + 1,
    )


def spectrum_to_dict(spectrum, tags=None):
    """JSON payload {eigenvalues, null_multiplicity, tags}."""
    if isinstance(spectrum, SequenceSpectrum):
        return {
            "eigenvalues": [float(x) for x in spectrum.eigenvalues],
            "null_multiplicity": spectrum.null_multiplicity,
            "tags": list(spectrum.tags),
        }
    return {
        "eigenvalues": [float(x) for x in spectrum.eigenvalues],
        "null_multiplicity": spectrum.null_multiplicity,
        "tags": list(tags) if tags is not None else [],
    }
