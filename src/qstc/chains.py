"""Decorated transmon chains and their one-excitation Hamiltonians.

A chain is a linear array of cells with three qubit types: backbone qubits
``A1`` and ``B`` carrying the hopping, and pendant qubits ``A2`` attached to
each ``A1`` by a single coupling.  A chain with ``n_cells`` cells has
``N = 3 * n_cells + 2`` qubits.  Restricted to the one-excitation subspace the
Hamiltonian is a real symmetric hopping matrix with zero diagonal and at most
three nonzeros per row.

The graph is bipartite with the A1 qubits, the two corners among them, on one
side; :func:`jacobi_matrix` is H^2 restricted to them, the tridiagonal matrix
that carries corner-to-corner transfer.  It is the one builder of J, for one
chain's coupling arrays or for stacks of them.

Sites are ordered cell by cell, each pendant after its backbone qubit
(:func:`build_hamiltonian`).  Any other order would only permute H: it changes
no eigenvalue, and J does not depend on it.  :func:`mirror_sites` is the one
reflection map, and :func:`mirror_chain` the one constructor of a
mirror-symmetric layout from its left half; the symmetric JSON form
(:func:`spec_from_dict`) parses straight into it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedInputError, ValidationError, check_keys, load_json, read_value


def _check_couplings(name, values, expected_len):
    if len(values) != expected_len:
        raise ValidationError(
            f"coupling list {name!r} has length {len(values)}, expected {expected_len}"
        )
    for x in values:
        if not math.isfinite(x) or x <= 0.0:
            raise ValidationError(f"coupling list {name!r} contains non-positive entry {x}")


@dataclass(frozen=True)
class ChainSpec:
    """Full coupling layout of a decorated chain.

    ``t[i]`` couples A1_{i+1} to B_{i+1} inside a cell, ``w[i]`` couples
    B_{i+1} to A1_{i+2} across cells, and ``g[i]`` couples A1_{i+1} to its
    pendant A2_{i+1}.  All couplings must be strictly positive.
    """

    n_cells: int
    t: tuple
    w: tuple
    g: tuple

    def __post_init__(self):
        if self.n_cells < 1:
            raise ValidationError(f"n_cells must be >= 1, got {self.n_cells}")
        object.__setattr__(self, "t", tuple(float(x) for x in self.t))
        object.__setattr__(self, "w", tuple(float(x) for x in self.w))
        object.__setattr__(self, "g", tuple(float(x) for x in self.g))
        _check_couplings("t", self.t, self.n_cells)
        _check_couplings("w", self.w, self.n_cells)
        _check_couplings("g", self.g, self.n_cells + 1)

    @property
    def n(self):
        """Total number of qubits N = 3 n_cells + 2."""
        return 3 * self.n_cells + 2

    @property
    def k(self):
        """Symmetric-chain parameter, N = 3k + 5."""
        return self.n_cells - 1


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Dense one-excitation Hamiltonian in cell order."""

    matrix: np.ndarray

    def toarray(self):
        return self.matrix


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def build_hamiltonian(spec):
    """One-excitation Hamiltonian of a chain in cell order.

    Cell i (from 0) holds A1 at site 3i, its pendant A2 at 3i+1 and B at 3i+2;
    the last cell has no B, so the corners are sites 0 and N-2.
    """
    a1 = 3 * np.arange(spec.n_cells + 1)
    h = np.zeros((spec.n, spec.n))
    h[a1, a1 + 1] = spec.g
    h[a1[:-1], a1[:-1] + 2] = spec.t
    h[a1[:-1] + 2, a1[1:]] = spec.w
    h += h.T
    h.flags.writeable = False  # toarray() hands out this array itself
    return HamiltonianMatrix(matrix=h)


def mirror_sites(n_cells):
    """Image of every site under the spatial reflection of the chain.

    A1 and A2 of cell i go to those of cell n_cells - i, B of cell i to B of
    cell n_cells - 1 - i.
    """
    s = np.arange(3 * n_cells + 2)
    return 3 * n_cells - s + np.array([0, 2, 1])[s % 3]


def jacobi_matrix(t, w, g):
    """Tridiagonal matrix J = B B^T on the A1 sublattice, A1_1 first.

    B is the block of H that couples the A1 qubits to the B and A2 qubits.
    The chain graph is bipartite with the A1 qubits on one side, so H^2
    restricted to them is J, with diagonal g_i^2 + t_i^2 + w_{i-1}^2 and
    off-diagonal t_i w_i.  Both corners are A1 qubits (rows 0 and -1), hence
    the corner amplitude is the (0, -1) element of cos(sqrt(J) t).

    ``t`` and ``w`` have shape (..., n_cells) and ``g`` (..., n_cells + 1),
    one chain's couplings or a stack of them (the optimizer passes a whole
    population); J has shape (..., n_cells + 1, n_cells + 1).  Every entry is
    computed elementwise, so a member's J has the same bits in any stack.
    Couplings whose squares overflow raise :class:`UnsupportedInputError`;
    then every off-diagonal t_i w_i is finite too.
    """
    t, w = np.asarray(t, dtype=float), np.asarray(w, dtype=float)
    with np.errstate(over="ignore"):
        diag = np.asarray(g, dtype=float) ** 2
        diag[..., :-1] += t**2
        diag[..., 1:] += w**2
    if not np.isfinite(diag).all():
        raise UnsupportedInputError("couplings too large: their squares overflow")
    i = np.arange(diag.shape[-1])
    jac = np.zeros(diag.shape + i.shape)
    jac[..., i, i] = diag
    jac[..., i[:-1], i[1:]] = jac[..., i[1:], i[:-1]] = t * w
    return jac


def backbone_sequence(spec):
    """Backbone couplings left to right: (t1, w1, t2, w2, ...)."""
    seq = []
    for ti, wi in zip(spec.t, spec.w):
        seq += [ti, wi]
    return tuple(seq)


def is_mirror_symmetric(spec):
    """True if the coupling layout is invariant under the chain reflection."""
    seq = backbone_sequence(spec)
    return seq == seq[::-1] and spec.g == spec.g[::-1]


def mirror_chain(backbone, pendants):
    """The one mirror-symmetric chain with the given left half of its layout.

    ``backbone`` holds the first n_cells backbone couplings (t1, w1, t2, ...),
    ``pendants`` the first ceil((n_cells+1)/2) pendant couplings, the middle
    one included when n_cells is even.  The right half is their reflection.
    """
    n_cells = len(backbone)
    seq = tuple(backbone) + tuple(backbone[::-1])
    g = tuple(pendants) + tuple(pendants[: (n_cells + 1) // 2][::-1])
    return ChainSpec(n_cells=n_cells, t=seq[0::2], w=seq[1::2], g=g)


def homogeneous_chain(n, coupling=1.0):
    """Chain of length ``n`` (n = 2 mod 3, n >= 5) with all couplings equal."""
    if n < 5 or n % 3 != 2:
        raise ValidationError(f"homogeneous chain length must be 2 mod 3 and >= 5, got {n}")
    n_cells = (n - 2) // 3
    if n_cells > sys.maxsize:  # no sequence that long exists
        raise ValidationError(f"homogeneous chain length {n} has more cells than an index holds")
    c = float(coupling)
    return ChainSpec(
        n_cells=n_cells,
        t=(c,) * n_cells,
        w=(c,) * n_cells,
        g=(c,) * (n_cells + 1),
    )


# ---------------------------------------------------------------------------
# JSON chain-spec schema
# ---------------------------------------------------------------------------


def spec_from_dict(data):
    """Parse the JSON chain-spec schema.

    Accepts the full form {"n_cells", "t", "w", "g"}, the symmetric form
    {"symmetric": {"k", "v", "g"}} and the homogeneous shorthand
    {"homogeneous": {"N", "coupling"}}.  The symmetric form is the
    :func:`mirror_chain` of an N = 3k+5 chain: ``v`` holds its k+1 left
    backbone couplings and ``g`` its first k//2+1 pendant couplings; for odd k
    the middle pendant reuses the last ``g`` entry.  The full form may also carry
    ``"numbering": "cell"``, which older ``glue --out`` files hold; cell order
    is the only numbering.  Any other key, at either level, or a value of the
    wrong JSON type (``N``, ``k`` and ``n_cells`` are integers, couplings
    numbers), raises :class:`ValidationError` naming it.
    """
    if not isinstance(data, dict):
        raise ValidationError("chain spec must be a JSON object")
    if "homogeneous" in data:
        check_keys(data, {"homogeneous"}, "chain spec")
        body, where = data["homogeneous"], "homogeneous shorthand"
        check_keys(body, {"N", "coupling"}, where)
        return homogeneous_chain(read_value(body, "N", int, where),
                                 read_value(body, "coupling", float, where, 1.0))
    if "symmetric" in data:
        check_keys(data, {"symmetric"}, "chain spec")
        body, where = data["symmetric"], "symmetric chain spec"
        check_keys(body, {"k", "v", "g"}, where)
        k = read_value(body, "k", int, where)
        if k < 0:
            raise ValidationError(f"k must be >= 0, got {k}")
        v, g = read_value(body, "v", [float], where), read_value(body, "g", [float], where)
        _check_couplings("v", v, k + 1)
        _check_couplings("g", g, k // 2 + 1)
        return mirror_chain(v, g + g[-1:] if k % 2 else g)
    where = "chain spec"
    check_keys(data, {"n_cells", "t", "w", "g", "numbering"}, where)
    if read_value(data, "numbering", str, where, "cell") != "cell":
        raise ValidationError(f"unknown numbering {data['numbering']!r}; only 'cell' exists")
    return ChainSpec(n_cells=read_value(data, "n_cells", int, where),
                     **{name: read_value(data, name, [float], where) for name in "twg"})


def load_spec(path):
    return spec_from_dict(load_json(path, "chain spec"))
