"""Decorated transmon-qubit chains in the one-excitation subspace.

Submodules
----------
chains    chain specifications and Hamiltonian assembly
spectral  eigendecomposition, structural lemma checks, glueing, sequences
exact     integer characteristic polynomials and the factor-degree column
dynamics  time evolution, transfer probability, cosine series
design    PST inverse designs, dimerized bounds, PGT search
optimize  deterministic differential-evolution coupling optimization
cli       command-line entry point
"""

__version__ = "0.1.0"
