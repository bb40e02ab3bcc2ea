"""Decorated transmon-qubit chains in the one-excitation subspace.

Submodules
----------
chains    chain specifications and Hamiltonian assembly
spectral  eigenvalues, scale-free structural lemma checks, glueing
exact     integer characteristic polynomials, the factor-degree column and
          the solvable-family catalogue
dynamics  time evolution, transfer probability, cosine series
design    PST inverse designs, dimerized bounds, PGT search
optimize  deterministic differential-evolution coupling optimization
cli       command-line entry point
"""

__version__ = "0.1.0"
