"""Time evolution in the one-excitation subspace.

The chain graph is bipartite and both corners are A1 qubits, so the odd
part of exp(-iHt) never connects them: the corner-to-corner amplitude is the
real cosine series amp(t) = sum_j c_j cos(f_j t), and P(t) = amp(t)^2, for
every chain.  The frequencies f_j = sqrt(mu_j) and coefficients
c_j = u_j[0] u_j[-1] come from the eigenpairs of the (n_cells+1)x(n_cells+1)
tridiagonal Jacobi matrix J = H^2 restricted to the A1 qubits
(:func:`chains.jacobi_matrix`).  The same series serves sampled traces,
pretty-good-transfer arguments and peak searches.

The averaged transmission fidelity is f = 1/2 + sqrt(P)/3 + P/6 with the
controllable phase set to its optimal value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import chains
from .errors import ValidationError

#: probability may exceed 1 by at most this much before it is an error
PROB_SLACK = 1e-9


def fidelity_from_probability(p):
    """Averaged transmission fidelity for transfer probability ``p``."""
    p = np.asarray(p, dtype=float)
    return 0.5 + np.sqrt(p) / 3.0 + p / 6.0


@dataclass(frozen=True)
class TransferTrace:
    """Sampled corner-to-corner transfer record.

    Attributes
    ----------
    times, probability, fidelity : tuple of float
        Sample grid, P(t) and f(t) at each sample.
    peak : tuple
        (t*, P*) of the best sample in the trace.
    """

    times: tuple
    probability: tuple
    fidelity: tuple
    peak: tuple

    def to_csv(self, path):
        """Write the trace as CSV with header t,P,f at 15 significant digits."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,P,f\n")
            for t, p, f in zip(self.times, self.probability, self.fidelity):
                fh.write(f"{t:.15g},{p:.15g},{f:.15g}\n")


def transfer_probability(spec, times):
    """Corner-to-corner transfer probability over a time grid.

    Parameters
    ----------
    spec : ChainSpec
        Chain to evolve; the excitation starts on the first corner qubit and
        is read out on the second.
    times : array_like
        Finite sample times in inverse-coupling units.

    Returns
    -------
    TransferTrace
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValidationError("times must be a non-empty 1-d array")
    if not np.all(np.isfinite(times)):
        raise ValidationError("times must be finite")
    return chain_series(spec).trace(times)


@dataclass(frozen=True)
class CosineSeries:
    """P(t) = (sum_j c_j cos(f_j t))^2 with non-negative frequencies.

    The coefficient sum vanishes (so P(0) = 0 between distinct corners) and
    sum |c_j| bounds sqrt(P) from above, which is the quantity that decides
    whether pretty good transfer is possible.
    """

    frequencies: tuple
    coefficients: tuple

    def __post_init__(self):
        if len(self.frequencies) != len(self.coefficients):
            raise ValidationError("frequencies and coefficients differ in length")
        if any(f < 0 for f in self.frequencies):
            raise ValidationError("frequencies must be non-negative")

    @property
    def coefficient_sum(self):
        return float(sum(self.coefficients))

    @property
    def amplitude_ceiling(self):
        """sum |c_j|, the supremum of |amplitude| over all times."""
        return float(sum(abs(c) for c in self.coefficients))

    @property
    def max_frequency(self):
        return float(max(self.frequencies)) if self.frequencies else 0.0

    def amplitude(self, times):
        times = np.atleast_1d(np.asarray(times, dtype=float))
        return np.cos(np.outer(times, self.frequencies)) @ np.asarray(self.coefficients)

    def probability(self, times):
        return self.amplitude(times) ** 2

    def trace(self, times):
        """Sampled :class:`TransferTrace`; P above 1 + PROB_SLACK is an error."""
        prob = self.probability(times)
        if prob.max() > 1 + PROB_SLACK:
            raise ValidationError(f"probability above 1: max {prob.max()}")
        prob = np.minimum(prob, 1.0)
        fid = fidelity_from_probability(prob)
        best = int(np.argmax(prob))
        return TransferTrace(
            times=tuple(float(t) for t in times),
            probability=tuple(float(p) for p in prob),
            fidelity=tuple(float(f) for f in fid),
            peak=(float(times[best]), float(prob[best])),
        )

    def to_dict(self):
        return {
            "frequencies": list(self.frequencies),
            "coefficients": list(self.coefficients),
        }


def chain_series(spec):
    """Cosine series between the corner qubits of any chain.

    With (mu_j, u_j) the eigenpairs of :func:`chains.jacobi_matrix`, the
    corner amplitude is sum_j u_j[0] u_j[-1] cos(sqrt(mu_j) t).  J is an
    unreduced tridiagonal matrix, so its spectrum is simple, and it is
    positive definite, so every frequency is positive.  Frequencies come out
    ascending.  No mirror symmetry is needed.
    """
    mu, u = np.linalg.eigh(chains.jacobi_matrix(spec))
    freqs = np.sqrt(np.maximum(mu, 0.0))  # roundoff when some g_i^2 is tiny
    return CosineSeries(tuple(freqs.tolist()), tuple((u[0] * u[-1]).tolist()))


def refine_peak(series, lo, hi, xatol):
    """(t, P) at the maximum of P on [lo, hi], located to within ``xatol``."""
    res = optimize.minimize_scalar(
        lambda t: -series.probability(t)[0],
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": xatol},
    )
    return float(res.x), float(-res.fun)


def peak_search(series, t_max, refine_tol=1e-9):
    """Global probability maximum of a cosine series over [0, t_max].

    Coarse scan with step at most pi/(8 f_max) (4x Nyquist oversampling of
    the fastest oscillation), then bounded scalar minimization of -P around
    the best sample.

    Returns
    -------
    (t_star, p_star) : tuple of float
    """
    if t_max <= 0:
        raise ValidationError(f"t_max must be positive, got {t_max}")
    fmax = series.max_frequency
    step = np.pi / (8 * fmax) if fmax > 0 else t_max / 64
    n = max(int(np.ceil(t_max / step)) + 1, 65)
    grid = np.linspace(0.0, t_max, n)
    prob = series.probability(grid)
    best = int(np.argmax(prob))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, n - 1)]
    t_star, p_star = refine_peak(series, lo, hi, refine_tol)
    if prob[best] > p_star:
        t_star, p_star = float(grid[best]), float(prob[best])
    return t_star, min(p_star, 1.0)
