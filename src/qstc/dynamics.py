"""Time evolution in the one-excitation subspace.

The chain graph is bipartite and both corners are A1 qubits, so the odd
part of exp(-iHt) never connects them: the corner-to-corner amplitude is the
real cosine series amp(t) = sum_j c_j cos(f_j t), and P(t) = amp(t)^2, for
every chain.  The frequencies f_j = sqrt(mu_j) and coefficients
c_j = u_j[0] u_j[-1] come from the eigenpairs of the (n_cells+1)x(n_cells+1)
tridiagonal Jacobi matrix J = H^2 restricted to the A1 qubits
(:func:`chains.jacobi_matrix`).  The same series serves sampled traces,
pretty-good-transfer arguments and peak searches.

:func:`scan_peaks` is the one scan-and-refine peak search; window maxima
(:func:`peak_search`) and pretty good transfer (:func:`design.pgt_search`) use it.
Its uniform grid t_m = m h is sampled from two phasor tables per chunk
(:func:`phasor_amplitude`), not from one cosine per sample and frequency;
its certificate allows for the rounding of those samples, and every P it
reports is a direct evaluation of the series at the reported time.

The averaged transmission fidelity is f = 1/2 + sqrt(P)/3 + P/6 with the
controllable phase set to its optimal value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chains
from .errors import ValidationError

#: probability may exceed 1 by at most this much before it is an error
PROB_SLACK = 1e-9
#: samples per chunk of a forward scan; bounds the memory of long scans
SCAN_CHUNK = 65536
#: most Newton steps spent refining one candidate peak
NEWTON_STEPS = 8
#: width B of the inner phasor table that samples a scan chunk (about the
#: square root of a typical scan's sample count)
PHASOR_BLOCK = 32


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


def scan_size(series, t_max):
    """Samples over [0, t_max]: step <= pi/(8 f_max) (4x Nyquist), at least 65."""
    return max(int(np.ceil(t_max * 8 * series.max_frequency / np.pi)) + 1, 65)


def phasor_amplitude(frequencies, coefficients, h, start, size):
    """a(m h) for m = start, ..., start + size - 1, from two phasor tables.

    With m = start + B r + b (B = PHASOR_BLOCK, 0 <= b < B),
    a(m h) = Re sum_j [c_j exp(i f_j h (start + B r))] [exp(i f_j h b)]: one
    (rows x n_freq) @ (n_freq x B) product, which costs (rows + B) n_freq
    complex exponentials instead of one cosine per sample and frequency.
    A sample is within a few eps (1 + f_max m h) sum |c_j| of the direct
    cosine sum, which is itself only that close to the exact amplitude.
    """
    f = np.asarray(frequencies, dtype=float)
    rows = -(-size // PHASOR_BLOCK)
    outer = np.asarray(coefficients) * np.exp(
        1j * h * np.outer(start + PHASOR_BLOCK * np.arange(rows), f)
    )
    inner = np.exp(1j * h * np.outer(f, np.arange(PHASOR_BLOCK)))
    return (outer @ inner).real.ravel()[:size]


def scan_peaks(series, t_max, amplitude_cap=None):
    """Forward scan-and-refine of P(t) = a(t)^2 over [0, t_max].

    The :func:`scan_size` grid t_m = m h goes in chunks of SCAN_CHUNK steps
    that share their boundary samples; :func:`phasor_amplitude` samples each
    chunk.  An interior maximum of |a| has a' = 0, so it exceeds its nearest
    sample by at most sum |c_j| f_j^2 h^2 / 8.  A computed sample, from the
    tables or from direct cosines alike, is off by about
    eps (1 + f_max t_max) sum |c_j| at most, so delta is the first bound plus
    the rounding allowance eta = 4 eps (1 + f_max t_max) sum |c_j|.  Every
    local maximum of the sampled |a| (end samples count) with
    |a_s| + delta >= floor gets Newton steps on a' = 0, clipped to its
    neighbouring samples, and keeps the better of sample and refined point.
    The floor is the chunk's largest |a_s|, capped at ``amplitude_cap``.

    Yields ``(times, probs, evaluations)`` per chunk: the refined candidates
    in time order, their P evaluated directly by the series at those times,
    and the samples plus refinement evaluations made.
    """
    n = scan_size(series, t_max)
    h = t_max / (n - 1)
    f = np.asarray(series.frequencies, dtype=float)
    c = np.asarray(series.coefficients, dtype=float)
    cf = c * f
    cff = cf * f
    eta = 4 * np.finfo(float).eps * (1 + series.max_frequency * t_max) * series.amplitude_ceiling
    delta = float(np.abs(cf) @ f) * h * h / 8 + eta
    for start in range(0, n - 1, SCAN_CHUNK):
        grid = t_max * (np.arange(start, min(start + SCAN_CHUNK, n - 1) + 1) / (n - 1))
        amp = np.abs(phasor_amplitude(f, c, h, start, grid.size))
        floor = amp.max() if amplitude_cap is None else min(amplitude_cap, amp.max())
        padded = np.concatenate(([-1.0], amp, [-1.0]))  # ends compare one side
        local_max = (amp >= padded[:-2]) & (amp >= padded[2:])
        cand = np.flatnonzero(local_max & (amp + delta >= floor))
        lo, hi = grid[np.maximum(cand - 1, 0)], grid[np.minimum(cand + 1, grid.size - 1)]
        t = grid[cand]
        for steps in range(1, NEWTON_STEPS + 1):
            # a' = -sum c f sin(f t), a'' = -sum c f^2 cos(f t); the signs cancel
            phase = np.outer(t, f)
            d1, d2 = np.sin(phase) @ cf, np.cos(phase) @ cff
            moved = np.clip(t - np.divide(d1, d2, out=np.zeros_like(d1), where=d2 != 0), lo, hi)
            t, done = moved, np.all(np.abs(moved - t) <= 1e-8 * h)
            if done:
                break
        # the samples' own P comes from the series too, not from the tables
        p = series.probability(np.concatenate((t, grid[cand])))
        p, p_sample = p[: cand.size], p[cand.size :]
        better = p > p_sample
        yield (np.where(better, t, grid[cand]), np.where(better, p, p_sample),
               grid.size + (steps + 1) * cand.size)


def peak_search(series, t_max):
    """(t*, P*) at the global maximum of P over [0, t_max], by :func:`scan_peaks`.

    P* is ``series.probability(t*)`` (capped at 1), bit for bit: a batched
    evaluation may differ from the one-time one in the last bits.
    """
    if not 0 < t_max < np.inf:
        raise ValidationError(f"t_max must be positive and finite, got {t_max}")
    best_t, best_p = 0.0, -1.0
    for times, probs, _ in scan_peaks(series, t_max):
        i = int(np.argmax(probs))
        if probs[i] > best_p:
            best_t, best_p = float(times[i]), float(probs[i])
    return best_t, min(float(series.probability(best_t)[0]), 1.0)
