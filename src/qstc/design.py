"""Inverse designs for perfect state transfer, dimerized bounds, PGT search.

Two closed-form inverse-eigenvalue solutions are implemented: an N=8 chain
with spectrum {+-k, +-(k+1), +-(k+2), 0, 0} and an N=11 chain with spectrum
{+-k, ..., +-(k+3), 0, 0, 0}.  Integer spectra make every frequency commensurate
so the corner-to-corner probability is exactly 1 at odd multiples of pi.

For uniform dimerized (t_i=1, w_i=w, g_i=g) N=11 chains the g-independent
envelope P_up = (w(1+w^2)/(1+w^4))^2 caps the achievable transfer.

Pretty-good-transfer search runs the scan-and-refine peak search of
:mod:`dynamics` forward, chunk by chunk, for the earliest peak whose
infidelity drops below a target.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import chains, dynamics
from .errors import InfeasibleDesignError, UnsupportedInputError, ValidationError

FAMILIES = ("n8", "n11")


@contextlib.contextmanager
def _float_sized(k):
    """An ``OverflowError`` from the float of a k-polynomial: unsupported k."""
    try:
        yield
    except OverflowError as exc:
        raise UnsupportedInputError(f"spectrum offset k overflows a float: {exc}") from exc


def feasible_interval(family, k):
    """Open interval of admissible v1^2 for a PST family at offset ``k``.

    The bounds come from requiring every derived squared coupling to be
    strictly positive.  A k whose squares overflow a float, here or in the
    couplings, is an :class:`UnsupportedInputError`.
    """
    if k < 1:
        raise ValidationError(f"spectrum offset k must be >= 1, got {k}")
    with _float_sized(k):
        if family == "n8":
            return ((4 * k * k + 8 * k + 3) / (k * k + 2 * k + 3), float((k + 1) ** 2))
        if family == "n11":
            return (1.5 * (4 * k * k + 12 * k + 5) / (2 * k * k + 2 * k + 5),
                    (2 * k * k + 6 * k + 3) / 2)
    raise ValidationError(f"unknown PST family {family!r}; expected one of {FAMILIES}")


@dataclass(frozen=True)
class PstDesign:
    """Solved perfect-state-transfer coupling set.

    ``couplings`` maps names (v2, g1, g2 and, for the longer family, v3) to
    values; ``target_spectrum`` is the full designed spectrum including the
    null eigenvalues.
    """

    family: str
    k: int
    v1: float
    couplings: dict
    feasible_interval: tuple
    target_spectrum: tuple

    def chain(self):
        """ChainSpec realizing the design: the mirror of (v1, v2[, v3]) and (g1, g2)."""
        c = self.couplings
        backbone = (self.v1,) + tuple(c[name] for name in ("v2", "v3") if name in c)
        return chains.mirror_chain(backbone, (c["g1"], c["g2"]))


def _check_feasible(family, k, v1):
    if not 0 < v1 < math.inf:
        raise ValidationError(f"v1 must be positive and finite, got {v1}")
    lo, hi = feasible_interval(family, k)
    if not lo < v1 * v1 < hi:
        raise InfeasibleDesignError(
            f"v1^2 = {v1 * v1!r} outside the feasible interval ({lo!r}, {hi!r}) "
            f"for family {family}, k={k}",
            interval=(lo, hi),
        )
    return lo, hi


def _pst_design(family, k, v1, interval, spectrum, couplings, squares):
    """The :class:`PstDesign` of ``couplings`` and the square roots of ``squares``.

    ``squares`` maps names to derived squared couplings, in the design's
    coupling order after ``couplings``.  A coupling or square that is not
    finite (a k-polynomial that overflowed to inf in float arithmetic) is an
    :class:`UnsupportedInputError`; a square that is not positive is an
    :class:`InfeasibleDesignError`.
    """
    values = {**couplings, **{f"{name}^2": sq for name, sq in squares.items()}}
    huge = [f"{name} = {value!r}" for name, value in values.items() if not math.isfinite(value)]
    if huge:
        raise UnsupportedInputError(
            f"spectrum offset k overflows a float at v1={v1:g}: {', '.join(huge)}")
    bad = [f"{name}^2 = {sq!r}" for name, sq in squares.items() if sq <= 0]
    if bad:  # only rounding gets here: v1^2 passed the open-interval check
        raise InfeasibleDesignError(
            f"derived squared couplings not all positive for k={k}, v1={v1:g}: "
            f"{', '.join(bad)}; v1^2 = {v1 * v1!r} lies within rounding of an end of "
            f"the feasible interval ({interval[0]!r}, {interval[1]!r})",
            interval=interval,
        )
    roots = {name: math.sqrt(sq) for name, sq in squares.items()}
    return PstDesign(family=family, k=k, v1=float(v1), couplings={**couplings, **roots},
                     feasible_interval=interval, target_spectrum=spectrum)


def design_pst_n8(k, v1):
    """Couplings of the N=8 chain with spectrum {+-k, +-(k+1), +-(k+2), 0^2}.

    v2 balances the characteristic-polynomial conditions, g1 follows from the
    middle branch of the quadratic system, and g2 is fixed by the trace
    identity sum(lambda^2) = ||h||_F^2.
    """
    interval = _check_feasible("n8", k, v1)
    with _float_sized(k):
        v2_sq = (3 + 4 * k * (k + 2)) / (2 * v1 * v1)
        g1_sq = (k + 1) ** 2 - v1 * v1
        g2_sq = (3 * k * k + 6 * k + 5) - 2 * (v1 * v1 + v2_sq + g1_sq)
    spectrum = (-(k + 2), -(k + 1), -k, 0, 0, k, k + 1, k + 2)
    return _pst_design("n8", k, v1, interval, spectrum, {},
                       {"v2": v2_sq, "g1": g1_sq, "g2": g2_sq})


def design_pst_n11(k, v1):
    """Couplings of the N=11 chain with spectrum {+-k..+-(k+3), 0^3}."""
    interval = _check_feasible("n11", k, v1)
    with _float_sized(k):
        v2 = math.sqrt(3 * (5 + 12 * k + 4 * k * k)) / (2 * v1)
        v3 = math.sqrt(3 + 2 * k)
        g1_sq = (3 + 6 * k + 2 * k * k - 2 * v1 * v1) / 2
        g2_sq = (((10 + 4 * k + 4 * k * k) * v1 * v1 - (15 + 36 * k + 12 * k * k))
                 / (4 * v1 * v1))
    spectrum = tuple(sorted([0, 0, 0] + [s * (k + j) for j in range(4) for s in (1, -1)]))
    return _pst_design("n11", k, v1, interval, spectrum, {"v2": v2, "v3": v3},
                       {"g1": g1_sq, "g2": g2_sq})


def design_pst(family, k, v1):
    """Dispatch to the requested PST family."""
    if family == "n8":
        return design_pst_n8(k, v1)
    if family == "n11":
        return design_pst_n11(k, v1)
    raise ValidationError(f"unknown PST family {family!r}; expected one of {FAMILIES}")


# ---------------------------------------------------------------------------
# dimerized chains
# ---------------------------------------------------------------------------


def dimerized_upper_bound(w):
    """Envelope of the dimerized N=11 transfer probability over time and g."""
    if not 0 < w < math.inf:
        raise ValidationError(f"dimerization parameter w must be positive and finite, got {w}")
    w = min(w, 1 / w)  # P_up(w) = P_up(1/w), and w**4 overflows for w above about 1e77
    return (w * (1 + w * w) / (1 + w**4)) ** 2


# ---------------------------------------------------------------------------
# pretty good transfer search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PgtSearchResult:
    """Outcome of a pretty-good-transfer arrival-time scan.

    ``reached`` tells whether some t <= t_max got the infidelity below
    epsilon; ``t_found`` is the earliest peak that does (None when not reached).
    ``best_t``/``best_infidelity`` always record the best point seen, with
    ``best_infidelity`` = 1 - ``series.probability(best_t)`` capped at 1, bit
    for bit, so it is never negative.
    """

    epsilon: float
    t_found: float | None
    reached: bool
    best_t: float
    best_infidelity: float
    scan_budget: int
    frequencies: tuple


def pgt_search(series, epsilon, t_max):
    """Earliest refined peak with 1 - P(t) < epsilon on a cosine series.

    A one-row :func:`dynamics.scan_candidates` scan with amplitude cap
    sqrt(1 - epsilon), each chunk's candidates refined by
    :func:`dynamics.refine_peaks` before the next chunk is sampled, so
    stopping at the first chunk with a hit leaves the rest of [0, t_max]
    unsampled; otherwise the best peak seen is kept.  Its P are capped at 1,
    so no infidelity is negative.  ``scan_budget`` counts the samples and
    refinement evaluations made.
    """
    if not 0 < epsilon < 1:
        raise ValidationError(f"epsilon must be in (0,1), got {epsilon}")
    if not 0 < t_max < math.inf:
        raise ValidationError(f"t_max must be positive and finite, got {t_max}")
    f, c = np.array([series.frequencies]), np.array([series.coefficients])
    best_t, best_p, used = 0.0, -1.0, 0
    cap = math.sqrt(1.0 - epsilon)
    for candidates, samples in dynamics.scan_candidates(f, c, t_max, amplitude_cap=cap):
        times, probs, evaluations = dynamics.refine_peaks(f, c, candidates)
        used += samples + evaluations
        hits = np.flatnonzero(1.0 - probs < epsilon)
        reached = hits.size > 0
        i = int(hits[0]) if reached else int(np.argmax(probs))
        if reached or probs[i] > best_p:
            best_t, best_p = float(times[i]), float(probs[i])
        if reached:
            break
    return PgtSearchResult(
        epsilon=float(epsilon),
        t_found=best_t if reached else None,
        reached=reached,
        best_t=best_t,
        best_infidelity=1.0 - best_p,
        scan_budget=used,
        frequencies=series.frequencies,
    )
