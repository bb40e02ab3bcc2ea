"""Independent test oracles for :mod:`qstc.exact`, :mod:`qstc.design`, :mod:`qstc.chains`
and :mod:`qstc.optimize`.

``char_poly_exact`` computes det(xI - H) of any integer matrix by the
Faddeev-LeVerrier recursion, without the chain structure that
``exact.reduced_charpoly_homogeneous`` relies on; ``reduce_even`` checks and
strips the x^(k+1) q(x^2) form so the two can be compared.  Polynomials are
coefficient lists, lowest degree first.

``dimerized_series`` and ``probability_closed_form_pst`` are the paper's
closed-form corner-to-corner cosine series: that of the uniform dimerized
N=11 chain (``dimerized_chain``) and the v1-independent ones of the N=8 and
N=11 PST designs.  The Jacobi eigen-core
(``dynamics.chain_series``) is compared against them.

``hamiltonian_from_edges`` builds H from the labelled edge list of the chain,
the reference for the index-array assembly of ``chains.build_hamiltonian``;
``jacobi_from_diagonals`` builds one chain's J from its three diagonals, the
reference for the stacked ``chains.jacobi_matrix``.  ``problem_chain`` builds
the ``ChainSpec`` of one optimizer parameter vector, float by float, the
reference for the stacked ``optimize.OptProblem.couplings``.

``peak_search`` scans one series with ``dynamics.scan_candidates`` and
refines each chunk's candidates on their own: the (t*, P*) against which the
stacked window maxima of ``dynamics.window_maxima``, one Newton batch for
every chunk, are compared.  ``candidates_full_mask`` finds a scan chunk's
candidate samples with every padded sample masked, the reference for
``dynamics._candidates``, which masks only the padding it reads.
``scan_chunks`` builds a scan's whole segment table, one entry per
SCAN_CHUNK steps of every member, and cuts it into chunks by the greedy
rule: the reference for ``dynamics._chunks``, which holds one entry per
member.

``factor_degrees`` factors an integer polynomial with sympy's general
``factor_list``, the reference for the product-identity certificate of
``exact.char_poly_report``; ``write_trace_csv`` is the per-row writer that
``dynamics.write_trace`` must match byte for byte.
"""

import math

import numpy as np
import sympy as sy

from qstc import chains, dynamics, optimize
from qstc.errors import NumericalError, StructuralError, UnsupportedInputError, ValidationError


def poly_trim(p):
    """``p`` without its trailing zero coefficients; [0] for the zero polynomial."""
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return list(p) if len(p) else [0]


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _integer_matrix(mat):
    mat = np.asarray(mat)
    rounded = np.rint(mat)
    if not np.array_equal(rounded, mat):
        raise UnsupportedInputError("exact characteristic polynomial needs integer couplings")
    n = mat.shape[0]
    return [[int(rounded[i, j]) for j in range(n)] for i in range(n)]


def char_poly_exact(h):
    """Exact char poly det(xI - H) of an integer matrix, monic, low-first.

    Faddeev-LeVerrier with big integers; every division in the recursion is
    exact.
    """
    a = _integer_matrix(h)
    n = len(a)
    if n == 0:
        raise ValidationError("empty matrix")
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # identity
    for step in range(1, n + 1):
        prod = [
            [sum(a[i][l] * m[l][j] for l in range(n) if a[i][l]) for j in range(n)]
            for i in range(n)
        ]
        trace = sum(prod[i][i] for i in range(n))
        if trace % step != 0:
            raise NumericalError("Faddeev-LeVerrier divisibility failure")
        c = -trace // step
        coeffs[n - step] = c
        for i in range(n):
            prod[i][i] += c
        m = prod
    return coeffs


def reduce_even(p, k):
    """Divide out x^(k+1) and substitute y = x^2.

    Fails with :class:`StructuralError` when the polynomial is not of the form
    x^(k+1) * q(x^2), which signals a broken null-multiplicity or pairing
    property upstream.
    """
    p = poly_trim(p)
    if len(p) <= k + 1 or any(c != 0 for c in p[: k + 1]):
        raise StructuralError(f"polynomial is not divisible by x^{k + 1}")
    shifted = p[k + 1:]
    if any(c != 0 for c in shifted[1::2]):
        raise StructuralError("quotient is not even in x")
    q = shifted[0::2]
    if q[-1] < 0:
        q = [-c for c in q]
    return poly_trim(q)


def factor_degrees(p):
    """Sorted degrees of the irreducible rational factors of ``p``, with multiplicity."""
    y = sy.symbols("y")
    factors = sy.factor_list(sy.Poly(list(reversed(p)), y, domain="ZZ"))[1]
    return tuple(sorted(f.degree() for f, mult in factors for _ in range(mult)))


def candidates_full_mask(f, c, h, delta, start, size, amplitude_cap, least):
    """(segment, position) of every candidate sample of a scan chunk.

    The arguments are those of ``dynamics._candidates``.  Every sample past a
    segment's size is set to -inf before any sample is read.
    """
    block = dynamics.PHASOR_BLOCK
    amp = np.abs(dynamics.phasor_amplitude(f, c, h, start, size))
    rows = amp.shape[2]
    index = block * np.arange(rows) + np.arange(block)[:, None]
    amp[index >= size[:, None, None]] = -np.inf
    peak = amp.max(axis=1)
    floor = peak.max(axis=1)
    if amplitude_cap is not None:
        floor = np.minimum(amplitude_cap, floor)
    level = np.maximum(floor - delta, least)
    segments, positions = [], []
    for k in range(len(size)):
        samples = amp[k].T.reshape(-1)[:size[k]]
        for i in np.flatnonzero(peak[k] >= level[k]):
            for j in range(block * i, min(block * (i + 1), size[k])):
                left = samples[j - 1] if j > 0 else -np.inf
                right = samples[j + 1] if j + 1 < size[k] else -np.inf
                if samples[j] >= level[k] and samples[j] >= left and samples[j] >= right:
                    segments.append(k)
                    positions.append(j)
    return np.array(segments, dtype=int), np.array(positions, dtype=int)


def write_trace_csv(trace, path):
    """CSV of a transfer trace, one f-string of Python floats per row."""
    columns = (np.asarray(c).tolist() for c in (trace.times, trace.probability, trace.fidelity))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,P,f\n")
        for t, p, f in zip(*columns):
            fh.write(f"{t:.15g},{p:.15g},{f:.15g}\n")


def hamiltonian_from_edges(spec):
    """One-excitation H of a chain, built from its labelled edge list.

    A site is (qubit type, 1-based cell), e.g. ("A1", 1) for the left corner;
    cell order puts A1, A2, B of each cell in turn, the last cell without B.
    """
    index = {}
    for i in range(1, spec.n_cells + 2):
        for kind in ("A1", "A2", "B")[: 3 if i <= spec.n_cells else 2]:
            index[kind, i] = len(index)
    edges = [(("A1", i), ("A2", i), spec.g[i - 1]) for i in range(1, spec.n_cells + 2)]
    for i in range(1, spec.n_cells + 1):
        edges.append((("A1", i), ("B", i), spec.t[i - 1]))
        edges.append((("B", i), ("A1", i + 1), spec.w[i - 1]))
    h = np.zeros((spec.n, spec.n))
    for a, b, c in edges:
        h[index[a], index[b]] = h[index[b], index[a]] = c
    return h


def jacobi_from_diagonals(spec):
    """J of one chain as the sum of its diagonal and off-diagonal matrices."""
    t = np.asarray(spec.t)
    w = np.asarray(spec.w)
    diag = np.asarray(spec.g) ** 2
    diag[:-1] += t**2
    diag[1:] += w**2
    off = t * w
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def problem_chain(problem, params):
    """ChainSpec for one parameter vector of an optimization problem."""
    nc = problem.k + 1
    if problem.scenario == optimize.Scenario.FIXED_W_OPT_G:
        w = float(problem.fixed_params["w"])
        g = float(params[0])
        return chains.ChainSpec(
            n_cells=nc, t=(1.0,) * nc, w=(w,) * nc, g=(g,) * (nc + 1)
        )
    if problem.scenario == optimize.Scenario.ALPHA_OPT_TG:
        t, g = float(params[0]), float(params[1])
        w = t / float(problem.fixed_params["alpha"])
        return chains.ChainSpec(
            n_cells=nc, t=(t,) * nc, w=(w,) * nc, g=(g,) * (nc + 1)
        )
    t, w = float(params[0]), float(params[1])
    g = tuple(float(x) for x in params[2:])
    return chains.ChainSpec(n_cells=nc, t=(t,) * nc, w=(w,) * nc, g=g)


def probability_closed_form_pst(family, k):
    """Corner-to-corner cosine series of a PST design, independent of v1."""
    if k < 1:
        raise ValidationError(f"spectrum offset k must be >= 1, got {k}")
    if family == "n8":
        norm = 8.0 * (k + 1)
        freqs = (k, k + 1, k + 2)
        coeffs = ((2 * k + 3) / norm, -4 * (k + 1) / norm, (2 * k + 1) / norm)
    elif family == "n11":
        norm = 16.0 * (k + 1) * (k + 2)
        freqs = (k, k + 1, k + 2, k + 3)
        coeffs = (
            (10 + 9 * k + 2 * k * k) / norm,
            -3 * (5 + 7 * k + 2 * k * k) / norm,
            3 * (1 + 2 * k) * (2 + k) / norm,
            -(1 + 2 * k) * (1 + k) / norm,
        )
    else:
        raise ValidationError(f"unknown PST family {family!r}")
    return dynamics.CosineSeries(tuple(float(f) for f in freqs), coeffs)


def dimerized_chain(w, g):
    """Uniform dimerized N=11 chain: t_i = 1, w_i = w, g_i = g."""
    if w <= 0 or g <= 0:
        raise ValidationError("couplings w and g must be positive")
    return chains.ChainSpec(n_cells=3, t=(1.0, 1.0, 1.0), w=(w, w, w), g=(g, g, g, g))


def dimerized_series(w, g):
    """Exact five-frequency cosine series of the dimerized N=11 chain."""
    if w <= 0 or g <= 0:
        raise ValidationError("couplings w and g must be positive")
    r2 = math.sqrt(2.0)
    base = g * g + w * w + 1
    pref = w / (4 * (w * w + 1) * (w**4 + 1))
    freqs = [
        math.sqrt(base - r2 * w),
        math.sqrt(base + r2 * w),
        math.sqrt(base),
        g,
    ]
    coeffs = [
        pref * (w * w + 1) * (w * w + r2 * w + 1),
        pref * (w * w + 1) * (w * w - r2 * w + 1),
        pref * (-2) * (w**4 + 1),
        pref * (-4) * w * w,
    ]
    # for w, g > 0 the four frequencies are pairwise distinct
    order = np.argsort(freqs)
    return dynamics.CosineSeries(
        tuple(freqs[i] for i in order), tuple(coeffs[i] for i in order)
    )


def peak_search(series, t_max):
    """(t*, P*) at the global maximum of P over [0, t_max], refined chunk by chunk.

    A one-row scan whose chunks' candidates each take their own
    ``dynamics.refine_peaks`` batch; P* is ``series.probability(t*)`` capped
    at 1, bit for bit.
    """
    if not 0 < t_max < math.inf:
        raise ValidationError(f"t_max must be positive and finite, got {t_max}")
    best_t, best_p = 0.0, -1.0
    f, c = np.array([series.frequencies]), np.array([series.coefficients])
    for candidates, _ in dynamics.scan_candidates(f, c, t_max):
        times, probs, _ = dynamics.refine_peaks(f, c, candidates)
        i = int(np.argmax(probs))
        if probs[i] > best_p:
            best_t, best_p = float(times[i]), float(probs[i])
    return best_t, best_p


def scan_chunks(n, per):
    """``(members, starts, sizes)`` of each chunk of a scan, from its whole segment table.

    Member k is cut into ``per[k]`` segments of SCAN_CHUNK steps (0 when the
    scan skips it) on its grid of ``n[k]`` samples; consecutive segments go
    into one chunk while (segments x widest segment) samples, in whole
    PHASOR_BLOCK rows, fit in SCAN_CHUNK.
    """
    chunk, block = dynamics.SCAN_CHUNK, dynamics.PHASOR_BLOCK
    n, per = np.asarray(n), np.asarray(per)
    member = np.repeat(np.arange(len(n)), per)
    start = (np.arange(member.size) - np.repeat(np.cumsum(per) - per, per)) * chunk
    size = np.minimum(start + chunk, n[member] - 1) - start + 1
    rows = -(-size // block)
    out, first, widest = [], 0, 0
    for i, r in enumerate(rows.tolist()):
        widest = max(widest, r)
        if i > first and (i - first + 1) * widest * block > chunk:
            out.append((member[first:i], start[first:i], size[first:i]))
            first, widest = i, r
    if first < len(rows):
        out.append((member[first:], start[first:], size[first:]))
    return out
