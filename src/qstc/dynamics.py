"""Time evolution in the one-excitation subspace.

The chain graph is bipartite and both corners are A1 qubits, so the odd
part of exp(-iHt) never connects them: the corner-to-corner amplitude is the
real cosine series amp(t) = sum_j c_j cos(f_j t), and P(t) = amp(t)^2, for
every chain.  The frequencies f_j = sqrt(mu_j) and coefficients
c_j = u_j[0] u_j[-1] come from the eigenpairs of the (n_cells+1)x(n_cells+1)
tridiagonal Jacobi matrix J = H^2 restricted to the A1 qubits
(:func:`chains.jacobi_matrix`).  The same series serves sampled traces,
pretty-good-transfer arguments and peak searches.

The series work on stacks too: :func:`jacobi_series` turns an (m, n, n) stack
of Jacobi matrices into (m, n) frequency and coefficient arrays with one
``eigh`` call, and :func:`amplitudes` evaluates them row by row.  Sums over
frequencies go through ``einsum``, so P(t) has the same bits whatever the
call shape.

:func:`scan_candidates` and :func:`refine_peaks` are the one scan-and-refine
peak search, over a stack of series, in two steps: sampling, chunk by chunk,
and Newton refinement of any batch of the candidates found.
:func:`window_maxima` scans a whole stack (the optimizer's population) and
refines every chunk's candidates in one batch; :func:`design.pgt_search`
refines chunk by chunk, so that it stops at its first hit.
Each member keeps its own uniform grid t_m = m h, sampled from two phasor
tables (:func:`phasor_amplitude`) in one batched product per chunk, not from
one cosine per sample and frequency; the table entries are products of a
few phasors taken directly at power-of-two multiples of f h, and the
certificate allows for the rounding of those samples.  Local maxima are
sought only in the sample blocks whose largest |a| could matter, each
candidate is refined by Newton steps until its own step converges, whatever
batch it is in, and every P reported is a direct evaluation of the series
at the reported time, capped at 1 by :func:`capped_probability`.  Given the
values to beat (the optimizer passes its parents' fitness), the scan skips
the members and maxima that cannot reach them.

The averaged transmission fidelity is f = 1/2 + sqrt(P)/3 + P/6 with the
controllable phase set to its optimal value.

:func:`write_trace` streams a sampled trace: it builds the grid of
``np.linspace`` bit for bit, TRACE_BLOCK rows at a time, evaluates each block
as :func:`transfer_probability` would, and writes each value as exactly its
``'%.15g'`` text, so its memory does not grow with the sample count.  numpy
computes the 15 digits of every value in ``%g``'s fixed-notation range
1e-4 <= v < 1e15, from Dekker's exact product of v and a power of ten
(Dekker, Numer. Math. 18, 224 (1971)); Python's own ``%`` formats the rest
(zero, negatives, smaller and larger values, inf, nan) and the rare values
within 1e-6 of a rounding tie.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import chains
from .errors import NumericalError, UnsupportedInputError, ValidationError

#: probability may exceed 1 by at most this much before it is an error
PROB_SLACK = 1e-9
#: samples per chunk of a forward scan; bounds the memory of long scans
SCAN_CHUNK = 65536
#: most Newton steps spent refining one candidate peak
NEWTON_STEPS = 8
#: width B of the inner phasor table that samples a scan chunk: a power of two,
#: about the square root of a typical scan's sample count
PHASOR_BLOCK = 32
#: rows of a trace whose text :func:`write_trace` builds at once; with
#: 40 bytes per value, each working array of a block stays near 120 KB, small
#: enough to be reused from the heap rather than mapped afresh for every block
CSV_BLOCK = 1024
#: rows of a trace that :func:`write_trace` evaluates at once, a multiple of
#: CSV_BLOCK; fewer rows cost more per-call overhead than they save in memory
TRACE_BLOCK = 8192


def capped_probability(p):
    """``p`` capped at 1; above 1 + PROB_SLACK, or NaN, it raises :class:`NumericalError`."""
    p = np.asarray(p, dtype=float)
    if not p.max(initial=0.0) <= 1 + PROB_SLACK:
        raise NumericalError(f"probability above 1: max {p.max()}")
    return np.minimum(p, 1.0)


def fidelity_from_probability(p):
    """Averaged transmission fidelity for transfer probability ``p``."""
    p = np.asarray(p, dtype=float)
    return 0.5 + np.sqrt(p) / 3.0 + p / 6.0


@dataclass(frozen=True)
class TransferTrace:
    """Sampled corner-to-corner transfer record.

    Attributes
    ----------
    times, probability, fidelity : read-only float ndarray
        Sample grid, P(t) and f(t) at each sample.
    peak : tuple
        (t*, P*) of the best sample in the trace.
    """

    times: np.ndarray
    probability: np.ndarray
    fidelity: np.ndarray
    peak: tuple


def _split(x):
    """Dekker's split of x into a high part of 26 bits and the rest."""
    big = 134217729.0 * x  # 2^27 + 1
    high = big - (big - x)
    return high, x - high


#: 10^k for k = 0, ..., 18 (exact doubles) and their Dekker split
_TEN = 10.0 ** np.arange(19)
_TEN_HIGH, _TEN_LOW = _split(_TEN)
#: bytes of a value's field in :func:`_csv_text`: 3 spaces, "0.000", then the
#: 16 digits of 4 groups each followed by '.', the last '.' being the separator
_FIELD = 40
#: text code of a value Python formats is _PYTHON_CODE + its length
_PYTHON_CODE = 19 * 15


@functools.cache
def _text_tables():
    """The tables of :func:`_csv_text`, built on first use.

    Returns each 4-digit group g (leading zeros kept) as the 8 bytes
    "d.d.d.d." in one uint64, each group's trailing zero digits (4 for 0000),
    and which field bytes a value's text keeps, one row per text code.  Code
    15 (x + 4) + last is fixed notation with decimal exponent x
    (-4 <= x <= 14) whose last significant digit is digit ``last`` of 15;
    code _PYTHON_CODE + length is a value formatted by Python, left-justified.
    A process that writes no trace never builds them.
    """
    digits = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    text = np.insert(digits, [1, 2, 3, 4], ord("."), axis=1).view(np.uint64).ravel()
    zeros = np.cumprod(digits[:, ::-1] == ord("0"), axis=1).sum(axis=1)
    keep = np.zeros((_PYTHON_CODE + 23, _FIELD), dtype=bool)
    keep[:, -1] = True
    for x in range(-4, 15):
        for last in range(15):
            row = keep[15 * (x + 4) + last]
            row[10:11 + 2 * max(last, x):2] = True  # digits, the first group's lead zero skipped
            if x < 0:
                row[3:4 - x] = True  # "0." and -x - 1 zeros
            elif last > x:
                row[11 + 2 * x] = True  # the '.' after digit x
    for length in range(23):
        keep[_PYTHON_CODE + length, :length] = True
    return text, zeros, keep


def _scaled(v, exp):
    """v 10^(14 - exp) = p + err exactly (Dekker's product), for 10^(14 - exp) <= 10^18."""
    k = 14 - exp
    high, low = _split(v)
    ten_high, ten_low = _TEN_HIGH[k], _TEN_LOW[k]
    p = v * _TEN[k]
    return p, ((high * ten_high - p) + high * ten_low + low * ten_high) + low * ten_low


def _csv_text(block):
    """CSV text of a 2-d float block: each value as ``'%.15g' % v``, a newline after each row.

    A value v with 1e-4 <= v < 1e15 is in ``%g``'s fixed notation at
    precision 15, and its digits are computed with numpy: with
    e = floor(log10 v), v 10^(14 - e) = p + err exactly, rounded half to even
    to the 15-digit integer n (e is corrected when log10 lands a decade off,
    and n = 10^15 moves to the next decade).  n's digits come from a table
    of 4-digit groups, and each value's text, its '.' placed, trailing zeros
    and a bare '.' dropped, is picked out of a fixed 40-byte field.  Every
    other value goes through Python's own ``'%.15g'``: 0, -0.0, negatives,
    v < 1e-4, v >= 1e15 (or rounding to 10^15), inf, nan, and any v whose
    exact v 10^(14 - e) lies within 1e-6 of a rounding tie.
    """
    group_text, group_zeros, keep = _text_tables()
    v = block.ravel()
    fast = (v >= 1e-4) & (v < 1e15)
    x = np.where(fast, v, 1.0)
    exp = np.clip(np.floor(np.log10(x)), -4, 14).astype(np.intp)
    p, err = _scaled(x, exp)
    # p + err against 10^14 and 10^15 with exact signs: p - 10^k is exact when
    # p is near 10^k, and then larger than |err| unless it is 0
    low = (p - 1e14) + err < 0
    high = (p - 1e15) + err >= 0
    off = low | high
    if off.any():  # log10 landed a decade off
        exp = exp - low + high
        p[off], err[off] = _scaled(x[off], exp[off])
    whole = np.floor(p)
    frac = (p - whole) + err
    up = np.rint(frac)
    tie = np.abs(np.abs(frac - up) - 0.5) <= 1e-6
    n = (whole + up).astype(np.intp)
    carry = n == 10**15
    n[carry] = 10**14
    exp += carry
    upper, lower = np.divmod(n, 10**8)
    groups = np.divmod(upper, 10**4) + np.divmod(lower, 10**4)
    g0, g1, g2, g3 = groups
    trailing = group_zeros[g3] + (g3 == 0) * (
        group_zeros[g2] + (g2 == 0) * (group_zeros[g1] + (g1 == 0) * group_zeros[g0]))
    code = 15 * exp + 74 - trailing  # 15 (exp + 4) + the last significant digit
    words = np.empty((v.size, _FIELD // 8), dtype=np.uint64)
    words[:, 0] = np.frombuffer(b"   0.000", dtype=np.uint64)
    words[:, 1:] = group_text[np.stack(groups, axis=1)]
    field = words.view(np.uint8)
    separator = np.full(block.shape, ord(","), dtype=np.uint8)
    separator[:, -1] = ord("\n")
    field[:, -1] = separator.ravel()
    slow = np.flatnonzero(~fast | tie | (exp > 14))
    if slow.size:  # '%.15g' text is at most 22 characters, as in -1.23456789012345e-308
        text = ("%-22.15g" * slow.size % tuple(v[slow].tolist())).encode("ascii")
        padded = np.frombuffer(text, dtype=np.uint8).reshape(-1, 22)
        field[slow, :22] = padded
        code[slow] = _PYTHON_CODE + np.count_nonzero(padded != ord(" "), axis=1)
    return np.compress(np.take(keep, code, axis=0).ravel(), field.ravel()).tobytes().decode("ascii")


def transfer_probability(spec, times):
    """Corner-to-corner transfer probability over a time grid.

    Parameters
    ----------
    spec : ChainSpec
        Chain to evolve; the excitation starts on the first corner qubit and
        is read out on the second.
    times : array_like
        Finite sample times in inverse-coupling units, checked by :meth:`CosineSeries.trace`.

    Returns
    -------
    TransferTrace
    """
    return chain_series(spec).trace(times)


def linspace_block(t_max, samples, start, stop):
    """Samples start, ..., stop - 1 of ``np.linspace(0.0, t_max, samples)``, bit for bit.

    For t_max > 0 and 2 <= samples <= 2^53: sample i is i * step, with
    step = t_max / (samples - 1), or (i / (samples - 1)) * t_max when that
    step underflows to 0, as linspace computes them; the last sample is t_max.
    """
    t_max = np.float64(t_max)
    block = np.arange(start, stop, dtype=float)
    step = t_max / (samples - 1)
    if step == 0:  # a subnormal step
        block /= samples - 1
        block *= t_max
    else:
        block *= step
    if stop == samples:
        block[-1] = t_max
    return block


def write_trace(series, t_max, samples, out=None):
    """P and f of ``series`` on ``np.linspace(0.0, t_max, samples)``, streamed.

    The grid is sampled TRACE_BLOCK rows at a time (:func:`linspace_block`),
    each block through :meth:`CosineSeries.trace`, so every value has the
    bits that :func:`transfer_probability` gives on the whole grid.  If a text
    file ``out`` is given, it gets the header ``t,P,f`` and each row as
    exactly the ``'%.15g'`` text of its values, built by :func:`_csv_text`
    CSV_BLOCK rows at a time.  Only one block is held, whatever ``samples``;
    a block that fails stops the trace before its rows are written.

    Before anything is written, ``samples`` below 2 or ``t_max`` that is not
    positive and finite raise :class:`ValidationError`, and ``samples`` of
    2^63 or more, beyond an int64 as for a scan, :class:`UnsupportedInputError`.

    Returns (t*, P*) of the first best sample.
    """
    if samples < 2:
        raise ValidationError(f"samples must be >= 2, got {samples}")
    if samples >= 2**63:
        raise UnsupportedInputError(f"samples must fit in an int64, got {samples}")
    if not 0 < t_max < math.inf:
        raise ValidationError(f"tmax must be positive and finite, got {t_max}")
    if out is not None:
        out.write("t,P,f\n")
    peak = None
    for start in range(0, samples, TRACE_BLOCK):
        block = series.trace(linspace_block(t_max, samples, start, min(start + TRACE_BLOCK, samples)))
        if peak is None or block.peak[1] > peak[1]:
            peak = block.peak
        if out is not None:
            columns = (block.times, block.probability, block.fidelity)
            for row in range(0, len(block.times), CSV_BLOCK):
                out.write(_csv_text(np.column_stack([c[row:row + CSV_BLOCK] for c in columns])))
    return peak


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

    def amplitude(self, times):
        """a(t) at each time, by :func:`amplitudes`."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        return amplitudes(self.frequencies, self.coefficients, times)

    def probability(self, times):
        return self.amplitude(times) ** 2

    def trace(self, times):
        """Sampled :class:`TransferTrace`, P through :func:`capped_probability`.

        ``times`` that are not a non-empty 1-d array of finite values raise
        :class:`ValidationError`; a largest phase f_max max|t| that overflows
        is an :class:`UnsupportedInputError`, before any cosine is taken.
        """
        times = np.array(times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValidationError("times must be a non-empty 1-d array")
        if not np.all(np.isfinite(times)):
            raise ValidationError("times must be finite")
        f_max = float(max(self.frequencies, default=0.0))
        t_far = float(np.max(np.abs(times)))
        if f_max * t_far == math.inf:
            raise UnsupportedInputError(f"phase f t overflows: f_max {f_max:g} at t = {t_far:g}")
        prob = capped_probability(self.probability(times))
        fid = fidelity_from_probability(prob)
        for column in (times, prob, fid):
            column.flags.writeable = False
        best = int(np.argmax(prob))
        return TransferTrace(times=times, probability=prob, fidelity=fid,
                             peak=(float(times[best]), float(prob[best])))


def jacobi_series(jacobi):
    """Frequencies and coefficients of a Jacobi matrix or an (m, n, n) stack.

    One ``np.linalg.eigh`` call for the whole stack; row k of each result is
    member k's series, frequencies ascending.
    """
    mu, u = np.linalg.eigh(jacobi)
    freqs = np.sqrt(np.maximum(mu, 0.0))  # roundoff when some g_i^2 is tiny
    return freqs, u[..., 0, :] * u[..., -1, :]


def chain_series(spec):
    """Cosine series between the corner qubits of any chain.

    With (mu_j, u_j) the eigenpairs of :func:`chains.jacobi_matrix`, the
    corner amplitude is sum_j u_j[0] u_j[-1] cos(sqrt(mu_j) t).  J is an
    unreduced tridiagonal matrix, so its spectrum is simple, and it is
    positive definite, so every frequency is positive.  Frequencies come out
    ascending.  No mirror symmetry is needed.
    """
    freqs, coeffs = jacobi_series(chains.jacobi_matrix(spec.t, spec.w, spec.g))
    return CosineSeries(tuple(freqs.tolist()), tuple(coeffs.tolist()))


def amplitudes(frequencies, coefficients, times):
    """a_k(t_k) = sum_j c_kj cos(f_kj t_k) at each of the m times ``times``.

    ``frequencies`` and ``coefficients`` are (m, n_freq) stacks, row k for
    time k, or one series' (n_freq,) values for every time.  Each sum is taken
    by ``einsum`` in one fixed order, so a value has the same bits whatever the
    call shape (BLAS dot and gemv round differently).  At most
    SCAN_CHUNK // n_freq times go into one ``einsum``, which bounds the
    memory of a long trace.
    """
    f = np.asarray(frequencies, dtype=float)
    c = np.asarray(coefficients, dtype=float)
    out = np.empty(len(times))
    step = max(SCAN_CHUNK // max(f.shape[-1], 1), 1)
    for start in range(0, len(times), step):
        rows = slice(start, start + step)
        fk, ck = (f[rows], c[rows]) if f.ndim == 2 else (f, c)
        out[rows] = np.einsum("...j,...j->...", np.cos(times[rows, None] * fk), ck)
    return out


def scan_size(f_max, t_max):
    """Samples over [0, t_max]: step <= pi/(8 f_max) (4x Nyquist), at least 65.

    Elementwise over an array of maximum frequencies.  A count that does not
    fit in an int64 is an :class:`UnsupportedInputError`.
    """
    steps = np.ceil(t_max * 8 * np.asarray(f_max) / np.pi)
    if not np.all(steps < 2.0**63):
        raise UnsupportedInputError(f"a scan of [0, {t_max:g}] needs more than 2^63 samples")
    return np.maximum(steps.astype(int) + 1, 65)


def _phasor(angle):
    """exp(i angle), written as its cosine and sine."""
    out = np.empty(np.shape(angle), dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _powers(first, p, count):
    """``first`` z^e for e = 0, ..., count - 1 along a new first axis, from p[j] = z^(2^j).

    Entry e is ``first`` times the p[j] over the set bits j of e, so it
    carries the rounding of at most bit_length(count - 1) direct phasors; a
    recurrence z^e = z z^(e - 1) would carry e of them.
    """
    out = np.empty((count,) + p.shape[1:], dtype=complex)
    out[0] = first
    filled = 1
    for z in p:
        n = min(filled, count - filled)
        np.multiply(out[:n], z, out=out[filled:filled + n])
        filled += n
    return out


def phasor_amplitude(frequencies, coefficients, h, start, size):
    """Samples a_k(m h_k), m = start_k, ..., start_k + size_k - 1, of a stack.

    Row k of the (S, n_freq) stacks gets its own step h_k, start and size.
    With m = start_k + B r + b (B = PHASOR_BLOCK, 0 <= b < B),
    a_k(m h_k) = Re sum_j O_kjr exp(i f_kj h_k b), where the outer entry
    O_kjr = c_kj exp(i f_kj h_k start_k) exp(i f_kj h_k B r).  Both tables are
    :func:`_powers` of phasors taken directly at the angles f h 2^e, exact
    multiples of the rounded f h, so an entry is a product of at most log2 B
    (inner) or log2 rows + 1 (outer) direct phasors and costs no cosine or
    sine of its own.  The real parts of a row are one real (B x 2 n_freq) @
    (2 n_freq x rows) product on float views of the complex tables, batched
    over the rows: row k costs about (log2 B + log2 rows + 1) n_freq cosines
    and sines, not one cosine per sample and frequency.  A sample's phases are
    off by the rounding of f h times m, as a direct cosine's are by the
    rounding of its time, plus the rounding of the few phasors and products
    it is made of, so it is within a few eps (1 + f_max m h) sum |c_j| of the
    direct cosine sum, which is itself only that close to the exact
    amplitude.  Returns an (S, B, rows) array, rows = ceil(max size / B),
    whose entry [k, b, r] is sample start_k + B r + b, so a block of B
    consecutive samples is a column; row k's samples are its first size_k in
    that order.
    """
    fh = np.asarray(frequencies, dtype=float) * np.asarray(h, dtype=float)[:, None]
    rows = -(-int(np.max(size)) // PHASOR_BLOCK)
    bits = (PHASOR_BLOCK - 1).bit_length()
    direct = _phasor(2.0 ** np.arange(bits + (rows - 1).bit_length())[:, None, None] * fh)
    base = np.asarray(coefficients, dtype=float) * _phasor(fh * np.asarray(start)[:, None])
    outer = _powers(base, direct[bits:], rows)
    # exp(-i f h b), so that Re(O exp(i f h b)) is a real dot product
    inner = _powers(1.0, np.conj(direct[:bits]), PHASOR_BLOCK)
    return inner.transpose(1, 0, 2).view(float) @ outer.view(float).transpose(1, 2, 0)


def _chunks(n, members):
    """``(members, starts, sizes)`` of each chunk of a scan on grids of ``n`` samples.

    One entry per segment of the scanned ``members``, in member order.  Consecutive segments share a
    chunk while (segments x widest segment) samples, in whole PHASOR_BLOCK
    rows, fit in SCAN_CHUNK.  Every segment but a member's last has
    SCAN_CHUNK + 1 samples, so it goes alone and comes from a ``range``: only
    each member's last segment is held, however long the scan.
    """
    start = (n[members] - 2) // SCAN_CHUNK * SCAN_CHUNK  # of each member's last segment
    size = n[members] - start
    first, widest = 0, 0
    for i, (last, r) in enumerate(zip(start.tolist(), (-(-size // PHASOR_BLOCK)).tolist())):
        widest = max(widest, r)
        # a member's full segments come first, so they close the run before it
        if i > first and (last or (i - first + 1) * widest * PHASOR_BLOCK > SCAN_CHUNK):
            yield members[first:i], start[first:i], size[first:i]
            first, widest = i, r
        for full in range(0, last, SCAN_CHUNK):
            yield members[i:i + 1], np.array([full]), np.array([SCAN_CHUNK + 1])
    if first < len(members):
        yield members[first:], start[first:], size[first:]


def _candidates(f, c, h, delta, start, size, amplitude_cap, least):
    """(segment, position) of every candidate sample of a chunk, for :func:`scan_candidates`.

    Each PHASOR_BLOCK-sample block's largest |a_s| comes first; local maxima
    are sought only inside the blocks that reach the segment's level.  The
    sample block lives only here, so a chunk's samples are freed before the
    next chunk is sampled.
    """
    amp = phasor_amplitude(f, c, h, start, size)
    np.abs(amp, out=amp)
    rows = amp.shape[2]
    # padding: the rest of each segment's last block, the sample after that
    # block (a neighbour of its last sample) and the maxima of later blocks;
    # no other padded sample is read
    k, last = np.arange(size.size), (size - 1) // PHASOR_BLOCK
    edge = amp[k, :, last]
    edge[np.arange(PHASOR_BLOCK) >= (size - PHASOR_BLOCK * last)[:, None]] = -np.inf
    amp[k, :, last] = edge
    inside = last + 1 < rows
    amp[k[inside], 0, last[inside] + 1] = -np.inf
    peak = amp.max(axis=1)
    peak[np.arange(rows) > last[:, None]] = -np.inf
    floor = peak.max(axis=1)
    if amplitude_cap is not None:
        floor = np.minimum(amplitude_cap, floor)
    level = np.maximum(floor - delta, least)
    seg, block = np.nonzero(peak >= level[:, None])
    # each block that reaches the level, with its neighbouring samples; the
    # first and last samples of a segment compare one side
    index = np.clip(block[:, None] * PHASOR_BLOCK + np.arange(-1, PHASOR_BLOCK + 1),
                    0, PHASOR_BLOCK * rows - 1)
    near = amp[seg[:, None], index % PHASOR_BLOCK, index // PHASOR_BLOCK]
    near[:, 0][block == 0] = -np.inf
    near[:, -1][block == rows - 1] = -np.inf
    mid = near[:, 1:-1]
    hit = (mid >= level[seg, None]) & (mid >= near[:, :-2]) & (mid >= near[:, 2:])
    which, offset = np.nonzero(hit)
    return seg[which], block[which] * PHASOR_BLOCK + offset


def scan_candidates(frequencies, coefficients, t_max, amplitude_cap=None, beat=None):
    """Sampling half of the forward scan of P_k(t) = a_k(t)^2 over [0, t_max].

    Row k of the (m, n_freq) ``frequencies`` and ``coefficients`` is one
    series.  It is scanned on its own :func:`scan_size` grid t = i h_k, cut into
    segments of SCAN_CHUNK steps that share their boundary samples.  Segments
    go in member order in chunks whose padded sample block holds at most
    SCAN_CHUNK samples (a longer segment goes alone), streamed by
    :func:`_chunks`, so the memory of a scan does not grow with t_max;
    :func:`phasor_amplitude` samples a chunk in one batched product.

    An interior maximum of |a_k| has a' = 0, so it exceeds its nearest sample
    by at most sum |c_j| f_j^2 h_k^2 / 8.  A computed sample, from the tables
    or from direct cosines alike, is off by about eps (1 + f_max t_max) sum |c_j|
    at most, so member k's delta is the first bound plus the rounding
    allowance eta = 4 eps (1 + f_max t_max) sum |c_j|.  Every local maximum of
    a segment's sampled |a_k| (segment ends count) with |a_s| >= floor - delta
    is a candidate; the floor is the segment's largest |a_s|, capped at
    ``amplitude_cap``.

    ``beat`` (a number or one per member) skips the work that cannot give
    some P_k >= beat_k: a member with sum |c_j| + eta < sqrt(beat_k) is not
    scanned, and a local maximum with |a_s| < sqrt(beat_k) - 2 delta is not a
    candidate.

    Yields ``(candidates, samples)`` per chunk: the arrays ``(members, times,
    lo, hi, tol)`` of :func:`refine_peaks` (each candidate's row, its sample
    time, in time order within a segment, the neighbouring sample times, or
    its own at a segment end, and 1e-8 h_k), and the samples the chunk took.
    Candidates of any chunks, concatenated, are again candidates.
    """
    f = np.asarray(frequencies, dtype=float)
    c = np.asarray(coefficients, dtype=float)
    f_max = f.max(axis=1, initial=0.0)
    n = scan_size(f_max, t_max)
    h = t_max / (n - 1)
    ceiling = np.abs(c).sum(axis=1)
    eta = 4 * np.finfo(float).eps * (1 + f_max * t_max) * ceiling
    delta = np.einsum("kj,kj->k", np.abs(c * f), f) * h * h / 8 + eta
    members = np.arange(len(f))
    least = np.full(len(f), -np.inf)
    if beat is not None:
        root = np.sqrt(np.maximum(beat, 0.0))
        members = np.flatnonzero(~(ceiling + eta < root))
        least = root - 2 * delta
    for k, st, sz in _chunks(n, members):
        seg, pos = _candidates(f[k], c[k], h[k], delta[k], st, sz, amplitude_cap, least[k])
        rows, index, span = k[seg], st[seg] + pos, n[k[seg]] - 1
        lo = t_max * (np.maximum(index - 1, st[seg]) / span)
        hi = t_max * (np.minimum(index + 1, st[seg] + sz[seg] - 1) / span)
        yield (rows, t_max * (index / span), lo, hi, 1e-8 * h[rows]), int(sz.sum())


def refine_peaks(frequencies, coefficients, candidates):
    """Refinement half of the scan: Newton steps on a' = 0 for any batch of candidates.

    ``candidates`` are the arrays ``(members, times, lo, hi, tol)`` of
    :func:`scan_candidates`, from one chunk or several concatenated; row
    ``members[i]`` of the stacks is candidate i's series.  Each candidate
    gets Newton steps, each clipped to [lo, hi], up to its own first step of
    at most ``tol`` (or NEWTON_STEPS), and keeps the better of sample and
    refined point.  Every step is taken row by row, so a candidate's time and
    P do not depend on the batch it is in.

    Returns ``(times, probs, evaluations)``: each candidate's time, its P from
    :func:`amplitudes` at that time (so ``series.probability(t)`` capped at 1,
    bit for bit), and the evaluations the refinement made.
    """
    members, sample, lo, hi, tol = candidates
    f = np.asarray(frequencies, dtype=float)[members]
    c = np.asarray(coefficients, dtype=float)[members]
    cf = c * f
    cff = cf * f
    t, active = sample, np.ones(members.size, dtype=bool)
    for steps in range(1, NEWTON_STEPS + 1):
        # a' = -sum c f sin(f t), a'' = -sum c f^2 cos(f t); the signs cancel
        phase = t[:, None] * f
        d1 = np.einsum("kj,kj->k", np.sin(phase), cf)
        d2 = np.einsum("kj,kj->k", np.cos(phase), cff)
        moved = np.clip(t - np.divide(d1, d2, out=np.zeros_like(d1), where=d2 != 0), lo, hi)
        # each candidate stops at its own first step <= tol, whatever its batch holds
        t, active = np.where(active, moved, t), active & (np.abs(moved - t) > tol)
        if not active.any():
            break
    # the samples' own P comes from the series too, not from the tables
    p = amplitudes(f, c, t) ** 2
    p_sample = amplitudes(f, c, sample) ** 2
    better = p > p_sample
    return (np.where(better, t, sample), capped_probability(np.where(better, p, p_sample)),
            (steps + 1) * members.size)


def window_maxima(frequencies, coefficients, t_max, beat=None):
    """Window maximum of P_k(t) = a_k(t)^2 over [0, t_max] for each row of a series stack.

    One :func:`scan_candidates` scan of every member, then one
    :func:`refine_peaks` batch of every chunk's candidates; a member's value
    is the largest refined P of its candidates, the same bits as a scan of
    that member alone.

    ``beat`` (a number or one per member) lets the scan skip what cannot
    decide ``value >= beat``: a member whose window maximum is >= beat_k gets
    that maximum, bit for bit, and any other member gets a value below
    beat_k (-1 when none of its maxima was refined).  So comparing the
    values with ``beat`` picks the same members as without it.
    """
    probs = np.full(len(frequencies), -1.0)
    scan = [found for found, _ in scan_candidates(frequencies, coefficients, t_max, beat=beat)]
    if scan:  # every chunk's candidates, refined in one Newton batch
        candidates = tuple(map(np.concatenate, zip(*scan)))
        _, peaks, _ = refine_peaks(frequencies, coefficients, candidates)
        np.maximum.at(probs, candidates[0], peaks)
    return probs
