"""Tests for time evolution, cosine series and peak searches."""

import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oracles import (candidates_full_mask, dimerized_chain, peak_search, scan_chunks,
                     write_trace_csv)
from qstc import chains, design, dynamics
from qstc.errors import NumericalError, UnsupportedInputError, ValidationError

SQRT3 = math.sqrt(3.0)

# Frozen oracle: exact corner-to-corner amplitude of the homogeneous N=17
# chain as a six-frequency cosine series (coefficients sum to zero, absolute
# values sum to one).
P17_FREQS = (
    1.0,
    2.0,
    math.sqrt(2.0),
    SQRT3,
    math.sqrt(3.0 - SQRT3),
    math.sqrt(3.0 + SQRT3),
)
P17_COEFFS = (
    -2.0 / 12.0,
    -1.0 / 12.0,
    -3.0 / 12.0,
    2.0 / 12.0,
    (2.0 + SQRT3) / 12.0,
    (2.0 - SQRT3) / 12.0,
)


def p17_reference(times):
    times = np.asarray(times, dtype=float)
    amp = np.cos(np.outer(times, P17_FREQS)) @ np.asarray(P17_COEFFS)
    return amp**2


def random_non_mirror_chain(n_cells, seed):
    """Couplings in [0.05, 4], about 30 % snapped to the bounds as DE clips them."""
    rng = np.random.default_rng(seed)
    couplings = rng.uniform(0.05, 4.0, 3 * n_cells + 1)
    snap = rng.random(couplings.size) < 0.3
    couplings[snap] = rng.choice([0.05, 4.0], int(snap.sum()))
    return chains.ChainSpec(
        n_cells=n_cells,
        t=couplings[:n_cells],
        w=couplings[n_cells : 2 * n_cells],
        g=couplings[2 * n_cells :],
    )


def rounding_unit(series, t_max):
    """eps (1 + f_max t_max) sum |c_j|: the scale of a sample's rounding error."""
    f_max = float(max(series.frequencies))
    ceiling = float(sum(abs(c) for c in series.coefficients))
    return np.finfo(float).eps * (1 + f_max * t_max) * ceiling


class TestFidelity:
    def test_endpoints(self):
        assert dynamics.fidelity_from_probability(0.0) == pytest.approx(0.5)
        assert dynamics.fidelity_from_probability(1.0) == pytest.approx(1.0)

    def test_monotone(self):
        p = np.linspace(0.0, 1.0, 50)
        f = dynamics.fidelity_from_probability(p)
        assert np.all(np.diff(f) > 0)


class TestTransferProbability:
    def test_starts_at_zero(self):
        trace = dynamics.transfer_probability(chains.homogeneous_chain(11), [0.0])
        assert trace.probability[0] < 1e-28

    def test_matches_matrix_exponential(self):
        spec = chains.homogeneous_chain(8)
        h = chains.build_hamiltonian(spec)
        a, b = 0, spec.n - 2  # the corners
        times = np.linspace(0.0, 20.0, 40)
        trace = dynamics.transfer_probability(spec, times)
        dense = h.toarray()
        for t, p in zip(times, trace.probability):
            u = expm(-1j * dense * t)
            assert abs(p - abs(u[b, a]) ** 2) < 1e-12

    def test_probability_bounded(self):
        rng = np.random.default_rng(7)
        spec = chains.ChainSpec(
            n_cells=3,
            t=rng.uniform(0.1, 3.0, 3),
            w=rng.uniform(0.1, 3.0, 3),
            g=rng.uniform(0.1, 3.0, 4),
        )
        trace = dynamics.transfer_probability(spec, np.linspace(0.0, 100.0, 500))
        assert max(trace.probability) <= 1.0
        assert min(trace.probability) >= 0.0

    def test_input_validation(self):
        # the grid checks live in CosineSeries.trace, so both entry points give the
        # same ValidationError for the same bad grid
        spec = chains.homogeneous_chain(5)
        series = dynamics.chain_series(spec)
        for times in ([], [[0.0, 1.0]], [math.nan], [math.inf], [0.0, np.inf]):
            messages = []
            for entry in (lambda t: dynamics.transfer_probability(spec, t), series.trace):
                with pytest.raises(ValidationError) as info:
                    entry(times)
                messages.append(str(info.value))
            assert messages[0] == messages[1], times

    def test_csv_format(self):
        out = io.StringIO()
        dynamics.write_trace(dynamics.chain_series(chains.homogeneous_chain(5)), 1.0, 2, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "t,P,f"
        assert len(lines) == 3
        assert lines[2].startswith("1,")

    @pytest.mark.parametrize("t_max, samples, error, message", [
        (5.0, 0, ValidationError, "samples must be >= 2, got 0"),
        (5.0, 1, ValidationError, "samples must be >= 2, got 1"),
        (5.0, 2**63, UnsupportedInputError, "samples must fit in an int64"),
        (0.0, 10, ValidationError, "tmax must be positive and finite, got 0.0"),
        (-1.0, 10, ValidationError, "tmax must be positive and finite, got -1.0"),
        (math.nan, 10, ValidationError, "tmax must be positive and finite, got nan"),
        (math.inf, 10, ValidationError, "tmax must be positive and finite, got inf"),
    ])
    def test_trace_input_rejected_before_writing(self, t_max, samples, error, message):
        # linspace would give one sample at t = 0, an empty or negative grid, or nan
        out = io.StringIO()
        with pytest.raises(error, match=f"^{message}"):
            dynamics.write_trace(dynamics.chain_series(chains.homogeneous_chain(5)),
                                 t_max, samples, out)
        assert out.getvalue() == ""

    def test_csv_matches_per_row_writer(self, tmp_path):
        # more than two evaluation blocks, so block boundaries of the evaluation
        # and of the text fall mid-trace, and the last block is short
        n = 2 * dynamics.TRACE_BLOCK + 123
        special = [0.0, 1.0, 5e-324, 1e-17, 2000.0]
        times = np.concatenate([special, np.linspace(0.0, 2000.0, n - len(special))])
        prob = np.concatenate([np.random.default_rng(5).random(n - len(special)),
                               [0.0, 1.0, 5e-324, 1e-17, 1.0]])
        for around in (dynamics.CSV_BLOCK - 2, dynamics.TRACE_BLOCK - 2):
            times[around:around + len(special)] = special
        trace = dynamics.TransferTrace(times, prob, dynamics.fidelity_from_probability(prob),
                                       (0.0, 0.0))

        class Recorded:
            """A series whose blocks are the next rows of ``trace``, whatever the grid."""
            done = 0

            def trace(self, grid):
                rows = slice(self.done, self.done + len(grid))
                self.done += len(grid)
                return dynamics.TransferTrace(trace.times[rows], trace.probability[rows],
                                              trace.fidelity[rows], (0.0, 0.0))

        with open(tmp_path / "blocks.csv", "w", encoding="utf-8") as fh:
            dynamics.write_trace(Recorded(), 1.0, n, fh)
        write_trace_csv(trace, tmp_path / "rows.csv")
        got = (tmp_path / "blocks.csv").read_bytes()
        assert got == (tmp_path / "rows.csv").read_bytes()
        assert got.count(b"\n") == n + 1
        # 5e-324 is the smallest subnormal, 4.94065645841247e-324 at 15 digits
        assert b"\n4.94065645841247e-324," in got and b",4.94065645841247e-324," in got
        assert b"\n1e-17," in got and b",1e-17," in got

    def test_streamed_trace_matches_transfer_probability(self, tmp_path):
        # three evaluation blocks and a short last one
        spec = chains.homogeneous_chain(11)
        n = 3 * dynamics.TRACE_BLOCK + 123
        trace = dynamics.transfer_probability(spec, np.linspace(0.0, 500.0, n))
        with open(tmp_path / "streamed.csv", "w", encoding="utf-8") as fh:
            peak = dynamics.write_trace(dynamics.chain_series(spec), 500.0, n, fh)
        write_trace_csv(trace, tmp_path / "rows.csv")
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert peak == trace.peak
        assert dynamics.write_trace(dynamics.chain_series(spec), 500.0, n) == trace.peak

    @settings(max_examples=60, deadline=None)
    @given(t_max=st.floats(min_value=5e-324, max_value=1e300),
           blocks=st.integers(min_value=0, max_value=3), offset=st.integers(min_value=-2, max_value=2))
    @example(t_max=1e-320, blocks=3, offset=1)  # a subnormal step, computed as (i / n) * t_max
    @example(t_max=5e-324, blocks=0, offset=2)
    def test_grid_blocks_are_linspace(self, t_max, blocks, offset):
        samples = max(blocks * dynamics.TRACE_BLOCK + offset, 2)
        grid = np.concatenate([
            dynamics.linspace_block(t_max, samples, start, min(start + dynamics.TRACE_BLOCK, samples))
            for start in range(0, samples, dynamics.TRACE_BLOCK)])
        assert grid.tobytes() == np.linspace(0.0, t_max, samples).tobytes()

    def test_overflowing_phase_is_unsupported(self):
        # f t beyond the float range is bad input, caught before any cosine warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnsupportedInputError, match="overflows"):
                dynamics.transfer_probability(chains.homogeneous_chain(11), [0.0, 1e308])

    def test_trace_arrays_read_only(self):
        times = np.linspace(0.0, 10.0, 50)
        trace = dynamics.transfer_probability(chains.homogeneous_chain(8), times)
        for column in (trace.times, trace.probability, trace.fidelity):
            assert isinstance(column, np.ndarray) and column.dtype == float
            with pytest.raises(ValueError):
                column[0] = 0.5
        assert times.flags.writeable  # the caller's grid is not frozen


def near_power_of_ten():
    """10^p moved by up to 64 ulps, p across and beyond the fixed-notation range."""
    return st.builds(lambda p, k: float(10.0**p + k * np.spacing(10.0**p)),
                     st.integers(min_value=-6, max_value=17), st.integers(min_value=-64, max_value=64))


def near_rounding_tie():
    """Doubles within a few ulps of a tie between two 15-digit decimals, 1e-4 <= v < 1e15."""
    return st.builds(lambda n, e, k: float(f"{n}5e{e}") + k * np.spacing(float(f"{n}5e{e}")),
                     st.integers(min_value=10**14, max_value=10**15 - 1),
                     st.integers(min_value=-19, max_value=-1), st.integers(min_value=-1, max_value=1))


def bit_patterns():
    """Any float64 bit pattern: subnormals, negatives, huge values, nan payloads."""
    return st.integers(min_value=0, max_value=2**64 - 1).map(
        lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))


class TestCsvText:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats() | bit_patterns() | near_power_of_ten() | near_rounding_tie()
                    # rounds up to 10^15, so it leaves fixed notation
                    | st.floats(min_value=999999999999999.0, max_value=1e15),
                    min_size=1, max_size=40))
    def test_one_column_block_is_percent_g(self, values):
        block = np.array(values, dtype=float)[:, None]
        assert dynamics._csv_text(block) == "".join("%.15g\n" % v for v in values)

    def test_many_values_per_block(self):
        # each decade of the fixed-notation range and beyond it, with the
        # block's separators: ',' between columns, a newline after each row
        rng = np.random.default_rng(11)
        values = np.concatenate([10 ** rng.uniform(-6, 17, 30000), rng.random(30000),
                                 np.round(rng.random(30000) * 1e6) / 1e6,
                                 rng.integers(10**14, 10**15, 30000) + 0.5])
        block = values.reshape(-1, 4)
        want = "".join("%.15g,%.15g,%.15g,%.15g\n" % tuple(row) for row in block.tolist())
        assert dynamics._csv_text(block) == want


class TestCosineSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            dynamics.CosineSeries((1.0, 2.0), (0.5,))

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValidationError):
            dynamics.CosineSeries((-1.0,), (0.5,))

    def test_amplitude_ceiling(self):
        series = dynamics.CosineSeries((1.0, 2.0), (0.5, -0.5))
        ceiling = sum(abs(c) for c in series.coefficients)
        assert ceiling == 1.0
        assert sum(series.coefficients) == 0.0
        t = np.linspace(0.0, 50.0, 2000)
        assert np.max(np.abs(series.amplitude(t))) <= ceiling + 1e-12

    def test_trace_rejects_probability_above_one(self):
        # only a broken series gives P > 1: a numerical fault, not bad input
        with pytest.raises(NumericalError, match="probability above 1"):
            dynamics.CosineSeries((0.0,), (1.1,)).trace([0.0])

    def test_nan_series_is_numerical_error(self):
        # NaN fails every comparison, so only a "P <= 1 + slack" test catches it
        with pytest.raises(NumericalError, match="probability above 1"):
            dynamics.CosineSeries((1.0,), (math.nan,)).trace([0.0, 1.0])

    def test_inflated_series_is_numerical_error(self, monkeypatch):
        # coefficients scaled by 1.5 push P(pi) of the N = 8 PST chain past 2
        spec = design.design_pst_n8(1, 1.7320508).chain()
        series = dynamics.jacobi_series

        def inflated(jacobi):
            freqs, coeffs = series(jacobi)
            return freqs, 1.5 * coeffs

        monkeypatch.setattr(dynamics, "jacobi_series", inflated)
        with pytest.raises(NumericalError, match="probability above 1"):
            dynamics.transfer_probability(spec, [math.pi])

    def test_trace_clips_roundoff_above_one(self):
        trace = dynamics.CosineSeries((0.0,), (1.0 + 1e-12,)).trace([0.0])
        assert trace.probability == (1.0,)
        assert trace.peak == (0.0, 1.0)


class TestClosedForm:
    def test_homogeneous_n17_reference(self):
        # the derived series must agree with the frozen six-term oracle
        series = dynamics.chain_series(chains.homogeneous_chain(17))
        assert np.allclose(np.sort(series.frequencies), np.sort(P17_FREQS), atol=1e-12)
        order = np.argsort(series.frequencies)
        ref_order = np.argsort(P17_FREQS)
        assert np.allclose(
            np.asarray(series.coefficients)[order],
            np.asarray(P17_COEFFS)[ref_order],
            atol=1e-12,
        )

    def test_series_matches_numerics(self):
        spec = chains.homogeneous_chain(17)
        times = np.linspace(0.0, 100.0, 1000)
        series = dynamics.chain_series(spec)
        trace = dynamics.transfer_probability(spec, times)
        assert np.max(np.abs(series.probability(times) - trace.probability)) < 1e-12

    def test_coefficient_sum_zero(self):
        series = dynamics.chain_series(chains.homogeneous_chain(11))
        assert abs(sum(series.coefficients)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        n_cells=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_series_equals_full_spectrum_random_chain(self, n_cells, seed):
        # no mirror symmetry; some couplings snapped to the bounds the way DE
        # clips them, which makes near-degenerate +/- pairs in the N x N
        # spectrum
        rng = np.random.default_rng(seed)
        couplings = rng.uniform(0.05, 4.0, 3 * n_cells + 1)
        snap = rng.random(couplings.size) < 0.3
        couplings[snap] = rng.choice([0.05, 4.0], int(snap.sum()))
        spec = chains.ChainSpec(
            n_cells=n_cells,
            t=couplings[:n_cells],
            w=couplings[n_cells : 2 * n_cells],
            g=couplings[2 * n_cells :],
        )
        assume(not chains.is_mirror_symmetric(spec))
        h = chains.build_hamiltonian(spec)
        lam, vec = np.linalg.eigh(h.toarray())
        a, b = 0, spec.n - 2  # the corners
        times = rng.uniform(0.0, 200.0, 50)
        ref = np.exp(-1j * np.outer(times, lam)) @ (vec[a] * vec[b])
        series = dynamics.chain_series(spec)
        assert np.max(np.abs(series.amplitude(times) - ref)) < 1e-10
        assert abs(sum(series.coefficients)) < 1e-12
        assert sum(abs(c) for c in series.coefficients) <= 1.0 + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_series_equals_numerics_random_symmetric(self, k, seed):
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.2, 2.5, k + 1).tolist()
        g = rng.uniform(0.2, 2.5, k // 2 + 1).tolist()
        spec = chains.mirror_chain(v, g + g[-1:] if k % 2 else g)
        times = rng.uniform(0.0, 200.0, 50)
        series = dynamics.chain_series(spec)
        trace = dynamics.transfer_probability(spec, times)
        assert np.max(np.abs(series.probability(times) - trace.probability)) < 1e-9


class TestPeakSearch:
    def test_finds_exact_peak(self):
        # P(t) = cos^2((t - pi) / 2) shifted: use a two-term series whose
        # amplitude hits 1 at t = pi: 0.5 cos(t) - 0.5 cos(2t) has |amp| 1 at pi
        series = dynamics.CosineSeries((1.0, 2.0), (-0.5, 0.5))
        t_star, p_star = peak_search(series, 10.0)
        assert abs(t_star - math.pi) < 1e-6
        assert abs(p_star - 1.0) < 1e-12

    def test_respects_window(self):
        series = dynamics.CosineSeries((1.0, 2.0), (-0.5, 0.5))
        t_star, p_star = peak_search(series, 1.0)
        assert t_star <= 1.0
        assert p_star < 1.0

    def test_rejects_bad_window(self):
        series = dynamics.CosineSeries((1.0,), (1.0,))
        with pytest.raises(ValidationError):
            peak_search(series, 0.0)

    def test_refines_every_competing_peak(self):
        # the best coarse sample sits under a lower peak than the global one
        spec = dimerized_chain(0.8, 2.0)
        t_star, p_star = peak_search(dynamics.chain_series(spec), 110.0)
        assert p_star >= 0.650896
        assert 0.0 <= t_star <= 110.0

    def test_peak_just_before_window_end(self):
        series = dynamics.CosineSeries((1.0, 2.0), (-0.5, 0.5))
        t_star, p_star = peak_search(series, math.pi + 0.02)
        assert abs(t_star - math.pi) < 1e-6
        assert p_star > 1.0 - 1e-12

    def test_constant_series(self):
        series = dynamics.CosineSeries((0.0,), (0.5,))
        assert peak_search(series, 10.0)[1] == 0.25

    @settings(max_examples=60, deadline=None)
    @given(
        n_cells=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        t_max=st.floats(min_value=0.5, max_value=300.0),
    )
    def test_not_below_finer_grid_random_chain(self, n_cells, seed, t_max):
        series = dynamics.chain_series(random_non_mirror_chain(n_cells, seed))
        t_star, p_star = peak_search(series, t_max)
        n = dynamics.scan_size(max(series.frequencies), t_max)
        fine = np.linspace(0.0, t_max, 16 * (n - 1) + 1)
        assert p_star >= series.probability(fine).max() - 1e-12
        assert 0.0 <= t_star <= t_max
        assert p_star == min(float(series.probability(t_star)[0]), 1.0)

    @pytest.mark.parametrize("n, epsilon", [(11, 1e-3), (17, 1e-2), (14, 1e-2)])
    def test_reported_p_is_series_value_at_pgt_scale(self, n, epsilon):
        # long windows, where a table sample is furthest from the direct sum
        series = dynamics.chain_series(chains.homogeneous_chain(n))
        t_star, p_star = peak_search(series, 2e4)
        assert p_star == float(series.probability(t_star)[0])
        result = design.pgt_search(series, epsilon, 2e5)
        assert result.reached
        assert result.best_infidelity == 1.0 - float(series.probability(result.best_t)[0])
        assert result.best_infidelity < epsilon

    @pytest.mark.parametrize("chunk", [1, 5, 31])
    def test_chunks_smaller_than_phasor_block(self, monkeypatch, chunk):
        series = dynamics.chain_series(chains.homogeneous_chain(14))
        t_max = 200.0
        whole_t, whole_p = peak_search(series, t_max)
        monkeypatch.setattr(dynamics, "SCAN_CHUNK", chunk)
        assert chunk < dynamics.PHASOR_BLOCK
        t_star, p_star = peak_search(series, t_max)
        assert t_star == pytest.approx(whole_t, rel=1e-12)
        assert p_star == pytest.approx(whole_p, abs=1e-15)
        assert p_star == float(series.probability(t_star)[0])
        # one segment per chunk; every sample is scanned, each shared boundary sample twice
        n = dynamics.scan_size(max(series.frequencies), t_max)
        chunked = list(dynamics.scan_candidates([series.frequencies], [series.coefficients], t_max))
        assert len(chunked) == -(-(n - 1) // chunk)
        assert sum(samples for _, samples in chunked) == n + len(chunked) - 1

    def test_count_beyond_int64_rejected(self):
        # 1e300 * 16 / pi samples do not fit in an int64; a count that fits keeps its value
        with pytest.raises(UnsupportedInputError):
            dynamics.scan_size(2.0, 1e300)
        assert dynamics.scan_size(1.0, 1e18) == math.ceil(8e18 / math.pi) + 1


class TestScanChunks:
    @pytest.mark.parametrize("chunk", [dynamics.SCAN_CHUNK, 97, 5])
    @settings(max_examples=100, deadline=None)
    @given(members=st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                                      st.floats(min_value=0.0, max_value=1.0),
                                      st.booleans()), min_size=1, max_size=12))
    def test_streamed_chunks_match_segment_table(self, chunk, members):
        # (full segments, fraction of a segment, skipped by beat) per member: n - 2
        # is full * chunk plus up to chunk - 1, so the last segment has 2 to chunk + 1 samples
        n = np.array([2 + full * chunk + int(frac * (chunk - 1)) for full, frac, _ in members])
        skipped = np.array([skip for _, _, skip in members])
        per = np.where(skipped, 0, -(-(n - 1) // chunk))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "SCAN_CHUNK", chunk)
            streamed = list(dynamics._chunks(n, np.flatnonzero(~skipped)))
            table = scan_chunks(n, per)
        assert len(streamed) == len(table)
        for got, want in zip(streamed, table):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_memory_does_not_grow_with_t_max(self):
        # a one-row N = 11 scan of 5e10 samples holds one segment entry, not 8e5
        series = dynamics.chain_series(chains.homogeneous_chain(11))
        f, c = np.array([series.frequencies]), np.array([series.coefficients])
        scan = dynamics.scan_candidates(f, c, 1e10)
        tracemalloc.start()
        try:
            next(scan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestWindowMaxima:
    @pytest.mark.parametrize("chunk", [dynamics.SCAN_CHUNK, 97])
    @settings(max_examples=60, deadline=None)
    @given(
        members=st.integers(min_value=1, max_value=8),
        n_freq=st.integers(min_value=1, max_value=7),
        t_max=st.floats(min_value=0.5, max_value=60.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        zero=st.booleans(),
        repeated=st.booleans(),
    )
    def test_rows_match_chunk_by_chunk_search(self, chunk, members, n_freq, t_max, seed,
                                              zero, repeated):
        # any stack of series, not only chains': coefficients of any sign and sum
        rng = np.random.default_rng(seed)
        f = rng.uniform(0.0, 3.0, (members, n_freq))
        if zero:
            f[:, 0] = 0.0
        if repeated:
            f[:, -1] = f[:, 0]
        c = rng.uniform(-1.0, 1.0, (members, n_freq))
        c /= np.maximum(np.abs(c).sum(axis=1, keepdims=True), 1.0)  # so that P <= 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "SCAN_CHUNK", chunk)
            values = dynamics.window_maxima(f, c, t_max)
            for row, value in zip(zip(f.tolist(), c.tolist()), values):
                assert value == peak_search(dynamics.CosineSeries(*map(tuple, row)), t_max)[1]
            # beats anywhere in [0, 1], near the values on either side, and equal to them
            beat = np.where(rng.random(members) < 0.5, rng.random(members),
                            values * rng.uniform(0.9, 1.1, members))
            tie = rng.random(members) < 0.2
            beat[tie] = values[tie]
            beaten = dynamics.window_maxima(f, c, t_max, beat)
        reach = values >= beat
        assert np.array_equal(beaten[reach], values[reach])
        assert np.all(beaten[~reach] < beat[~reach])


class TestCandidates:
    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=5 * dynamics.PHASOR_BLOCK + 3),
                       min_size=1, max_size=6),
        n_freq=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        capped=st.booleans(),
        beat=st.booleans(),
    )
    def test_match_full_padding_mask(self, sizes, n_freq, seed, capped, beat):
        # segments of a chunk with any sizes: masking only the padding that is
        # read gives the candidates of masking every padded sample
        rng = np.random.default_rng(seed)
        m = len(sizes)
        f = rng.uniform(0.1, 3.0, (m, n_freq))
        c = rng.normal(size=(m, n_freq))
        h = np.pi / (8 * f.max(axis=1)) * rng.uniform(0.2, 1.0, m)
        delta = rng.uniform(0.0, 0.5, m) * np.abs(c).sum(axis=1)
        start = rng.integers(0, 5000, m)
        size = np.array(sizes)
        cap = float(rng.uniform(0.1, 1.5)) if capped else None
        least = rng.uniform(-0.5, 1.0, m) if beat else np.full(m, -np.inf)
        args = (f, c, h, delta, start, size, cap, least)
        got = dynamics._candidates(*args)
        want = candidates_full_mask(*args)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestCallShape:
    @pytest.mark.parametrize("n_freq", [2, 3, 5, 8, 13, 20])
    def test_amplitude_bits_do_not_depend_on_call_shape(self, n_freq):
        rng = np.random.default_rng(n_freq)
        series = dynamics.CosineSeries(
            tuple(rng.uniform(0.0, 6.0, n_freq)), tuple(rng.normal(size=n_freq))
        )
        times = rng.uniform(0.0, 1e4, 500)
        batched = series.amplitude(times)
        one_at_a_time = np.array([series.amplitude(t)[0] for t in times])
        split = np.concatenate((series.amplitude(times[:7]), series.amplitude(times[7:])))
        f = np.tile(series.frequencies, (times.size, 1))
        c = np.tile(series.coefficients, (times.size, 1))
        stacked = dynamics.amplitudes(f, c, times)
        for other in (one_at_a_time, split, stacked):
            assert np.array_equal(batched, other)
        # longer than one einsum block of SCAN_CHUNK // n_freq times: the same
        # bits as one einsum over all of them, and as any split
        step = dynamics.SCAN_CHUNK // n_freq
        long = rng.uniform(0.0, 1e4, 2 * step + 7)
        whole = np.einsum("...j,...j->...", np.cos(long[:, None] * np.asarray(series.frequencies)),
                          np.asarray(series.coefficients))
        blocked = series.amplitude(long)
        assert np.array_equal(blocked, whole)
        cut = step // 3
        assert np.array_equal(blocked, np.concatenate((series.amplitude(long[:cut]),
                                                       series.amplitude(long[cut:]))))
        f = np.tile(series.frequencies, (long.size, 1))
        c = np.tile(series.coefficients, (long.size, 1))
        assert np.array_equal(dynamics.amplitudes(f, c, long), whole)

    def test_stacked_eigh_matches_one_matrix_at_a_time(self):
        rng = np.random.default_rng(3)
        specs = [random_non_mirror_chain(4, int(seed)) for seed in rng.integers(0, 2**32, 40)]
        jacobi = np.array([chains.jacobi_matrix(spec.t, spec.w, spec.g) for spec in specs])
        freqs, coeffs = dynamics.jacobi_series(jacobi)
        for spec, f, c in zip(specs, freqs, coeffs):
            series = dynamics.chain_series(spec)
            assert tuple(f) == series.frequencies
            assert tuple(c) == series.coefficients


class TestPhasorSamples:
    @settings(max_examples=60, deadline=None)
    @given(
        n_cells=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        t_max=st.floats(min_value=0.01, max_value=2e5),
        where=st.floats(min_value=0.0, max_value=1.0),
        size=st.integers(min_value=1, max_value=dynamics.SCAN_CHUNK + 1),
    )
    def test_match_direct_cosines_random_chain(self, n_cells, seed, t_max, where, size):
        # up to a full segment of SCAN_CHUNK steps, where the outer tables are longest,
        # and windows short enough that the rounding unit is about eps sum |c_j|
        spec = random_non_mirror_chain(n_cells, seed)
        assume(not chains.is_mirror_symmetric(spec))
        series = dynamics.chain_series(spec)
        n = dynamics.scan_size(max(series.frequencies), t_max)
        h = t_max / (n - 1)
        size = min(n, size)
        start = int(where * (n - size))  # a window anywhere on the grid
        (table,) = dynamics.phasor_amplitude(
            [series.frequencies], [series.coefficients], [h], [start], [size]
        )
        direct = series.amplitude(t_max * (np.arange(start, start + size) / (n - 1)))
        assert table.shape == (dynamics.PHASOR_BLOCK, -(-size // dynamics.PHASOR_BLOCK))
        table = table.T.reshape(-1)[:size]
        assert np.max(np.abs(table - direct)) <= 4 * rounding_unit(series, t_max)


class TestP17Oracle:
    def test_numerics_match_reference(self):
        spec = chains.homogeneous_chain(17)
        times = np.linspace(0.0, 500.0, 5000)
        trace = dynamics.transfer_probability(spec, times)
        assert np.max(np.abs(np.asarray(trace.probability) - p17_reference(times))) < 1e-9
