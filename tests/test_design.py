"""Tests for PST inverse designs, the dimerized bound and PGT search."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dimerized_chain, dimerized_series, peak_search, probability_closed_form_pst
from qstc import chains, design, dynamics
from qstc.errors import InfeasibleDesignError, UnsupportedInputError, ValidationError


def feasible_v1(family, k, frac):
    lo, hi = design.feasible_interval(family, k)
    return math.sqrt(lo + frac * (hi - lo))


class TestFeasibleInterval:
    def test_n8_k1(self):
        lo, hi = design.feasible_interval("n8", 1)
        assert lo == pytest.approx(15.0 / 6.0)
        assert hi == pytest.approx(4.0)

    def test_nonempty_for_many_k(self):
        for family in design.FAMILIES:
            for k in range(1, 30):
                lo, hi = design.feasible_interval(family, k)
                assert lo < hi

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            design.feasible_interval("n8", 0)
        with pytest.raises(ValidationError):
            design.feasible_interval("n20", 1)

    # k whose squares overflow a float: from 10^160 in the interval, below it
    # only in the couplings; 10^5000 has more digits than str(int) allows
    @pytest.mark.parametrize("family, k", [
        ("n8", 10**154), ("n11", 4 * 10**153), ("n8", 10**160), ("n11", 10**160), ("n8", 10**5000),
    ], ids=["n8-1e154", "n11-4e153", "n8-1e160", "n11-1e160", "n8-1e5000"])
    def test_huge_k_unsupported(self, family, k):
        with pytest.raises(UnsupportedInputError, match="spectrum offset k overflows a float"):
            design.design_pst(family, k, 10.0)
        if k >= 10**160:
            with pytest.raises(UnsupportedInputError, match="spectrum offset k overflows"):
                design.feasible_interval(family, k)

    def test_infinite_square_unsupported(self):
        # (10 + 4k + 4k^2) v1^2 overflows to inf in float arithmetic with no
        # OverflowError; g2 would be inf
        with pytest.raises(UnsupportedInputError) as err:
            design.design_pst("n11", 10**153, 10.0)
        assert str(err.value) == "spectrum offset k overflows a float at v1=10: g2^2 = inf"

    def test_largest_k_keep_their_results(self):
        # the same k, and one decade below, still give their interval, design or
        # InfeasibleDesignError, value for value
        assert design.feasible_interval("n8", 10**154) == (4.0, 1e308)
        assert design.feasible_interval("n11", 4 * 10**153) == (3.0, 1.6e307)
        for family, k, interval in (("n8", 10**154, (4.0, 1e308)),
                                    ("n11", 4 * 10**153, (3.0, 1.6e307))):
            with pytest.raises(InfeasibleDesignError) as info:
                design.design_pst(family, k, 1.0)
            assert info.value.interval == interval
        d = design.design_pst("n8", 10**153, 10.0)
        assert d.couplings == {"v2": 1.4142135623730951e+152, "g1": 1e+153,
                               "g2": 9.797958971132714e+152}


class TestPstN8:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_spectrum_is_consecutive_integers(self, k):
        d = design.design_pst_n8(k, feasible_v1("n8", k, 0.5))
        lam = np.linalg.eigvalsh(chains.build_hamiltonian(d.chain()).toarray())
        target = np.sort([0, 0, k, -k, k + 1, -(k + 1), k + 2, -(k + 2)])
        assert np.max(np.abs(lam - target)) < 1e-9

    def test_perfect_arrival_at_pi(self):
        d = design.design_pst_n8(2, feasible_v1("n8", 2, 0.3))
        trace = dynamics.transfer_probability(d.chain(), [math.pi, 2 * math.pi])
        assert abs(trace.probability[0] - 1.0) < 1e-9
        assert abs(trace.probability[1]) < 1e-9

    def test_infeasible_rejected_with_interval(self):
        with pytest.raises(InfeasibleDesignError) as err:
            design.design_pst_n8(1, 2.5)
        lo, hi = err.value.interval
        assert lo == pytest.approx(2.5)
        assert hi == pytest.approx(4.0)

    def test_trace_identity(self):
        # sum of squared eigenvalues equals twice the sum of squared couplings
        k = 3
        d = design.design_pst_n8(k, feasible_v1("n8", k, 0.6))
        spec = d.chain()
        coupling_sq = sum(c * c for c in spec.t + spec.w + spec.g)
        target_sq = 2 * (k * k + (k + 1) ** 2 + (k + 2) ** 2)
        assert coupling_sq * 2 == pytest.approx(target_sq, abs=1e-10)

    def test_closed_form_independent_of_v1(self):
        k = 2
        series = probability_closed_form_pst("n8", k)
        times = np.linspace(0.0, 10.0, 200)
        for frac in (0.2, 0.5, 0.8):
            d = design.design_pst_n8(k, feasible_v1("n8", k, frac))
            trace = dynamics.transfer_probability(d.chain(), times)
            assert np.max(np.abs(series.probability(times) - trace.probability)) < 1e-10


class TestPstN11:
    def test_reference_couplings(self):
        # k=1, v1=2 has the closed-form solution
        # (v2, v3, g1, g2) = (sqrt(63)/4, sqrt(5), sqrt(3/2), 3/4)
        d = design.design_pst_n11(1, 2.0)
        assert d.couplings["v2"] == pytest.approx(math.sqrt(63.0) / 4.0, abs=1e-12)
        assert d.couplings["v3"] == pytest.approx(math.sqrt(5.0), abs=1e-12)
        assert d.couplings["g1"] == pytest.approx(math.sqrt(1.5), abs=1e-12)
        assert d.couplings["g2"] == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_spectrum(self, k):
        d = design.design_pst_n11(k, feasible_v1("n11", k, 0.5))
        lam = np.linalg.eigvalsh(chains.build_hamiltonian(d.chain()).toarray())
        target = np.sort([0] * 3 + [s * (k + j) for j in range(4) for s in (1, -1)])
        assert np.max(np.abs(lam - target)) < 1e-9

    def test_perfect_arrival_at_pi(self):
        d = design.design_pst_n11(1, 2.0)
        trace = dynamics.transfer_probability(d.chain(), [math.pi])
        assert abs(trace.probability[0] - 1.0) < 1e-9

    def test_infeasible_rejected(self):
        lo, hi = design.feasible_interval("n11", 1)
        with pytest.raises(InfeasibleDesignError) as err:
            design.design_pst_n11(1, math.sqrt(hi) + 0.1)
        assert err.value.interval == (lo, hi)

    def test_closed_form_matches_numerics(self):
        series = probability_closed_form_pst("n11", 1)
        times = np.linspace(0.0, 10.0, 200)
        d = design.design_pst_n11(1, 2.0)
        trace = dynamics.transfer_probability(d.chain(), times)
        assert np.max(np.abs(series.probability(times) - trace.probability)) < 1e-10


class TestIntervalCheck:
    @pytest.mark.parametrize("family, k, v1, text", [
        ("n8", 1, 1.5811388300841895, "2.4999999999999996 outside the feasible interval "
                                      "(2.5, 4.0)"),
        ("n11", 2, 1.9926334924652143, "3.9705882352941173 outside the feasible interval "
                                       "(3.9705882352941178, 11.5)"),
    ], ids=["n8-k1", "n11-k2"])
    def test_one_ulp_below_the_interval(self, family, k, v1, text):
        # v1^2 is the float just below the open interval: the message shows
        # both numbers exactly, so it cannot read as inside
        lo, hi = design.feasible_interval(family, k)
        assert v1 * v1 == math.nextafter(lo, 0)
        with pytest.raises(InfeasibleDesignError) as err:
            design.design_pst(family, k, v1)
        assert err.value.interval == (lo, hi)
        assert str(err.value) == f"v1^2 = {text} for family {family}, k={k}"


class TestPositivityCheck:
    @pytest.mark.parametrize("family, k, v1", [("n8", 1, 1.5811388300841898),
                                               ("n8", 4, 1.9148542155126764),
                                               ("n11", 8, 1.8957741773596413)])
    def test_rounding_at_the_interval_edge(self, family, k, v1):
        # v1^2 lies inside the open interval, but a derived square rounds to <= 0
        lo, hi = design.feasible_interval(family, k)
        assert lo < v1 * v1 < hi
        with pytest.raises(InfeasibleDesignError, match="derived squared couplings not all "
                           f"positive for k={k}, v1={v1:g}: ") as err:
            design.design_pst(family, k, v1)
        assert err.value.interval == (lo, hi)
        # the message names the square that is not positive, with its value, and
        # says that v1^2 sits within rounding of the interval's end
        assert str(err.value).endswith(
            f": g2^2 = 0.0; v1^2 = {v1 * v1!r} lies within rounding of an end of the "
            f"feasible interval ({lo!r}, {hi!r})")


class TestChainLayout:
    """PstDesign.chain() mirrors the backbone (v1, v2[, v3]) and pendants (g1, g2)."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_n8(self, k):
        d = design.design_pst_n8(k, feasible_v1("n8", k, 0.4))
        v1, c = d.v1, d.couplings
        assert d.chain() == chains.ChainSpec(
            n_cells=2, t=(v1, c["v2"]), w=(c["v2"], v1), g=(c["g1"], c["g2"], c["g1"])
        )

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_n11(self, k):
        d = design.design_pst_n11(k, feasible_v1("n11", k, 0.4))
        v1, c = d.v1, d.couplings
        assert d.chain() == chains.ChainSpec(
            n_cells=3,
            t=(v1, c["v3"], c["v2"]),
            w=(c["v2"], c["v3"], v1),
            g=(c["g1"], c["g2"], c["g2"], c["g1"]),
        )


class TestDimerized:
    def test_bound_at_unity(self):
        assert design.dimerized_upper_bound(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_bound_value(self):
        w = 0.8
        expected = (w * (1 + w * w) / (1 + w**4)) ** 2
        assert design.dimerized_upper_bound(w) == pytest.approx(expected)

    @settings(max_examples=200, deadline=None)
    @given(w=st.floats(min_value=1e-150, max_value=1e150))
    def test_bound_is_symmetric_under_inverse_w(self, w):
        # P_up(w) = P_up(1/w); w**4 alone overflows for w above about 1e77
        assert design.dimerized_upper_bound(w) == pytest.approx(
            design.dimerized_upper_bound(1 / w), rel=1e-14, abs=0.0)

    def test_series_matches_numerics(self):
        w, g = 0.7, 1.3
        times = np.linspace(0.0, 200.0, 2000)
        series = dimerized_series(w, g)
        trace = dynamics.transfer_probability(dimerized_chain(w, g), times)
        assert np.max(np.abs(series.probability(times) - trace.probability)) < 1e-12

    def test_amplitude_ceiling_equals_bound(self):
        # the coefficient absolute sum squares to the g-independent envelope
        for w in (0.3, 0.6, 0.9):
            series = dimerized_series(w, 1.1)
            assert sum(abs(c) for c in series.coefficients) ** 2 == pytest.approx(
                design.dimerized_upper_bound(w), abs=1e-12
            )

    def test_coefficient_sum_zero(self):
        series = dimerized_series(0.5, 0.9)
        assert abs(sum(series.coefficients)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        w=st.floats(min_value=0.2, max_value=1.5),
        g=st.floats(min_value=0.2, max_value=2.5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_probability_never_exceeds_bound(self, w, g, seed):
        rng = np.random.default_rng(seed)
        times = rng.uniform(0.0, 500.0, 200)
        prob = dimerized_series(w, g).trace(times).probability
        assert max(prob) <= design.dimerized_upper_bound(w) + 1e-9

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            design.dimerized_upper_bound(0.0)
        with pytest.raises(ValidationError):
            dimerized_chain(1.0, -1.0)


class TestPgtSearch:
    def test_finds_pst_arrival(self):
        series = probability_closed_form_pst("n8", 1)
        result = design.pgt_search(series, 1e-6, 10.0)
        assert result.reached
        assert abs(result.t_found - math.pi) < 1e-6
        assert result.best_infidelity < 1e-6

    def test_not_reached_record(self):
        series = dynamics.chain_series(chains.homogeneous_chain(17))
        result = design.pgt_search(series, 1e-6, 50.0)
        assert not result.reached
        assert result.t_found is None
        assert 0.0 <= result.best_t <= 50.0
        assert 0.0 < result.best_infidelity < 1.0

    def test_homogeneous_n17_epsilon_5_percent(self):
        series = dynamics.chain_series(chains.homogeneous_chain(17))
        result = design.pgt_search(series, 0.05, 1000.0)
        assert result.reached
        assert 1.0 - series.probability(result.t_found)[0] < 0.05

    def test_chunk_boundaries_change_nothing(self, monkeypatch):
        series = dynamics.chain_series(chains.homogeneous_chain(17))
        whole = design.pgt_search(series, 0.05, 1000.0)
        monkeypatch.setattr(dynamics, "SCAN_CHUNK", 7)
        chunked = design.pgt_search(series, 0.05, 1000.0)
        assert chunked.reached
        assert chunked.t_found == pytest.approx(whole.t_found, rel=1e-12)
        assert chunked.best_infidelity == pytest.approx(whole.best_infidelity, abs=1e-15)

    def test_stops_at_the_first_chunk_with_a_hit(self):
        # the hit is in the fifth of 17 chunks; the scan budget and time are pinned bit for bit
        series = dynamics.chain_series(chains.homogeneous_chain(11))
        result = design.pgt_search(series, 1e-3, 2e5)
        assert result.scan_budget == 327848
        assert result.t_found == 57978.07911681928
        assert result.scan_budget < dynamics.scan_size(max(series.frequencies), 2e5) / 3

    def test_best_seen_without_hit(self):
        series = dynamics.chain_series(dimerized_chain(0.8, 2.0))
        result = design.pgt_search(series, 1e-3, 110.0)
        assert not result.reached
        assert result.best_infidelity == pytest.approx(
            1.0 - peak_search(series, 110.0)[1], abs=1e-12
        )

    def test_constant_series(self):
        series = dynamics.CosineSeries((0.0,), (0.5,))
        result = design.pgt_search(series, 0.5, 10.0)
        assert not result.reached
        assert result.best_infidelity == 0.75
        assert result.scan_budget >= dynamics.scan_size(max(series.frequencies), 10.0)

    def test_input_validation(self):
        series = probability_closed_form_pst("n8", 1)
        with pytest.raises(ValidationError):
            design.pgt_search(series, 0.0, 10.0)
        with pytest.raises(ValidationError):
            design.pgt_search(series, 0.5, -1.0)

    def test_to_dict(self):
        series = probability_closed_form_pst("n8", 1)
        payload = dataclasses.asdict(design.pgt_search(series, 1e-6, 10.0))
        assert payload["reached"] is True
        assert payload["epsilon"] == 1e-6
