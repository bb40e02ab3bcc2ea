"""Tests for the deterministic differential-evolution coupling search."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import peak_search, problem_chain
from qstc import chains, design, dynamics, optimize
from qstc.errors import NumericalError, ValidationError, load_json

RECIPES = Path(__file__).resolve().parent.parent / "recipes"


def small_problem(**overrides):
    base = dict(
        scenario=optimize.Scenario.FIXED_W_OPT_G,
        k=2,
        arrival_time=50.0,
        seed=11,
        fixed_params={"w": 0.8},
    )
    base.update(overrides)
    return optimize.OptProblem(**base)


class TestOptProblem:
    def test_dimensions(self):
        assert small_problem().dimension == 1
        assert small_problem(
            scenario=optimize.Scenario.ALPHA_OPT_TG, fixed_params={"alpha": 2.0}
        ).dimension == 2
        assert small_problem(
            scenario=optimize.Scenario.FULL_K_PLUS_4, k=3, fixed_params={}
        ).dimension == 7

    def test_bounds_broadcast(self):
        p = small_problem(scenario=optimize.Scenario.FULL_K_PLUS_4, fixed_params={})
        assert len(p.bounds) == p.dimension
        assert all(b == optimize.DEFAULT_BOUNDS for b in p.bounds)

    def test_missing_fixed_param_rejected(self):
        with pytest.raises(ValidationError):
            small_problem(fixed_params={})

    def test_negative_seed_rejected(self):
        # bad input (exit 2), not a ValueError from numpy's generator
        with pytest.raises(ValidationError, match="seed"):
            small_problem(seed=-1)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValidationError, match="nope"):
            small_problem(scenario="nope")

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValidationError):
            small_problem(bounds=((2.0, 1.0),))
        with pytest.raises(ValidationError):
            small_problem(bounds=((0.0, 1.0),))
        # an infinite upper bound would let DE draw infinite couplings
        with pytest.raises(ValidationError, match="inf"):
            small_problem(bounds=((0.1, math.inf),))

    def test_chain_construction(self):
        p = small_problem()
        t, w, g = p.couplings([[1.2]])
        assert 3 * t.shape[1] + 2 == p.n == 11
        assert t.tolist() == [[1.0, 1.0, 1.0]]
        assert w.tolist() == [[0.8, 0.8, 0.8]]
        assert g.tolist() == [[1.2, 1.2, 1.2, 1.2]]


class TestObjective:
    def test_matches_dynamics(self):
        p = small_problem()
        value = optimize.objective(p, [1.1])
        trace = dynamics.transfer_probability(problem_chain(p, [1.1]), [p.arrival_time])
        assert value == trace.probability[0]

    def test_window_max_dominates_endpoint(self):
        p_end = small_problem()
        p_win = small_problem(window_max=True)
        assert optimize.objective(p_win, [1.1]) >= optimize.objective(p_end, [1.1])

    def test_clipped_fig5_point(self):
        # DE clips to t = w = 0.05 with both corner pendants at 4.0: the N x N
        # spectrum has near-degenerate +/- pairs
        p = optimize.OptProblem(
            scenario=optimize.Scenario.FULL_K_PLUS_4,
            k=2,
            arrival_time=110.0,
            seed=1,
            window_max=True,
        )
        value = optimize.objective(p, (0.05, 0.05, 4.0, 1.0, 1.0, 4.0))
        assert 0.0 <= value <= 1.0

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValidationError):
            optimize.objective(small_problem(), [10.0])

    @pytest.mark.parametrize("window_max", [False, True])
    def test_probability_above_one_rejected(self, monkeypatch, window_max):
        # P(5) = 0.9994 at g = 1.25; coefficients scaled by 1.5 push P past 2.
        # The parameter is in bounds, so only the series can be at fault.
        p = small_problem(k=0, arrival_time=5.0, fixed_params={"w": 1.0}, window_max=window_max)
        series = dynamics.jacobi_series

        def inflated(jacobi):
            freqs, coeffs = series(jacobi)
            return freqs, 1.5 * coeffs

        monkeypatch.setattr(dynamics, "jacobi_series", inflated)
        with pytest.raises(NumericalError, match="probability above 1"):
            optimize.objective(p, [1.25])

    def test_neg_log_infidelity_cap(self):
        assert optimize.neg_log_infidelity(1.0) == optimize.MAX_NEG_LOG
        assert optimize.neg_log_infidelity(0.9) == pytest.approx(1.0)

    def test_neg_log_infidelity_of_zero_is_positive_zero(self):
        # -log10(1.0) is -0.0, which the CSV and JSON would print as -0; 1 - 1e-300 is 1.0
        for p in (0.0, 1e-300):
            assert math.copysign(1.0, optimize.neg_log_infidelity(p)) == 1.0
        for p in (1e-15, 0.25, 0.5, 0.9, 1 - 1e-12):
            assert optimize.neg_log_infidelity(p).hex() == (-math.log10(1.0 - p)).hex()


def random_problem(scenario, k, arrival_time, window_max):
    fixed = {optimize.Scenario.FIXED_W_OPT_G: {"w": 0.7},
             optimize.Scenario.ALPHA_OPT_TG: {"alpha": 1.6}}.get(scenario, {})
    return optimize.OptProblem(scenario=scenario, k=k, arrival_time=arrival_time, seed=0,
                               fixed_params=fixed, window_max=window_max)


def random_population(problem, size, seed):
    """Uniform members with about 30 % of the coordinates snapped to a bound, as DE clips."""
    rng = np.random.default_rng(seed)
    lo, hi = np.array(problem.bounds).T
    pop = rng.uniform(lo, hi, size=(size, problem.dimension))
    snap = rng.random(pop.shape) < 0.3
    pop[snap] = np.where(rng.random(pop.shape) < 0.5, lo, hi)[snap]
    return pop


class TestCouplings:
    @settings(max_examples=60, deadline=None)
    @given(
        scenario=st.sampled_from(list(optimize.Scenario)),
        k=st.integers(min_value=0, max_value=6),
        size=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_stack_matches_problem_chain(self, scenario, k, size, seed):
        problem = random_problem(scenario, k, 10.0, False)
        pop = random_population(problem, size, seed)
        t, w, g = problem.couplings(pop)
        assert t.shape == w.shape == (size, k + 1)
        assert g.shape == (size, k + 2)
        for x, *row in zip(pop, t, w, g):
            spec = problem_chain(problem, x)
            assert [tuple(c) for c in row] == [spec.t, spec.w, spec.g]


class TestStackedObjective:
    @settings(max_examples=40, deadline=None)
    @given(
        scenario=st.sampled_from(list(optimize.Scenario)),
        k=st.integers(min_value=0, max_value=4),
        arrival_time=st.floats(min_value=0.5, max_value=80.0),
        size=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        window_max=st.booleans(),
    )
    def test_stack_equals_row_by_row(self, scenario, k, arrival_time, size, seed, window_max):
        problem = random_problem(scenario, k, arrival_time, window_max)
        pop = random_population(problem, size, seed)
        stacked = optimize.objective(problem, pop)
        assert stacked.shape == (size,)
        for x, value in zip(pop, stacked):
            spec = problem_chain(problem, x)
            if window_max:
                row = peak_search(dynamics.chain_series(spec), arrival_time)[1]
            else:
                row = dynamics.transfer_probability(spec, [arrival_time]).probability[0]
            assert value == row == optimize.objective(problem, x)

    @pytest.mark.parametrize("scenario", list(optimize.Scenario))
    def test_scan_chunk_does_not_change_window_maxima(self, monkeypatch, scenario):
        problem = random_problem(scenario, 2, 40.0, True)
        pop = random_population(problem, 20, 5)
        whole = optimize.objective(problem, pop)
        for chunk in (7, 64, 1000):
            monkeypatch.setattr(dynamics, "SCAN_CHUNK", chunk)
            assert np.array_equal(optimize.objective(problem, pop), whole)

    @settings(max_examples=40, deadline=None)
    @given(
        scenario=st.sampled_from(list(optimize.Scenario)),
        k=st.integers(min_value=0, max_value=4),
        arrival_time=st.floats(min_value=0.5, max_value=80.0),
        size=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # a member's Newton steps once depended on the other candidates of its chunk
    @example(scenario=optimize.Scenario.FIXED_W_OPT_G, k=3, arrival_time=32.5546875, size=3,
             seed=14075851)
    def test_beat_keeps_every_value_that_reaches_it(self, scenario, k, arrival_time, size, seed):
        problem = random_problem(scenario, k, arrival_time, True)
        pop = random_population(problem, size, seed)
        values = optimize.objective(problem, pop)
        rng = np.random.default_rng(seed)
        # beats anywhere in [0, 1], near the values on either side, and equal to them
        beat = np.where(rng.random(size) < 0.5, rng.random(size),
                        values * rng.uniform(0.9, 1.1, size))
        tie = rng.random(size) < 0.2
        beat[tie] = values[tie]
        beaten = optimize.objective(problem, pop, beat=beat)
        reach = values >= beat
        assert np.array_equal(beaten[reach], values[reach])
        assert np.all(beaten[~reach] < beat[~reach])

    def test_one_dimensional_vector_gives_a_float(self):
        p = small_problem()
        assert isinstance(optimize.objective(p, [1.1]), float)
        with pytest.raises(ValidationError):
            optimize.objective(p, [[[1.1]]])
        with pytest.raises(ValidationError, match="outside bounds"):
            optimize.objective(p, [[1.1], [np.nan]])


def deferred_de_reference(problem, budget, objective):
    """rand/1/bin with deferred updates, one objective call per trial.

    Also returns, per generation, the stack of trials that differ from their parents.
    """
    dim, pop_size = problem.dimension, optimize.POPULATION_FACTOR * problem.dimension
    rng = np.random.default_rng(problem.seed)
    lo, hi = np.array(problem.bounds).T
    pop = rng.uniform(lo, hi, size=(pop_size, dim))
    fitness = np.array([objective(problem, x) for x in pop])
    trajectory, evaluations, changed = [fitness.max()], pop_size, []
    while evaluations + pop_size <= budget:
        frozen, trials = pop.copy(), []
        for i in range(pop_size):
            r = rng.choice(pop_size - 1, size=3, replace=False)
            r[r >= i] += 1
            mutant = np.clip(frozen[r[0]] + optimize.DIFFERENTIAL_WEIGHT
                             * (frozen[r[1]] - frozen[r[2]]), lo, hi)
            mask = rng.random(dim) < optimize.CROSSOVER
            mask[rng.integers(dim)] = True
            trials.append(np.where(mask, mutant, frozen[i]))
        for i, trial in enumerate(trials):
            f_trial = objective(problem, trial)
            if f_trial >= fitness[i]:
                pop[i], fitness[i] = trial, f_trial
        evaluations += pop_size
        trajectory.append(max(trajectory[-1], fitness.max()))
        changed.append(np.array([t for t, x in zip(trials, frozen) if np.any(t != x)]))
    return pop[np.argmax(fitness)], fitness.max(), evaluations, trajectory, changed


#: a fig3 point whose population collapses to one point long before its budget of 6000
COLLAPSING = dict(scenario=optimize.Scenario.FIXED_W_OPT_G, k=2, fixed_params={"w": 0.6},
                  arrival_time=55.0, seed=7)


class TestOptimize:
    def test_one_objective_call_per_generation(self, monkeypatch):
        # at most one call per generation, on exactly the trials that differ from their
        # parents; the second problem's population collapses to one point
        stacks = []
        objective = optimize.objective

        def recording(problem, params, beat=None):
            stacks.append(np.array(params))
            return objective(problem, params, beat)

        monkeypatch.setattr(optimize, "objective", recording)
        for overrides, budget in (
            (dict(scenario=optimize.Scenario.ALPHA_OPT_TG, fixed_params={"alpha": 2.0}), 400),
            (COLLAPSING, 6000),
        ):
            p = small_problem(**overrides)
            stacks.clear()
            res = optimize.optimize(p, budget)
            changed = deferred_de_reference(p, budget, objective)[-1]
            pop_size = optimize.POPULATION_FACTOR * p.dimension
            generations = (budget - pop_size) // pop_size
            assert len(stacks) <= generations + 1
            assert stacks[0].shape == (pop_size, p.dimension)
            expected = [trials for trials in changed if trials.size]
            assert len(stacks[1:]) == len(expected)
            for stack, trials in zip(stacks[1:], expected):
                assert np.array_equal(stack, trials)
            assert res.evaluations == pop_size * (generations + 1)
            assert len(res.trajectory) == generations + 1

    def test_one_point_population_ends_the_draws(self, monkeypatch):
        # every trial of a one-point population is that point, so no generation after the
        # collapse draws: a larger budget only adds trials and trajectory entries
        draws = []
        default_rng = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def __getattr__(self, name):
                draws.append(name)
                return getattr(self.rng, name)

        monkeypatch.setattr(np.random, "default_rng", Counting)
        counts, results = [], []
        for budget in (6000, 20000):
            draws.clear()
            results.append(optimize.optimize(small_problem(**COLLAPSING), budget))
            counts.append(len(draws))
        pop_size = optimize.POPULATION_FACTOR
        assert counts[0] == counts[1] < 3 * pop_size * (6000 // pop_size)
        short, long = results
        assert long.evaluations == 19995
        assert long.trajectory[:len(short.trajectory)] == short.trajectory
        assert set(long.trajectory[len(short.trajectory) - 1:]) == {short.best_p}
        assert long.best_params == short.best_params

    @pytest.mark.parametrize("overrides, budget, collapses", [
        pytest.param(dict(scenario=optimize.Scenario.FIXED_W_OPT_G, k=2, fixed_params={"w": 0.8},
                          arrival_time=50.0), 300, False, id="fixed_w_opt_g-2-300-50.0"),
        pytest.param(dict(scenario=optimize.Scenario.ALPHA_OPT_TG, k=3,
                          fixed_params={"alpha": 2.0}, arrival_time=30.0), 600, False,
                     id="alpha_opt_tg-3-600-30.0"),
        pytest.param(dict(scenario=optimize.Scenario.FULL_K_PLUS_4, k=1, fixed_params={},
                          arrival_time=30.0), 1050, False, id="full_k_plus_4-1-1050-30.0"),
        pytest.param(COLLAPSING, 6000, True, id="fixed_w_opt_g-2-6000-55.0-collapsing"),
        pytest.param(dict(COLLAPSING, window_max=True), 6000, True,
                     id="fixed_w_opt_g-2-6000-55.0-window-collapsing"),
    ])
    def test_matches_deferred_reference(self, monkeypatch, overrides, budget, collapses):
        # a stacked value has the bits of the one-vector value, at fixed T and for window
        # maxima, so the stacked generation must reproduce the one-trial-at-a-time loop
        # exactly; a trial equal to its parent, and every trial of a one-point population,
        # keeps its parent's P without reaching the objective
        p = small_problem(**overrides)
        objective = optimize.objective
        rows = []

        def counting(problem, params, beat=None):
            rows.append(len(params))
            return objective(problem, params, beat)

        monkeypatch.setattr(optimize, "objective", counting)
        res = optimize.optimize(p, budget)
        assert len(set(res.trajectory)) > 1  # some trial is kept, so the kept trials are compared
        best, best_p, evaluations, trajectory, _ = deferred_de_reference(p, budget, objective)
        assert res.best_params == tuple(best)
        assert res.best_p == best_p
        assert res.evaluations == evaluations
        assert list(res.trajectory) == trajectory
        # 2331 (fixed T) and 3321 (window maxima) of the 6000 trials reach it when collapsing
        assert sum(rows) < res.evaluations if collapses else sum(rows) <= res.evaluations

    @pytest.mark.parametrize("scenario, k, budget", [
        (optimize.Scenario.FIXED_W_OPT_G, 2, 300),
        (optimize.Scenario.ALPHA_OPT_TG, 3, 600),
        (optimize.Scenario.FULL_K_PLUS_4, 1, 750),
    ])
    def test_beat_does_not_change_the_search(self, monkeypatch, scenario, k, budget):
        problem = random_problem(scenario, k, 10.0 * (3 * k + 5), True)
        res = optimize.optimize(problem, budget)
        objective = optimize.objective
        monkeypatch.setattr(optimize, "objective",
                            lambda problem, params, beat=None: objective(problem, params))
        ref = optimize.optimize(problem, budget)
        assert res.best_params == ref.best_params
        assert res.evaluations == ref.evaluations
        assert np.max(np.abs(np.subtract(res.trajectory, ref.trajectory))) <= 1e-15

    def test_determinism(self):
        p = small_problem()
        r1 = optimize.optimize(p, 300)
        r2 = optimize.optimize(p, 300)
        assert r1.to_dict() == r2.to_dict()

    def test_budget_guard(self):
        with pytest.raises(ValidationError):
            optimize.optimize(small_problem(), 100)

    def test_reevaluation_consistency(self):
        p = small_problem()
        res = optimize.optimize(p, 300)
        assert abs(res.best_p - optimize.objective(p, res.best_params)) < 1e-12

    def test_trajectory_monotone(self):
        res = optimize.optimize(small_problem(), 450)
        assert list(res.trajectory) == sorted(res.trajectory)
        assert res.best_p == res.trajectory[-1]

    def test_degenerate_search_space(self):
        # lo == hi is rejected by validation; a near-degenerate box works
        p = small_problem(bounds=((1.0, 1.0 + 1e-12),))
        res = optimize.optimize(p, 150)
        assert res.best_params[0] == pytest.approx(1.0, abs=1e-11)

    def test_dimerized_optimum_close_to_envelope(self):
        # with the window objective the best g should approach the bound
        p = small_problem(window_max=True, arrival_time=40.0 * 11)
        res = optimize.optimize(p, 600)
        bound = design.dimerized_upper_bound(0.8)
        assert res.best_p <= bound + 1e-6
        assert res.best_p > bound - 0.01


class TestSweep:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            optimize.sweep([], 300)

    def test_error_isolation(self):
        good = small_problem()
        results = optimize.sweep([good, good], 100)  # budget below minimum
        assert all(res is None and err is not None for res, err in results)
        results = optimize.sweep([good], 300)
        assert results[0][1] is None

    def test_overflowing_couplings_isolated(self):
        # w^2 overflows: that problem's J cannot be built, the others still run
        bad = small_problem(fixed_params={"w": 1e200})
        results = optimize.sweep([small_problem(), bad], 300, warm_start=False)
        assert results[0][1] is None
        assert results[1][0] is None and "overflow" in results[1][1]

    def test_internal_error_propagates(self, monkeypatch):
        # only qstc's typed errors are isolated per problem; a bug is not
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(optimize, "objective", broken)
        with pytest.raises(KeyError):
            optimize.sweep([small_problem()], 300)

    def test_warm_start_monotone_in_time(self):
        problems = [
            small_problem(window_max=True, arrival_time=t) for t in (30.0, 60.0, 120.0)
        ]
        results = optimize.sweep(problems, 300)
        values = [res.best_p for res, _ in results]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_csv_rows(self):
        results = optimize.sweep([small_problem()], 300)
        rows = optimize.sweep_csv_rows(results)
        assert rows[0] == "scenario,k,N,T,w_or_alpha,best_P,neg_log_infidelity,seed"
        assert rows[1].startswith("fixed_w_opt_g,2,11,50,0.8,")


class TestConsistencyAcrossModules:
    def test_homogeneous_point_matches_closed_form(self):
        # g = w = 1 reproduces the homogeneous chain exactly
        p = optimize.OptProblem(
            scenario=optimize.Scenario.FIXED_W_OPT_G,
            k=2,
            arrival_time=17.0,
            seed=0,
            fixed_params={"w": 1.0},
        )
        value = optimize.objective(p, [1.0])
        series = dynamics.chain_series(chains.homogeneous_chain(11))
        assert value == pytest.approx(float(series.probability(17.0)[0]), abs=1e-12)


class TestProblemsFromConfig:
    @pytest.mark.parametrize(
        "name, count, fixed_name",
        [("fig3", 36, "w"), ("fig4", 28, "alpha"), ("fig5", 3, None)],
    )
    def test_recipes(self, name, count, fixed_name):
        config = load_json(RECIPES / f"{name}.json", "optimize config")
        problems = optimize.problems_from_config(config)
        assert len(problems) == count
        sweep = config["sweep"]
        fixed_values = sweep[fixed_name] if fixed_name else [None]
        expected = [
            (k, {} if fv is None else {fixed_name: fv}, m * (3 * k + 5))
            for k, fv, m in itertools.product(
                sweep.get("k", [config["k"]]), fixed_values, sorted(sweep["T_multiples"])
            )
        ]
        assert [(p.k, p.fixed_params, p.arrival_time) for p in problems] == expected
        assert all(p.seed == config["seed"] and p.window_max for p in problems)

    def test_single_problem(self):
        config = {"scenario": "alpha_opt_tg", "k": 1, "seed": 3, "T_multiple": 2,
                  "fixed_params": {"alpha": 2.0}, "bounds": [[0.1, 3.0]]}
        (problem,) = optimize.problems_from_config(config)
        assert problem.scenario == optimize.Scenario.ALPHA_OPT_TG
        assert problem.arrival_time == 16.0
        assert problem.bounds == ((0.1, 3.0), (0.1, 3.0))
        assert not problem.window_max

    @pytest.mark.parametrize(
        "sweep, times",
        [({"w": [0.5, 0.8]}, [50.0, 50.0]), ({"T_multiples": [], "T": []}, [50.0]),
         ({"T": [20.0]}, [20.0])],
    )
    def test_sweep_without_times_uses_top_level_time(self, sweep, times):
        # the top-level keys are the defaults of a one-point sweep
        config = {"scenario": "fixed_w_opt_g", "k": 2, "seed": 1, "T": 50.0, "T_multiple": 3,
                  "fixed_params": {"w": 0.8}, "sweep": sweep}
        assert [p.arrival_time for p in optimize.problems_from_config(config)] == times
        del config["T"]
        problems = optimize.problems_from_config(config)
        assert [p.arrival_time for p in problems] == [33.0 if t == 50.0 else t for t in times]

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"window_max": "false"}, "'window_max'"),
            ({"window_max": 1}, "'window_max'"),
            ({"k": 2.9}, "'k'"),
            ({"k": True}, "'k'"),
            ({"seed": 1.7}, "'seed'"),
            ({"T": "50"}, "'T'"),
            ({"bounds": [[0.1, 0.2, 0.3]]}, "bounds"),
            ({"bounds": [0.1, 3.0]}, "'bounds'"),
            ({"fixed_params": {"w": 0.8, "alpha": 2.0}}, "'alpha'"),
            ({"fixed_params": {"w": True}}, "'w'"),
            ({"sweep": {"k": [2.5], "T": [10]}}, "'k'"),
            ({"sweep": {"w": [0.5, "0.8"], "T": [10]}}, "'w'"),
        ],
    )
    def test_mistyped_value_rejected(self, overrides, key):
        config = {"scenario": "fixed_w_opt_g", "k": 2, "seed": 1, "T": 50.0,
                  "fixed_params": {"w": 0.8}, **overrides}
        with pytest.raises(ValidationError, match=key):
            optimize.problems_from_config(config)

    def test_fixed_params_hold_exactly_the_scenario_parameter(self):
        with pytest.raises(ValidationError, match="'w'"):
            small_problem(scenario=optimize.Scenario.FULL_K_PLUS_4, fixed_params={"w": 0.5})
        problem = small_problem(scenario=optimize.Scenario.ALPHA_OPT_TG,
                                fixed_params={"alpha": 2})
        assert problem.fixed_params == {"alpha": 2.0}
        rows = optimize.sweep_csv_rows(optimize.sweep([problem], 300))
        assert rows[1].startswith("alpha_opt_tg,2,11,50,2,")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": None},
            {"scenario": "unknown"},
            {"k": "two"},
            {"bounds": 1.0},
            {"T": None, "sweep": {"w": [0.5]}},
            {"sweep": {"w": 0.5, "T": [10]}},
        ],
    )
    def test_bad_config_rejected(self, overrides):
        config = {"scenario": "fixed_w_opt_g", "k": 2, "seed": 1, "T": 50.0,
                  "fixed_params": {"w": 0.8}}
        config.update(overrides)
        config = {key: value for key, value in config.items() if value is not None}
        with pytest.raises(ValidationError):
            optimize.problems_from_config(config)

    @pytest.mark.parametrize(
        "scenario, k, axis, value",
        [("fixed_w_opt_g", 2, "w", 0.4), ("alpha_opt_tg", 3, "alpha", 2.5),
         ("full_k_plus_4", 4, "k", 4)],
    )
    def test_bench_style_config(self, scenario, k, axis, value):
        config = {"scenario": scenario, "k": k, "seed": 12345, "budget": 150,
                  "window_max": True, "warm_start": True,
                  "sweep": {axis: [value], "T_multiples": [5, 10]}}
        assert len(optimize.problems_from_config(config)) == 2

    @pytest.mark.parametrize("swept, w", [({}, 0.5), ({"w": [0.8]}, 0.8)])
    def test_sweep_keeps_top_level_fixed_params(self, swept, w):
        config = {"scenario": "fixed_w_opt_g", "k": 2, "seed": 1,
                  "fixed_params": {"w": 0.5}, "sweep": dict(swept, T_multiples=[5, 10])}
        problems = optimize.problems_from_config(config)
        assert [p.fixed_params for p in problems] == [{"w": w}] * 2

    @pytest.mark.parametrize("scenario, key", [("full_k_plus_4", "alpha"), ("alpha_opt_tg", "w")])
    def test_sweep_key_not_read_rejected(self, scenario, key):
        config = {"scenario": scenario, "k": 2, "seed": 1, "fixed_params": {"alpha": 2.0},
                  "sweep": {key: [1.0, 2.0], "T_multiples": [5]}}
        with pytest.raises(ValidationError, match=key):
            optimize.problems_from_config(config)

    def test_unreadable_config_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            load_json(tmp_path / "missing.json", "optimize config")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([1, 2]))
        with pytest.raises(ValidationError, match="JSON object"):
            optimize.problems_from_config(load_json(bad, "optimize config"))
