"""Deterministic global optimization of chain couplings at a fixed arrival time.

The objective is the corner-to-corner transfer probability P(T) of the chain
assembled from the scenario's parameterization:

- ``fixed_w_opt_g``: backbone fixed (t_i = 1, w_i = w), one variable g shared
  by all pendants.
- ``alpha_opt_tg``: two variables (t, g) with the dimerization slaved to
  t = alpha * w.
- ``full_k_plus_4``: uniform t and w plus an independent g per pendant,
  k + 4 variables in total.

The search is a differential-evolution loop (rand/1/bin) with a seeded
generator and deferred updates (Storn & Price, J. Global Optim. 11, 341
(1997)): each generation takes every member's draws in member order, builds
all trials against the generation's frozen population in one stacked
expression, evaluates them as one stack through :func:`objective` (one
coupling-array stack, one J stack, one ``eigh`` call, and for window maxima
one :func:`dynamics.window_maxima` call), and then keeps each trial that is
at least as good as its parent.  A trial equal to its parent is not
evaluated: it has its parent's P.  Once the population is one point, every
later mutant is that point, so the run stops and fills in the remaining
generations.  The evaluation count still counts every trial.  Identical
problems and budgets give bitwise-identical results, so seeded runs stay
byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import chains, dynamics
from .errors import QstcError, ValidationError, check_keys, read_value

DEFAULT_BOUNDS = (0.05, 4.0)
DEFAULT_BUDGET = 20000
POPULATION_FACTOR = 15
CROSSOVER = 0.9
DIFFERENTIAL_WEIGHT = 0.7
MAX_NEG_LOG = 16.0


class Scenario(str, Enum):
    """Coupling parameterizations used by the optimization experiments."""

    FIXED_W_OPT_G = "fixed_w_opt_g"
    ALPHA_OPT_TG = "alpha_opt_tg"
    FULL_K_PLUS_4 = "full_k_plus_4"

    @classmethod
    def _missing_(cls, value):  # an unknown name is bad input
        raise ValidationError(f"{value!r} is not a valid Scenario")


#: the fixed parameter a scenario reads from ``fixed_params``
FIXED_PARAM = {Scenario.FIXED_W_OPT_G: "w", Scenario.ALPHA_OPT_TG: "alpha"}


@dataclass(frozen=True)
class OptProblem:
    """One box-bounded coupling-optimization task.

    ``fixed_params`` holds exactly ``w`` (fixed_w_opt_g), ``alpha`` (alpha_opt_tg)
    or nothing (full_k_plus_4).
    ``bounds`` is one (lo, hi) pair per variable; a single pair is broadcast.
    """

    scenario: Scenario
    k: int
    arrival_time: float
    seed: int
    bounds: tuple = (DEFAULT_BOUNDS,)
    fixed_params: dict = field(default_factory=dict)
    #: maximize P over t in [0, arrival_time] instead of P at exactly T
    window_max: bool = False

    def __post_init__(self):
        if self.k < 0:
            raise ValidationError(f"k must be >= 0, got {self.k}")
        if self.seed < 0:  # numpy's generator takes no negative seed
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.arrival_time < math.inf:
            raise ValidationError(
                f"arrival time must be positive and finite, got {self.arrival_time}"
            )
        scenario = Scenario(self.scenario)
        object.__setattr__(self, "scenario", scenario)
        # g; (t, g); or t, w and one g per pendant
        dim = {Scenario.FIXED_W_OPT_G: 1, Scenario.ALPHA_OPT_TG: 2}.get(scenario, self.k + 4)
        bounds = tuple(tuple(map(float, b)) for b in self.bounds)
        if any(len(b) != 2 for b in bounds):
            raise ValidationError(f"bounds must be (lo, hi) pairs, got {self.bounds}")
        if len(bounds) == 1:
            bounds = bounds * dim
        if len(bounds) != dim:
            raise ValidationError(f"need {dim} bounds pairs, got {len(bounds)}")
        for lo, hi in bounds:
            if not 0 < lo < hi < math.inf:
                raise ValidationError(f"bounds must satisfy 0 < lo < hi < inf, got ({lo}, {hi})")
        object.__setattr__(self, "bounds", bounds)
        name = FIXED_PARAM.get(scenario)
        where = f"{scenario.value} fixed_params"
        check_keys(self.fixed_params, {name} - {None}, where)
        if name is not None:
            value = read_value(self.fixed_params, name, float, where)
            if not 0 < value < math.inf:
                raise ValidationError(f"fixed parameter {name} must be positive and finite, "
                                      f"got {value}")
            object.__setattr__(self, "fixed_params", {name: value})

    @property
    def dimension(self):
        """Number of optimized variables: one ``bounds`` pair each."""
        return len(self.bounds)

    @property
    def n(self):
        return 3 * self.k + 5

    def couplings(self, stack):
        """Coupling arrays (t, w, g) of an (m, dim) parameter stack.

        t and w have shape (m, k + 1), g (m, k + 2); row i holds the chain that
        parameter row i describes, in :func:`chains.jacobi_matrix`'s layout.
        """
        x = np.asarray(stack, dtype=float)
        if self.scenario == Scenario.FIXED_W_OPT_G:
            t, w, g = 1.0, float(self.fixed_params["w"]), x[:, :1]
        elif self.scenario == Scenario.ALPHA_OPT_TG:
            t, w, g = x[:, :1], x[:, :1] / float(self.fixed_params["alpha"]), x[:, 1:]
        else:
            t, w, g = x[:, :1], x[:, 1:2], x[:, 2:]
        cells = np.ones((len(x), self.k + 1))
        return t * cells, w * cells, g * np.ones((len(x), self.k + 2))

    def to_dict(self):
        return {
            "scenario": self.scenario.value,
            "k": self.k,
            "N": self.n,
            "arrival_time": self.arrival_time,
            "seed": self.seed,
            "bounds": [list(b) for b in self.bounds],
            "fixed_params": dict(self.fixed_params),
            "window_max": self.window_max,
        }


#: keys an optimize config may carry, at the top level and in its sweep block
CONFIG_KEYS = {"run", "scenario", "k", "seed", "bounds", "window_max", "T", "T_multiple",
               "fixed_params", "sweep", "budget", "warm_start"}
SWEEP_KEYS = {"k", "w", "alpha", "T", "T_multiples"}


def problems_from_config(config):
    """The :class:`OptProblem` list an optimize config describes, in run order.

    The top-level keys are the defaults of a one-point sweep, and the
    ``sweep`` block's lists override them.  It expands to one problem per k
    (``sweep.k``, default the config's ``k``), per value of the scenario's
    fixed parameter (``sweep.w`` for fixed_w_opt_g, ``sweep.alpha`` for
    alpha_opt_tg, default the one in ``fixed_params``) and per arrival time
    (``sweep.T_multiples`` x N and ``sweep.T``, ascending; default the
    config's ``T``, or else ``T_multiple`` x N).  A missing, ill-typed or
    unknown key, or a sweep key the scenario does not read, raises
    :class:`ValidationError`.
    """
    where = "optimize config"
    check_keys(config, CONFIG_KEYS, where)
    scenario = Scenario(read_value(config, "scenario", str, where))
    common = dict(
        scenario=scenario,
        seed=read_value(config, "seed", int, where),
        bounds=read_value(config, "bounds", [[float]], where, (DEFAULT_BOUNDS,)),
        window_max=read_value(config, "window_max", bool, where, False),
    )
    fixed = read_value(config, "fixed_params", dict, where, {})
    sweep_cfg = read_value(config, "sweep", dict, where, {})
    fixed_name = FIXED_PARAM.get(scenario)
    unread = {"w", "alpha"} - {fixed_name}
    in_sweep = f"{scenario.value} sweep"
    check_keys(sweep_cfg, SWEEP_KEYS - unread, in_sweep)
    k_values = read_value(sweep_cfg, "k", [int], in_sweep, None)
    if k_values is None:
        k_values = [read_value(config, "k", int, where)]
    fixed_values = read_value(sweep_cfg, fixed_name, [float], in_sweep, [None])
    multiples = read_value(sweep_cfg, "T_multiples", [float], in_sweep, [])
    times = read_value(sweep_cfg, "T", [float], in_sweep, [])
    if not multiples and not times:
        if "T" in config:
            times = [read_value(config, "T", float, where)]
        else:
            multiples = [read_value(config, "T_multiple", float, f"{where} without 'T'")]
    problems = []
    for k in k_values:
        t_values = sorted([m * (3 * k + 5) for m in multiples] + times)
        for fv in fixed_values:
            swept = fixed if fv is None else {**fixed, fixed_name: fv}
            for t_val in t_values:
                problems.append(
                    OptProblem(k=k, arrival_time=t_val, fixed_params=dict(swept), **common)
                )
    return problems


def objective(problem, params, beat=None):
    """Transfer probability for one parameter vector or an (m, dim) stack.

    P(T), or with ``window_max`` the maximum of P over [0, T].  The stack is
    bounds-checked as a whole; since 0 < lo and hi < inf, and a fixed w or
    alpha is positive and finite, every coupling is then positive and finite.
    :meth:`OptProblem.couplings` and one :func:`chains.jacobi_matrix` call
    build every member's J at once; the stack then takes one ``eigh`` call
    (:func:`dynamics.jacobi_series`) and, for window maxima, one
    :func:`dynamics.window_maxima` call.  A vector gives a float, a stack an
    array; a stacked value has the same bits as the vector's.  Every P
    goes through :func:`dynamics.capped_probability`; couplings whose squares
    overflow are an :class:`UnsupportedInputError` from the J builder.

    ``beat`` (window maxima only) is passed to :func:`dynamics.window_maxima`:
    comparing the values with ``beat`` picks the same members as without it.
    """
    params = np.asarray(params, dtype=float)
    stack = np.atleast_2d(params)
    if params.ndim not in (1, 2) or stack.shape[1:] != (problem.dimension,):
        raise ValidationError(
            f"expected {problem.dimension} parameters per vector, got shape {params.shape}"
        )
    lo, hi = np.array(problem.bounds).T
    outside = ~((lo <= stack) & (stack <= hi))
    if outside.any():
        row, col = np.argwhere(outside)[0]
        raise ValidationError(
            f"parameter {stack[row, col]} outside bounds ({lo[col]}, {hi[col]})"
        )
    freqs, coeffs = dynamics.jacobi_series(chains.jacobi_matrix(*problem.couplings(stack)))
    arrival = problem.arrival_time
    if problem.window_max:
        probs = dynamics.window_maxima(freqs, coeffs, arrival, beat)
    else:
        probs = dynamics.capped_probability(
            dynamics.amplitudes(freqs, coeffs, np.full(len(stack), arrival)) ** 2
        )
    return probs if params.ndim == 2 else float(probs[0])


def neg_log_infidelity(p):
    """-log10(1-P), capped so P = 1 stays finite."""
    infid = 1.0 - p
    if infid <= 10.0**-MAX_NEG_LOG:
        return MAX_NEG_LOG
    return 0.0 - math.log10(infid)  # +0.0 at P = 0, where -log10(1.0) is -0.0


@dataclass(frozen=True)
class OptResult:
    """Best point found plus the per-generation best-so-far trajectory."""

    problem: OptProblem
    best_params: tuple
    best_p: float
    neg_log_infidelity: float
    evaluations: int
    trajectory: tuple

    def to_dict(self):
        return {
            "problem": self.problem.to_dict(),
            "best_params": list(self.best_params),
            "best_P": self.best_p,
            "neg_log_infidelity": self.neg_log_infidelity,
            "evaluations": self.evaluations,
            "trajectory": list(self.trajectory),
        }


def optimize(problem, budget, warm_start=None):
    """Differential-evolution search within the problem's box bounds.

    Each generation draws a trial per member and passes the trials that
    differ from their parents to :func:`objective` as one stack, with the
    parents' P as values to beat; a trial equal to its parent takes the
    parent's P, which :func:`objective` would return for it bit for bit.
    When every member is the same point, every later trial is that point too,
    so the loop ends there and the remaining generations add their trials to
    ``evaluations`` and repeat the best P in ``trajectory``, as running them
    would.

    Parameters
    ----------
    problem : OptProblem
    budget : int
        Maximum number of trials, evaluated or not (``OptResult.evaluations``
        counts every one); must cover at least ten generations.
    warm_start : array_like, optional
        Parameter vector injected into the initial population (clipped to
        bounds); used by :func:`sweep` to chain runs over arrival times.
    """
    dim = problem.dimension
    pop_size = POPULATION_FACTOR * dim
    if budget < pop_size * 10:
        raise ValidationError(
            f"budget {budget} below minimum {pop_size * 10} (population x 10)"
        )
    rng = np.random.default_rng(problem.seed)
    lo = np.array([b[0] for b in problem.bounds])
    hi = np.array([b[1] for b in problem.bounds])

    pop = rng.uniform(lo, hi, size=(pop_size, dim))
    if warm_start is not None:
        pop[0] = np.clip(np.asarray(warm_start, dtype=float), lo, hi)
    fitness = objective(problem, pop)
    evaluations = pop_size
    trajectory = [float(fitness.max())]

    r = np.empty((pop_size, 3), dtype=int)
    mask = np.empty((pop_size, dim), dtype=bool)
    while evaluations + pop_size <= budget:
        if (pop == pop[0]).all():
            # every later mutant is this one point, so every trial equals its parent
            left = (budget - evaluations) // pop_size
            evaluations += left * pop_size
            trajectory += trajectory[-1:] * left
            break
        for i in range(pop_size):  # member by member, so the draws keep their order
            r[i] = rng.choice(pop_size - 1, size=3, replace=False)
            mask[i] = rng.random(dim) < CROSSOVER
            mask[i, rng.integers(dim)] = True
        r += r >= np.arange(pop_size)[:, None]  # skip the member itself
        mutant = pop[r[:, 0]] + DIFFERENTIAL_WEIGHT * (pop[r[:, 1]] - pop[r[:, 2]])
        trials = np.where(mask, np.clip(mutant, lo, hi), pop)
        # a trial equal to its parent has its parent's P
        f_trial = fitness.copy()
        new = (trials != pop).any(axis=1)
        if new.any():
            f_trial[new] = objective(problem, trials[new], beat=fitness[new])
        evaluations += pop_size
        better = f_trial >= fitness
        pop[better] = trials[better]
        fitness[better] = f_trial[better]
        trajectory.append(max(trajectory[-1], float(fitness.max())))

    best = int(np.argmax(fitness))
    return OptResult(
        problem=problem,
        best_params=tuple(float(x) for x in pop[best]),
        best_p=float(fitness[best]),
        neg_log_infidelity=neg_log_infidelity(float(fitness[best])),
        evaluations=evaluations,
        trajectory=tuple(trajectory),
    )


def _group_key(problem):
    fixed = tuple(sorted(problem.fixed_params.items()))
    return (problem.scenario, problem.k, fixed)


def sweep(problems, budget, warm_start=True):
    """Run a list of problems, optionally chaining best points across times.

    Problems sharing scenario, k and fixed parameters form a group; within a
    group (processed in list order) each run seeds the next one's population
    with the best point found so far, which keeps the reported probability
    essentially monotone in arrival time.  A :class:`QstcError` is recorded
    per problem without aborting the sweep; any other exception propagates.

    Returns
    -------
    list of (OptResult | None, error_message | None)
    """
    if not problems:
        raise ValidationError("empty problem list")
    results = []
    carries = {}
    for problem in problems:
        key = _group_key(problem)
        try:
            res = optimize(problem, budget, warm_start=carries.get(key) if warm_start else None)
        except QstcError as exc:  # error isolation across entries
            results.append((None, f"{type(exc).__name__}: {exc}"))
            continue
        carries[key] = np.asarray(res.best_params)
        results.append((res, None))
    return results


def sweep_csv_rows(results):
    """CSV rows (scenario,k,N,T,w_or_alpha,best_P,neg_log_infidelity,seed)."""
    rows = ["scenario,k,N,T,w_or_alpha,best_P,neg_log_infidelity,seed"]
    for res, err in results:
        if res is None:
            continue
        p = res.problem
        name = FIXED_PARAM.get(p.scenario)
        fixed_txt = f"{p.fixed_params[name]:.15g}" if name else ""
        rows.append(
            f"{p.scenario.value},{p.k},{p.n},{p.arrival_time:.15g},{fixed_txt},"
            f"{res.best_p:.15g},{res.neg_log_infidelity:.15g},{p.seed}"
        )
    return rows
