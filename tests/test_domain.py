"""The domain contract: every public closed-form function, sampler and ODE
solve, over a grid of the domain's corners, returns a finite value (in [0, 1]
for a probability, at most 1 in absolute value for a pgf, a nonnegative
integer for a draw), raises one of the package's typed errors, or raises
OverflowError where its docstring promises it.

The simulator is swept through the ``simulate`` command: it simulates only
the deaths that change the count, at most 1 + A of them a replicate on
average at every alpha, so every corner runs in milliseconds."""

import math
import traceback

import numpy as np
import pytest
from click.testing import CliRunner

from logbranch import (
    ALPHA_CRITICAL,
    InverseCdfSampler,
    LogSeries,
    ModelParams,
    conditional_family,
    conditional_law_at,
    extinction_prob,
    infinitesimal_gen,
    law_at,
    limit_law,
    offspring_pmf,
    offspring_sampler,
    pgf_at,
    pgf_complement,
    pmf,
    stream,
    survival_prob,
)
from logbranch.cli import cli
from logbranch.errors import (
    DomainError,
    NumericalDivergence,
    PopulationCapExceeded,
    PrecisionLoss,
)
from logbranch.verify import (
    _LIMIT_MEAN_TARGET,
    _MAX_STEPS,
    integrate_backward,
    integrate_complement,
    log_mixture_mechanism,
    numeric_conditional_limit,
)

TYPED = (DomainError, NumericalDivergence, PopulationCapExceeded, PrecisionLoss)
ALPHA_TOP = math.nextafter(ALPHA_CRITICAL, 0.0)

# 17 weights from the least subnormal to the last float below ALPHA_CRITICAL
ALPHAS = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-200, 1e-100, 1e-20,
          1e-8, 1e-4, 1e-3, 0.01, 0.05, 0.15, 0.3, 0.5, 0.7, ALPHA_TOP]
RATES = [5e-324, 1e-300, 1e-3, 1.0, 1e3, 1e300, 1.7e308]
TIMES = [0.0, 5e-324, 1e-300, 1e-18, 1e-3, 0.5, 1.0, 10.0, 1e3, 1e100, 1e300]
S_VALUES = [-1.0, math.nextafter(-1.0, 0.0), -0.5, 0.0, 0.5, math.nextafter(1.0, 0.0), 1.0]
SIZES = [0, 1, 2, 3, 10, 100, 1000, 10**6]
# (t_end, step) pairs of ten steps from tiny to huge times, then one whose
# step count is past the budget; s0 and g0 run over the ends and the middle
SOLVES = [(1e-300, 1e-301), (1.0, 0.1), (100.0, 10.0), (1e300, 1e299), (1.0, 1e-300)]
STARTS = [0.0, 0.5, 1.0]
# most steps of one ODE solve that the sweep runs: a solve with more steps
# that the budget still admits would take seconds, so it is skipped (about
# 1e5 steps over the six solves of numeric_conditional_limit)
SOLVE_STEPS = 20_000


class _Sweep:
    """Calls one function at a time and records every breach of the contract."""

    def __init__(self):
        self.calls = 0
        self.violations = []

    def __call__(self, kind, fn, *args, overflow=False):
        """``fn(*args)`` checked as ``kind``: "prob", "pgf", "finite" (a float,
        or a list whose every entry is one), "law" (every entry of the table
        a probability), "draws" (an int or an integer array, nonnegative) or
        None (any value); the value, or None after a typed error or a
        promised OverflowError."""
        self.calls += 1
        try:
            value = fn(*args)
        except TYPED:
            return None
        except OverflowError:
            if overflow:
                return None
            self._breach(fn, args, traceback.format_exc(limit=1))
            return None
        except Exception:  # any other exception breaks the contract
            self._breach(fn, args, traceback.format_exc(limit=1))
            return None
        if kind is None:
            ok = True
        elif kind == "law":
            numbers = [*value.probs, value.tail_mass]
            ok = all(0.0 <= p <= 1.0 for p in numbers)
        elif kind == "draws":
            draws = np.asarray(value)
            ok = (isinstance(value, (int, np.ndarray))
                  and np.issubdtype(draws.dtype, np.integer) and (draws >= 0).all())
        else:
            ok = all(isinstance(v, float) and math.isfinite(v) and {
                "prob": 0.0 <= v <= 1.0,
                "pgf": abs(v) <= 1.0,
                "finite": True,
            }[kind] for v in (value if isinstance(value, list) else [value]))
        if not ok:
            self._breach(fn, args, f"{kind} value {value!r}")
        return value

    def _breach(self, fn, args, what):
        self.violations.append(f"{fn.__qualname__}{args!r}: {what}")


def _family(check, family):
    for n in SIZES[1:]:
        check("prob", family.pmf, n)
        check("finite", family.factorial_moment, n, overflow=True)
    for s in S_VALUES:
        check("pgf", family.pgf, s)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_closed_form_contract(alpha):
    check = _Sweep()
    _family(check, LogSeries(alpha))
    check("law", limit_law, ModelParams(alpha, 1.0))
    for rate in RATES:
        params = ModelParams(alpha, rate)
        for n in SIZES:
            check("prob", offspring_pmf, params, n)
        for s in S_VALUES:
            check("finite", infinitesimal_gen, params, s, overflow=True)
        for t in TIMES:
            tp = check(None, params.at, t)
            if tp is None:
                continue
            for s in S_VALUES:
                check("pgf", pgf_at, params, tp, s)
                check("finite", pgf_complement, params, tp, s)
            check("prob", survival_prob, params, tp)
            check("prob", extinction_prob, params, tp)
            for n in SIZES:
                check("prob", pmf, params, tp, n)
            check("law", law_at, params, tp)
            check("law", conditional_law_at, params, tp)
            family = check(None, conditional_family, params, tp)
            if family is not None:
                _family(check, family)
    assert check.calls > 2000
    assert check.violations == []


def _sampled(check, sampler, rng):
    """Draws from ``sampler`` one at a time and as an array."""
    for _ in range(5):
        check("draws", sampler.draw, rng)
    check("draws", sampler.draw_many, rng, 50)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_sampler_contract(alpha):
    # the offspring law and both families, each through its exact sampler
    check = _Sweep()
    rng = stream(ALPHAS.index(alpha))
    params = ModelParams(alpha, 1.0)
    _sampled(check, offspring_sampler(params), rng)
    _sampled(check, InverseCdfSampler(LogSeries(alpha).pmf, 1, ratio_bound=alpha), rng)
    for rate in RATES:
        params = ModelParams(alpha, rate)
        for t in TIMES:
            tp = check(None, params.at, t)
            family = None if tp is None else check(None, conditional_family, params, tp)
            if family is None:
                continue
            sampler = check(None, InverseCdfSampler, family.pmf, 1, family.b)
            if sampler is not None:
                _sampled(check, sampler, rng)
    assert check.calls > 400
    assert check.violations == []


def _final(solve, mech, start, t_end, step):
    """The last value of an ODE solve."""
    return solve(mech, start, t_end, step).final


@pytest.mark.parametrize("alpha", ALPHAS)
def test_ode_contract(alpha):
    # the solves' time is rate * t, so the mechanism, and every solve, is the
    # same at every rate
    check = _Sweep()
    mech = log_mixture_mechanism(ModelParams(alpha, 1.0))
    for t_end, step in SOLVES:
        for start in STARTS:
            check("finite", _final, integrate_backward, mech, start, t_end, step)
            check("finite", _final, integrate_complement, mech, start, t_end, step)
    # each of its solves takes this many steps; a mean that rounds to 1 is
    # rejected before any
    steps = 0.0
    if mech.mean < 1.0:
        steps = math.log(_LIMIT_MEAN_TARGET) / (mech.mean - 1.0) / 0.01
    if not SOLVE_STEPS < steps <= _MAX_STEPS:
        check("finite", numeric_conditional_limit, mech)
    assert check.calls >= 2 * len(SOLVES) * len(STARTS)
    assert check.violations == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_corners(fmt):
    # the corners of the grid through the two table commands: a table, or a
    # usage error for an M below the normal range, and never a traceback
    runner = CliRunner()
    for alpha in (ALPHAS[0], ALPHAS[3], ALPHA_TOP):
        for nmax in ("1", "3000"):
            result = runner.invoke(cli, ["limit", "--alpha", repr(alpha), "--nmax", nmax,
                                         "--format", fmt])
            assert result.exit_code == 0, result.output
            assert result.exception is None
            for rate in (RATES[0], RATES[-1]):
                for t in (TIMES[0], TIMES[-1]):
                    for conditional in ([], ["--conditional"]):
                        args = ["pmf", "--alpha", repr(alpha), "--k", repr(rate),
                                "--t", repr(t), "--nmax", nmax, "--format", fmt]
                        result = runner.invoke(cli, args + conditional)
                        assert result.exit_code in (0, 2), (args, result.output)
                        assert isinstance(result.exception, (type(None), SystemExit))


@pytest.mark.parametrize("alpha", [1e-300, 1e-6, 0.05, ALPHA_TOP])
def test_simulate_corners(alpha):
    # the simulator at the corners of the grid: a table, a usage error for
    # an M below the normal range, or another typed error's exit code, and
    # never a traceback
    runner = CliRunner()
    for rate in (1e-300, 1.0, 1e300):
        for t in (1e-12, 1.0, 1e6):
            args = ["simulate", "--alpha", repr(alpha), "--k", repr(rate),
                    "--times", repr(t), "--replicates", "200", "--seed", "1"]
            result = runner.invoke(cli, args)
            assert result.exit_code in (0, 1, 2, 3), (args, result.output)
            assert isinstance(result.exception, (type(None), SystemExit)), args
