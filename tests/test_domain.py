"""The domain contract: every public closed-form function, over a grid of the
domain's corners, returns a finite value (in [0, 1] for a probability, at
most 1 in absolute value for a pgf), raises one of the package's typed
errors, or raises OverflowError where its docstring promises it."""

import math
import traceback

import pytest
from click.testing import CliRunner

from logbranch import (
    ALPHA_CRITICAL,
    LogSeries,
    ModelParams,
    conditional_family,
    conditional_law_at,
    extinction_prob,
    infinitesimal_gen,
    law_at,
    limit_law,
    offspring_pmf,
    pgf_at,
    pgf_complement,
    pmf,
    survival_prob,
)
from logbranch.cli import cli
from logbranch.errors import (
    DomainError,
    NumericalDivergence,
    PopulationCapExceeded,
    PrecisionLoss,
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


class _Sweep:
    """Calls one function at a time and records every breach of the contract."""

    def __init__(self):
        self.calls = 0
        self.violations = []

    def __call__(self, kind, fn, *args, overflow=False):
        """``fn(*args)`` checked as ``kind``: "prob", "pgf", "finite", "law"
        (every entry of the table a probability) or None (any value); the
        value, or None after a typed error or a promised OverflowError."""
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
        else:
            ok = isinstance(value, float) and math.isfinite(value) and {
                "prob": 0.0 <= value <= 1.0,
                "pgf": abs(value) <= 1.0,
                "finite": True,
            }[kind]
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
