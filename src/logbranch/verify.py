"""Independent numerical cross-checks for the closed-form results.

Every check is a named row of ``run_suite``. None reuses the closed form it
checks, except as the value it is compared against. The rows are:

* identities the generating function must satisfy: the semigroup property,
  the defining power identity, the backward and forward equations by finite
  differences, and the implicit one-parameter solution identity at every
  (t, s); the pmf rows check normalisation and positivity;
* moment rows: the factorial moments, survival times the conditional
  family's, against Richardson differences of the plain power-form
  generating function, and against the direct product
  ((1-alpha)/alpha) (alpha/(1-alpha))^n M (1 - M) ... (n - 1 - M);
* fixed-step RK4 integration of the backward equation dF/dt = f(F) in
  tau = rate * t, the only time it depends on, always stepped on the
  complement G = 1 - F, whose drift d(G) = 1 - h(1 - G) - G is written per
  mechanism in cancellation-free form so no precision is lost when G is
  tiny; RK4 is affine-invariant, so reading F back as 1 - G is the same
  scheme as stepping F; the state is kept a Python float, since a step on a
  numpy scalar costs about 2.4 times as much;
* long-time conditional limits for four reproduction mechanisms, each with
  its own closed-form limit generating function to compare against;
* family rows: the conditional law is ExtendedSibuya(M(t), alpha), and it
  approaches LogSeries(alpha) in total variation at the first-order rate,
  exactly TV = alpha M/2 + alpha A M^2/12 + O(M^4) with A = -log(1 - alpha)
  (``tv_first_order_rate``);
* the observed order of RK4 over five step halvings
  (``rk4_convergence_order``).

Every check returns a CheckResult; a result passes when residual <= tolerance.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import closed_form
from .distributions import ExtendedSibuya, LogSeries
from .errors import DomainError, NumericalDivergence, PrecisionLoss
from .model import ModelParams, infinitesimal_gen


@dataclass(frozen=True)
class Mechanism:
    """A reproduction mechanism packaged for ODE work: ``drift`` is
    d(g) = 1 - h(1 - g) - g = -f(1 - g)/rate for the offspring generating
    function h and generator f, in cancellation-free form, the rate of change
    of G = 1 - F per unit of tau = rate * t; ``limit_pgf`` is the closed-form
    generating function of the conditional limit law it should produce."""

    name: str
    mean: float
    drift: Callable
    limit_pgf: Callable


def log_mixture_mechanism(params: ModelParams) -> Mechanism:
    """The mechanism of this package's model, in closure form for the
    integrator; it reads only ``params.alpha``, since its time is rate * t."""
    a = params.alpha
    weight = a / params.log_norm
    stay = 1.0 - a
    log1p = math.log1p

    def drift(g: float) -> float:
        ag = a * g
        return -weight * (stay + ag) * log1p(ag / stay)

    return Mechanism("log-mixture", params.offspring_mean, drift, LogSeries(a).pgf)


_REFERENCE_MEAN = 0.5  # offspring mean of Table 1's three reference mechanisms


def standard_mechanisms() -> tuple:
    """Table 1's four mechanisms, each with its known conditional limit:
    this package's model at alpha = 0.5, then, at mean
    m = ``_REFERENCE_MEAN``,

    * geometric h(s) = 1 / (1 + m - m s), limit
      F*(s) = 1 - (1 - s)(1 - m s)^(-m);
    * binary splitting h(s) = 1 + (m/2)(s^2 - 1), limit geometric on
      {1, 2, ...} with pgf (1 - rho) s / (1 - rho s), rho = m / (2 - m);
    * death-or-survive h(s) = 1 - m + m s, limit degenerate at 1, F*(s) = s.

    At these means the limit-law gap at mean-target 1e-3, which scales like
    0.08..0.09 times the target, stays below the 1e-4 verification bound
    with real margin.
    """
    m = _REFERENCE_MEAN
    stay = 1.0 - m
    half_m = 0.5 * m
    rho = m / (2.0 - m)
    return (
        log_mixture_mechanism(ModelParams(0.5, 1.0)),
        Mechanism("geometric", m, lambda g: -g * (stay + m * g) / (1.0 + m * g),
                  lambda s: 1.0 - (1.0 - s) * math.exp(-m * math.log1p(-m * s))),
        Mechanism("binary", m, lambda g: -g * (stay + half_m * g),
                  lambda s: (1.0 - rho) * s / (1.0 - rho * s)),
        Mechanism("linear", m, lambda g: (m - 1.0) * g, lambda s: s),
    )


@dataclass(frozen=True)
class OdeSolution:
    """A fixed-step trajectory; values[i] approximates the state at times[i]."""

    times: np.ndarray
    values: np.ndarray

    @property
    def final(self) -> float:
        return float(self.values[-1])

    def value_at(self, t: float) -> float:
        # search the times themselves: the last step is a shorter remainder
        # whenever the horizon is not a multiple of the step
        idx = int(np.searchsorted(self.times, t - 1e-9))
        if idx == len(self.times) or abs(self.times[idx] - t) > 1e-9:
            raise DomainError(f"time {t!r} is not on the integration grid")
        return float(self.values[idx])


# most steps one solve may take, at about 60 bytes a step (600 MB); the
# largest solve measured, ``numeric_conditional_limit`` at alpha 1e-3, takes
# 691,122 steps, and alpha 1e-6 would ask for 6.9e8 (about 40 GB)
_MAX_STEPS = 10_000_000


def _rk4(mech: Mechanism, x0: float, t_end: float, step: float) -> OdeSolution:
    """RK4 for dG/dtau = drift(G) from G(0) = x0, tau = rate * t; a stage is
    one Python call, to the drift, and a log-mixture step costs about 0.41 us
    (2-vCPU VM, Python 3.11), most of it the four drift calls.

    The state starts as ``float(x0)``: a numpy scalar start would carry numpy
    scalar arithmetic, about 2.4 times as slow, through every stage.  Raises
    DomainError, before any allocation, when t_end/step exceeds
    ``_MAX_STEPS``, and NumericalDivergence, naming the time, when a step
    leaves [0, 1] or a stage leaves the domain of the drift.
    """
    if not 0.0 < t_end < math.inf:
        raise DomainError(
            f"integration horizon must be positive and finite, got {t_end!r}"
        )
    if not 0.0 < step < math.inf:
        raise DomainError(f"step must be positive and finite, got {step!r}")
    if t_end / step > _MAX_STEPS:
        raise DomainError(f"horizon {t_end!r} at step {step!r} needs more than "
                          f"the step budget of {_MAX_STEPS} steps")
    n_full = int(t_end / step)
    remainder = t_end - n_full * step
    steps = [step] * n_full
    if remainder > 1e-12 * max(1.0, t_end):
        steps.append(remainder)
    # k * step rather than a running sum of the steps, which drifts off the
    # grid over long horizons; the last time is t_end itself
    times = np.append(np.arange(len(steps)) * step, t_end)
    drift = mech.drift
    x = float(x0)
    values = [x]
    append = values.append
    try:
        for h in steps:
            half = 0.5 * h  # x + 0.5 * h * k is x + (0.5 * h) * k, bit for bit
            k1 = drift(x)
            k2 = drift(x + half * k1)
            k3 = drift(x + half * k2)
            k4 = drift(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not -1e-9 <= x <= 1.0 + 1e-9:
                raise NumericalDivergence(
                    f"trajectory left [0, 1] at t={times[len(values)]:.6g} (value {x!r})"
                )
            append(x)
    except ValueError as exc:  # a math domain error, as in the drift's log1p
        raise NumericalDivergence(
            f"an RK4 stage left the domain of the drift at t={times[len(values)]:.6g} ({exc})"
        ) from exc
    return OdeSolution(times, np.array(values))


def integrate_backward(mech: Mechanism, s0: float, t_end: float,
                       step: float) -> OdeSolution:
    """RK4 solution of dF/dtau = h(F) - F, F(0) = s0, on tau in [0, t_end];
    tau = rate * t, so ``t_end``, ``step`` and the solution's ``times`` are
    all in units of 1/rate.

    The steps run on G = 1 - F (see ``integrate_complement``) and are read
    back as F = 1 - G; RK4 is affine-invariant, so this is the RK4 scheme
    for F itself.
    """
    if not 0.0 <= s0 <= 1.0:
        raise DomainError(f"initial value must lie in [0, 1], got {s0!r}")
    path = _rk4(mech, 1.0 - s0, t_end, step)
    return OdeSolution(path.times, 1.0 - path.values)


def integrate_complement(mech: Mechanism, g0: float, t_end: float,
                         step: float) -> OdeSolution:
    """RK4 solution for G = 1 - F: dG/dtau = drift(G), G(0) = g0, with
    time in tau = rate * t as in ``integrate_backward``.

    Working on the complement keeps relative precision when G decays to the
    1e-3 .. 1e-12 range, where 1 - F would be pure cancellation.
    """
    if not 0.0 <= g0 <= 1.0:
        raise DomainError(f"initial value must lie in [0, 1], got {g0!r}")
    return _rk4(mech, g0, t_end, step)


def check_implicit_solution(params: ModelParams, tp, s: float) -> float:
    """Residual of the implicit one-parameter solution identity.

    The generating function must satisfy
    log(1 + log(1 - alpha F)/A) = log(M (1 + log(1 - alpha s)/A)).
    Both sides are evaluated through the complement G = 1 - F:
    1 + log(1 - alpha F)/A = log1p(alpha G / (1 - alpha)) / A, which keeps
    the residual meaningful even at s = 1 - 1e-6 where F is within 1e-7 of 1.
    """
    if not 0.0 <= s < 1.0:
        raise DomainError(f"identity is checked on 0 <= s < 1, got {s!r}")
    a = params.alpha
    g = closed_form.pgf_complement(params, tp, s)
    lhs = math.log(math.log1p(a * g / (1.0 - a)))
    rhs = math.log(tp.mean * math.log1p(a * (1.0 - s) / (1.0 - a)))
    return lhs - rhs


_LIMIT_MEAN_TARGET = 1e-3
_TABLE1_S_GRID = np.linspace(0.0, 1.0, 6).tolist()


def numeric_conditional_limit(mech: Mechanism) -> list:
    """Conditional generating function 1 - G(t, s)/G(t, 0) on Table 1's grid
    s = 0, 0.2, ..., 1, at the tau = rate * t where the mean decays to 1e-3,
    by complement integration in the fewest equal steps of at most 0.01 in
    tau.

    Raises DomainError unless the offspring mean lies in [0, 1), where the
    mean target is reached in finite time, and PrecisionLoss when survival
    falls below 1e-12, past which the conditional ratio cannot be trusted at
    the advertised accuracy.  An offspring mean so close to 1 that a solve
    needs more than ``_MAX_STEPS`` steps (alpha 1e-6 in this package's model)
    raises DomainError from ``_rk4`` before any step.
    """
    if not 0.0 <= mech.mean < 1.0:
        raise DomainError(
            "offspring mean must lie in [0, 1) to reach mean target "
            f"{_LIMIT_MEAN_TARGET!r}, got {mech.mean!r}"
        )
    t_big = math.log(_LIMIT_MEAN_TARGET) / (mech.mean - 1.0)
    step = t_big / math.ceil(t_big / 0.01)
    survival = integrate_complement(mech, 1.0, t_big, step).final
    if survival < 1e-12:
        raise PrecisionLoss(
            f"survival {survival!r} at mean target {_LIMIT_MEAN_TARGET!r} "
            "is below 1e-12"
        )
    ratios = []
    for s in _TABLE1_S_GRID:
        g0 = 1.0 - s
        # g0 == 1.0 starts where the survival solve did, so it ends there too;
        # g0 == 0.0 is a fixed point, since every drift gives d(0) = -0.0, so
        # G stays exactly 0.0 and the ratio is exactly 1.0
        if g0 == 1.0:
            g_end = survival
        elif g0 == 0.0:
            g_end = 0.0
        else:
            g_end = integrate_complement(mech, g0, t_big, step).final
        ratios.append(1.0 - g_end / survival)
    return ratios


@dataclass(frozen=True)
class CheckResult:
    """A named residual against its tolerance; passes when residual <= tolerance."""

    name: str
    residual: float
    tolerance: float
    passed: bool


def _result(name: str, residual: float, tolerance: float) -> CheckResult:
    return CheckResult(name, float(residual), tolerance, residual <= tolerance)


def _power_form_pgf(params: ModelParams, mean: float, s: float) -> float:
    """F(t, s) = 1 - ((1 - a)/a)(((1 - a s)/(1 - a))^M - 1) in plain power
    form, independent of the expm1/log1p closed form; valid for s < 1/a."""
    a = params.alpha
    return 1.0 - ((1 - a) / a) * (((1 - a * s) / (1 - a)) ** mean - 1.0)


def _richardson_derivative(f: Callable, s: float, n: int, h: float) -> float:
    """nth central difference of f at s, extrapolated from h and h/2."""
    def diff(step):
        total = 0.0
        for k in range(n + 1):
            total += (-1) ** k * math.comb(n, k) * f(s + (n / 2 - k) * step)
        return total / step ** n

    return (4.0 * diff(h / 2) - diff(h)) / 3.0


def closed_form_suite() -> list:
    """Identity checks on the closed-form generating function and pmf."""
    params = ModelParams(0.5, 1.0)
    a = params.alpha
    results = []

    worst = 0.0
    for seed, t_low, t_high in ((7, 0.05, 3.0), (20240817, 0.01, 5.0)):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            t, u = rng.uniform(t_low, t_high, size=2).tolist()
            s = rng.uniform(0.0, 1.0)
            inner = closed_form.pgf_at(params, params.at(u), s)
            composed = closed_form.pgf_at(params, params.at(t), inner)
            direct = closed_form.pgf_at(params, params.at(t + u), s)
            worst = max(worst, abs(composed - direct))
    results.append(_result("semigroup_composition", worst, 1e-12))

    worst = 0.0
    for t in (0.1, 0.5, 1.0, 2.0, 5.0):
        tp = params.at(t)
        for s in np.linspace(0.0, 1.0, 21).tolist():
            g = closed_form.pgf_complement(params, tp, s)
            lhs = 1.0 + a * g / (1.0 - a)
            rhs = math.exp(tp.mean * math.log1p(a * (1.0 - s) / (1.0 - a)))
            worst = max(worst, abs(lhs - rhs))
    results.append(_result("defining_power_identity", worst, 1e-12))

    # one central time difference per (t, s) serves both Kolmogorov equations;
    # the forward one also differences in s, so it skips s = 1
    worst_backward = 0.0
    worst_forward = 0.0
    dt = 1e-5
    ds = 1e-5
    for t in (0.5, 1.0, 2.0):
        tp = params.at(t)
        for s in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
            left = closed_form.pgf_at(params, params.at(t - dt), s)
            right = closed_form.pgf_at(params, params.at(t + dt), s)
            rate_fd = (right - left) / (2.0 * dt)
            rate_exact = infinitesimal_gen(params, closed_form.pgf_at(params, tp, s))
            worst_backward = max(worst_backward, abs(rate_fd - rate_exact))
            if s < 1.0:
                ds_fd = (
                    closed_form.pgf_at(params, tp, s + ds)
                    - closed_form.pgf_at(params, tp, s - ds)
                ) / (2.0 * ds)
                rate_forward = infinitesimal_gen(params, s) * ds_fd
                worst_forward = max(worst_forward, abs(rate_fd - rate_forward))
    results.append(_result("backward_equation_fd", worst_backward, 1e-8))
    results.append(_result("forward_equation_fd", worst_forward, 1e-8))

    worst = 0.0
    for t in np.linspace(0.1, 5.0, 20).tolist():
        tp = params.at(t)
        for s in np.linspace(0.0, 1.0 - 1e-6, 20).tolist():
            worst = max(worst, abs(check_implicit_solution(params, tp, s)))
    results.append(_result("implicit_solution_identity", worst, 1e-10))

    worst = 0.0
    for alpha in (0.3, 0.5, 0.7):
        p = ModelParams(alpha, 1.0)
        for t in (0.5, 2.0):
            law = closed_form.law_at(p, p.at(t))
            worst = max(worst, abs(law.total_mass() - 1.0))
    results.append(_result("pmf_normalization", worst, 1e-10))

    tp = params.at(1.0)
    bad = sum(1 for n in range(1, 201) if not closed_form.pmf(params, tp, n) > 0.0)
    results.append(_result("pmf_positive_through_200", float(bad), 0.0))

    worst_fd = 0.0
    worst_split = 0.0
    for t in (0.5, 1.0, 2.0):
        tp = params.at(t)
        family = closed_form.conditional_family(params, tp)
        survival = closed_form.survival_prob(params, tp)
        for n in range(1, 5):
            moment = survival * family.factorial_moment(n)
            approx = _richardson_derivative(
                lambda s: _power_form_pgf(params, tp.mean, s), 1.0, n, 0.05
            )
            worst_fd = max(worst_fd, abs(approx - moment) / moment)
            falling = tp.mean * math.prod(k - tp.mean for k in range(1, n))
            direct = ((1.0 - a) / a) * (a / (1.0 - a)) ** n * falling
            worst_split = max(worst_split, abs(moment - direct) / direct)
    results.append(_result("factorial_moment_derivatives", worst_fd, 1e-4))
    results.append(_result("conditional_moment_decomposition", worst_split, 1e-12))

    return results


def ode_suite() -> list:
    """Closed form versus RK4 on a parameter grid, plus the observed order,
    the largest |order - 4| over five step halvings from 0.2.
    One tau-solve per (alpha, s0), at the largest rate's horizon and step,
    serves every rate: the drift depends on tau = r t alone, so the closed
    form at rate r and time t is read off that same trajectory at tau = r t,
    a point of its grid."""
    step = 1e-3
    horizon = 5.0
    rates = (1.0, 2.0)
    query_times = (0.5, 1.0, 2.0, 5.0)
    s_values = (0.0, 0.25, 0.5, 0.75, 0.9)
    worst = 0.0
    for alpha in (0.3, 0.6):
        mech = log_mixture_mechanism(ModelParams(alpha, 1.0))
        for s0 in s_values:
            path = integrate_backward(mech, s0, max(rates) * horizon, max(rates) * step)
            for params in [ModelParams(alpha, rate) for rate in rates]:
                for t in query_times:
                    exact = closed_form.pgf_at(params, params.at(t), s0)
                    worst = max(worst, abs(path.value_at(params.rate * t) - exact))

    # observed order: log2 of the endpoint-error ratio between step and
    # step/2, for steps 0.2 down to 0.0125; the error at step 0.00625,
    # 1.7e-13, is still far above roundoff, which sets in below it
    params = ModelParams(0.5, 1.0)
    mech = log_mixture_mechanism(params)
    reference = closed_form.pgf_at(params, params.at(2.0), 0.2)
    errors = [abs(integrate_backward(mech, 0.2, 2.0, 0.2 / 2**k).final - reference)
              for k in range(6)]
    worst_order = max(abs(math.log2(coarse / fine) - 4.0)
                      for coarse, fine in zip(errors, errors[1:]))
    return [_result("rk4_vs_closed_form", worst, 1e-8),
            _result("rk4_convergence_order", worst_order, 0.3)]


def table1_suite() -> list:
    """Numeric conditional limits at mean target 1e-3 versus each mechanism's
    closed-form limit law."""
    results = []
    for mech in standard_mechanisms():
        ratios = numeric_conditional_limit(mech)
        worst = max(abs(r - mech.limit_pgf(s)) for r, s in zip(ratios, _TABLE1_S_GRID))
        results.append(_result(f"limit_law_{mech.name}", worst, 1e-4))
    return results


# the x^2 coefficient of x/(1 - e^-x) = 1 + x/2 + x^2/12 - x^4/720 + ...
_TV_SECOND_ORDER = 1.0 / 12.0


def _tv_first_order_rate() -> CheckResult:
    """TV(t) between the conditional law and its limit against its exact
    expansion in the mean M = M(t).

    ExtendedSibuya(M, alpha) puts more mass than LogSeries(alpha) on n = 1
    only, so TV = alpha M/(1 - e^-x) - alpha/A with x = M A, which is
    (alpha/A)(x/(1 - e^-x) - 1) = alpha M/2 + alpha A M^2/12
    - (alpha/A) x^4/720 + ...  The residual is the largest
    |(TV - alpha M/2)/M^2 - alpha A/12| over alpha in {0.05, 0.3, 0.5, 0.7,
    0.77} and M in {1e-2, 1e-3}, with TV from ``tv_distance``.  Its
    tolerance is derived, not fitted: the largest over the grid of

    * 2 _TAIL_BOUND/M^2: ``tv_distance`` adds half of each table's certified
      tail mass, each below ``_TAIL_BOUND``, and where one table ends first
      it also counts that table's untabulated mass once more, so it
      overstates TV by at most tail_a + tail_b;
    * alpha A^3 M^2/720, the dropped terms over M^2: for x < 2 pi the series
      alternates with falling terms, so they are at most (alpha/A) x^4/720.

    That is 2.0034e-6, at alpha 0.77 and M 1e-3.  Rounding in the table
    terms moves TV by under 3e-16, the residual by under 3e-10.
    """
    worst = 0.0
    tolerance = 0.0
    for alpha in (0.05, 0.3, 0.5, 0.7, 0.77):
        params = ModelParams(alpha, 1.0)
        a_const = params.log_norm
        limit = closed_form.limit_law(params)
        for target in (1e-2, 1e-3):
            tp = params.at(math.log(target) / params.malthusian_rate)
            m = tp.mean
            tv = closed_form.tv_distance(closed_form.conditional_law_at(params, tp), limit)
            worst = max(worst, abs((tv - 0.5 * alpha * m) / m**2
                                   - alpha * a_const * _TV_SECOND_ORDER))
            tolerance = max(tolerance, 2.0 * closed_form._TAIL_BOUND / m**2
                            + alpha * a_const**3 * m**2 / 720.0)
    return _result("tv_first_order_rate", worst, tolerance)


def limit_suite() -> list:
    """Convergence of the conditional law to its limit, and the exact bridges."""
    params = ModelParams(0.5, 1.0)
    results = []

    limit = closed_form.limit_law(params)
    tvs = []
    ratios = []
    for target in (1e-1, 1e-2, 1e-3):
        tp = params.at(math.log(target) / params.malthusian_rate)
        tv = closed_form.tv_distance(closed_form.conditional_law_at(params, tp), limit)
        tvs.append(tv)
        ratios.append(tv / tp.mean)
    # counts the steps where TV failed to shrink: an equal TV fails too
    stalls = sum(1 for a, b in zip(tvs, tvs[1:]) if not b < a)
    results.append(_result("tv_to_limit_decreasing", float(stalls), 0.0))
    results.append(_result("tv_rate_consistency", max(ratios) / min(ratios), 3.0))
    results.append(_tv_first_order_rate())

    # the family against the conditional pgf 1 - (1 - F(t, s)) / P(X(t) > 0)
    # derived from F, not against conditional_family, which is the family itself;
    # a (t, s) grid at alpha 0.5, then 100 random (alpha, t, s)
    points = [(params, t, s)
              for t in (0.5, 1.0, 2.0) for s in np.linspace(0.0, 1.0, 21).tolist()]
    rng = np.random.default_rng(731)
    for _ in range(100):
        p = ModelParams(rng.uniform(0.05, 0.76), 1.0)
        t = rng.uniform(0.1, 5.0)
        points.append((p, t, rng.uniform(0.0, 1.0)))
    worst = 0.0
    for p, t, s in points:
        tp = p.at(t)
        from_f = 1.0 - closed_form.pgf_complement(p, tp, s) / closed_form.survival_prob(p, tp)
        worst = max(worst, abs(from_f - ExtendedSibuya(tp.mean, p.alpha).pgf(s)))
    results.append(_result("extended_sibuya_bridge", worst, 1e-12))

    t_small = math.log(1e-4) / params.malthusian_rate
    tp = params.at(t_small)
    worst = 0.0
    for n in range(1, 6):
        lim = LogSeries(params.alpha).factorial_moment(n)
        cond = closed_form.conditional_family(params, tp).factorial_moment(n)
        worst = max(worst, abs(cond - lim) / lim)
    results.append(_result("conditional_moments_to_limit", worst, 1e-2))

    return results


_SUITES = {
    "closed-form": closed_form_suite,
    "ode": ode_suite,
    "table1": table1_suite,
    "limit": limit_suite,
}


def run_suite(name: str = "all") -> list:
    """Run one named suite, or every suite in a fixed order for "all"."""
    if name == "all":
        return [row for suite in _SUITES.values() for row in suite()]
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from "
                          f"{sorted(_SUITES)} or 'all'")
    return _SUITES[name]()
