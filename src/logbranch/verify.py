"""Independent numerical cross-checks for the closed-form results.

Three kinds of evidence are produced here, none of which reuses the closed
forms being checked:

* fixed-step RK4 integration of the backward equation dF/dt = f(F), run both
  on F directly and on the complement G = 1 - F (the complement drift is
  algebraically simplified so no precision is lost when G is tiny);
* the implicit one-parameter solution identity that the generating function
  must satisfy at every (t, s);
* long-time conditional limits for four reproduction mechanisms, each with
  its own closed-form limit generating function to compare against.

Every check returns a CheckResult; a result passes when residual <= tolerance.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import closed_form
from .distributions import ExtendedSibuya, LogSeries
from .errors import DomainError, NumericalDivergence, PrecisionLoss
from .model import ModelParams


@dataclass(frozen=True)
class Mechanism:
    """A reproduction mechanism packaged for ODE work.

    ``pgf`` is the offspring generating function h, ``complement`` is
    phi(g) = 1 - h(1 - g) in cancellation-free form, and ``limit_pgf`` is the
    closed-form generating function of the conditional limit law the
    mechanism should produce.
    """

    name: str
    rate: float
    mean: float
    pgf: Callable
    complement: Callable
    limit_pgf: Callable

    def __post_init__(self) -> None:
        if not 0.0 < self.rate < math.inf:
            raise DomainError(f"rate must be positive and finite, got {self.rate!r}")

    def drift(self, x: float) -> float:
        return self.rate * (self.pgf(x) - x)

    def complement_drift(self, g: float) -> float:
        return self.rate * (self.complement(g) - g)

    @property
    def malthusian_rate(self) -> float:
        return self.rate * (self.mean - 1.0)

    def time_to_mean(self, target: float) -> float:
        """Time at which the expected population size decays to ``target``."""
        if not 0.0 < target < 1.0:
            raise DomainError(f"mean target must lie in (0, 1), got {target!r}")
        return math.log(target) / self.malthusian_rate


def log_mixture_mechanism(params: ModelParams) -> Mechanism:
    """The mechanism of this package's model, in closure form for the integrator."""
    a = params.alpha
    a_const = params.log_norm

    def h(s: float) -> float:
        return s + a * (1.0 - a * s) * math.log1p(a * (1.0 - s) / (1.0 - a)) / a_const

    def phi(g: float) -> float:
        return g - (a / a_const) * (1.0 - a + a * g) * math.log1p(a * g / (1.0 - a))

    return Mechanism(
        name="log-mixture",
        rate=params.rate,
        mean=params.offspring_mean,
        pgf=h,
        complement=phi,
        limit_pgf=LogSeries(params.alpha).pgf,
    )


def geometric_mechanism(m: float, rate: float = 1.0) -> Mechanism:
    """Geometric offspring law h(s) = 1 / (1 + m - m s); limit law is
    F*(s) = 1 - (1 - s)(1 - m s)^(-m)."""
    if not 0.0 < m < 1.0:
        raise DomainError(f"mean must lie in (0, 1), got {m!r}")

    def h(s: float) -> float:
        return 1.0 / (1.0 + m * (1.0 - s))

    def phi(g: float) -> float:
        return m * g / (1.0 + m * g)

    def limit(s: float) -> float:
        return 1.0 - (1.0 - s) * math.exp(-m * math.log1p(-m * s))

    return Mechanism("geometric", rate, m, h, phi, limit)


def binary_mechanism(m: float = None, rho: float = None, rate: float = 1.0) -> Mechanism:
    """Binary splitting h(s) = 1 + (m/2)(s^2 - 1); limit law is geometric on
    {1, 2, ...} with parameter rho = m / (2 - m), pgf (1-rho) s / (1 - rho s)."""
    if (m is None) == (rho is None):
        raise DomainError("give exactly one of m and rho")
    if rho is not None:
        if not 0.0 < rho < 1.0:
            raise DomainError(f"rho must lie in (0, 1), got {rho!r}")
        m = 2.0 * rho / (1.0 + rho)
    if not 0.0 < m < 1.0:
        raise DomainError(f"mean must lie in (0, 1), got {m!r}")
    rho_eff = m / (2.0 - m)

    def h(s: float) -> float:
        return 1.0 + 0.5 * m * (s * s - 1.0)

    def phi(g: float) -> float:
        return m * g - 0.5 * m * g * g

    def limit(s: float) -> float:
        return (1.0 - rho_eff) * s / (1.0 - rho_eff * s)

    return Mechanism("binary", rate, m, h, phi, limit)


def linear_mechanism(m: float, rate: float = 1.0) -> Mechanism:
    """Pure death-or-survive h(s) = 1 - m + m s; the conditional limit is
    degenerate at 1, F*(s) = s."""
    if not 0.0 < m < 1.0:
        raise DomainError(f"mean must lie in (0, 1), got {m!r}")

    def h(s: float) -> float:
        return 1.0 - m + m * s

    def phi(g: float) -> float:
        return m * g

    def limit(s: float) -> float:
        return s

    return Mechanism("linear", rate, m, h, phi, limit)


def standard_mechanisms() -> tuple:
    """The four reference mechanisms at the package's pinned comparison point.

    Means sit at 0.5 (log-mixture: alpha = 0.5) so the limit-law gap at
    mean-target 1e-3, which scales like 0.08..0.09 times the target, stays
    below the 1e-4 verification bound with real margin.
    """
    return (
        log_mixture_mechanism(ModelParams(0.5, 1.0)),
        geometric_mechanism(0.5),
        binary_mechanism(m=0.5),
        linear_mechanism(0.5),
    )


@dataclass(frozen=True)
class OdeSolution:
    """A fixed-step trajectory; values[i] approximates the state at times[i]."""

    step: float
    times: np.ndarray
    values: np.ndarray

    @property
    def final(self) -> float:
        return float(self.values[-1])

    def value_at(self, t: float) -> float:
        idx = int(round(t / self.step))
        if idx < 0 or idx >= len(self.times) or abs(self.times[idx] - t) > 1e-9:
            raise DomainError(f"time {t!r} is not on the integration grid")
        return float(self.values[idx])


def _rk4(field: Callable, x0: float, t_end: float, step: float) -> OdeSolution:
    if not 0.0 < t_end < math.inf:
        raise DomainError(
            f"integration horizon must be positive and finite, got {t_end!r}"
        )
    if not 0.0 < step < math.inf:
        raise DomainError(f"step must be positive and finite, got {step!r}")
    n_full = int(t_end / step)
    remainder = t_end - n_full * step
    steps = [step] * n_full
    if remainder > 1e-12 * max(1.0, t_end):
        steps.append(remainder)
    values = [x0]
    times = [0.0]
    x = x0
    t = 0.0
    for h in steps:
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        if not -1e-9 <= x <= 1.0 + 1e-9:
            raise NumericalDivergence(
                f"trajectory left [0, 1] at t={t:.6g} (value {x!r})"
            )
        values.append(x)
        times.append(t)
    return OdeSolution(step, np.array(times), np.array(values))


def integrate_backward(mech: Mechanism, s0: float, t_end: float,
                       step: float) -> OdeSolution:
    """RK4 solution of dF/dt = rate (h(F) - F), F(0) = s0, on [0, t_end]."""
    if not 0.0 <= s0 <= 1.0:
        raise DomainError(f"initial value must lie in [0, 1], got {s0!r}")
    return _rk4(mech.drift, s0, t_end, step)


def integrate_complement(mech: Mechanism, g0: float, t_end: float,
                         step: float) -> OdeSolution:
    """RK4 solution for G = 1 - F: dG/dt = rate (phi(G) - G), G(0) = g0.

    Working on the complement keeps relative precision when G decays to the
    1e-3 .. 1e-12 range, where 1 - F would be pure cancellation.
    """
    if not 0.0 <= g0 <= 1.0:
        raise DomainError(f"initial value must lie in [0, 1], got {g0!r}")
    return _rk4(mech.complement_drift, g0, t_end, step)


def convergence_order(mech: Mechanism, reference: float, s0: float,
                      t_end: float, step: float) -> float:
    """Observed order: log2 of the endpoint-error ratio between step and step/2."""
    e_coarse = abs(integrate_backward(mech, s0, t_end, step).final - reference)
    e_fine = abs(integrate_backward(mech, s0, t_end, 0.5 * step).final - reference)
    if e_fine == 0.0:
        raise PrecisionLoss("fine-step error hit machine zero; use a coarser step")
    return math.log2(e_coarse / e_fine)


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


def numeric_conditional_limit(mech: Mechanism, s_grid, mean_target: float = 1e-3,
                              step: float = None) -> np.ndarray:
    """Conditional generating function 1 - G(t, s)/G(t, 0) at the time where
    the mean decays to ``mean_target``, by complement integration.

    Raises PrecisionLoss when survival falls below 1e-12, past which the
    conditional ratio cannot be trusted at the advertised accuracy.
    """
    t_big = mech.time_to_mean(mean_target)
    if step is None:
        step = t_big / math.ceil(t_big / 0.01)
    survival = integrate_complement(mech, 1.0, t_big, step).final
    if survival < 1e-12:
        raise PrecisionLoss(
            f"survival {survival!r} at mean target {mean_target!r} is below 1e-12"
        )
    ratios = []
    for s in s_grid:
        if not 0.0 <= s <= 1.0:
            raise DomainError(f"grid points must lie in [0, 1], got {s!r}")
        g_end = integrate_complement(mech, 1.0 - s, t_big, step).final
        ratios.append(1.0 - g_end / survival)
    return np.array(ratios)


@dataclass(frozen=True)
class CheckResult:
    """A named residual against its tolerance; passes when residual <= tolerance."""

    name: str
    residual: float
    tolerance: float
    passed: bool


def _result(name: str, residual: float, tolerance: float) -> CheckResult:
    return CheckResult(name, float(residual), tolerance, residual <= tolerance)


def closed_form_suite(params: ModelParams = None) -> list:
    """Identity checks on the closed-form generating function and pmf."""
    if params is None:
        params = ModelParams(0.5, 1.0)
    results = []

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        t, u = rng.uniform(0.05, 3.0, size=2)
        s = rng.uniform(0.0, 1.0)
        inner = closed_form.pgf_at(params, params.at(u), s)
        composed = closed_form.pgf_at(params, params.at(t), inner)
        direct = closed_form.pgf_at(params, params.at(t + u), s)
        worst = max(worst, abs(composed - direct))
    results.append(_result("semigroup_composition", worst, 1e-12))

    worst = 0.0
    a = params.alpha
    for t in (0.1, 0.5, 1.0, 2.0, 5.0):
        tp = params.at(t)
        for s in np.linspace(0.0, 1.0, 21):
            g = closed_form.pgf_complement(params, tp, s)
            lhs = 1.0 + a * g / (1.0 - a)
            rhs = math.exp(tp.mean * math.log1p(a * (1.0 - s) / (1.0 - a)))
            worst = max(worst, abs(lhs - rhs))
    results.append(_result("defining_power_identity", worst, 1e-12))

    from .model import infinitesimal_gen

    worst = 0.0
    dt = 1e-5
    for t in (0.5, 1.0, 2.0):
        for s in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
            left = closed_form.pgf_at(params, params.at(t - dt), s)
            right = closed_form.pgf_at(params, params.at(t + dt), s)
            rate_fd = (right - left) / (2.0 * dt)
            rate_exact = infinitesimal_gen(
                params, closed_form.pgf_at(params, params.at(t), s)
            )
            worst = max(worst, abs(rate_fd - rate_exact))
    results.append(_result("backward_equation_fd", worst, 1e-8))

    worst = 0.0
    ds = 1e-5
    for t in (0.5, 1.0, 2.0):
        tp = params.at(t)
        for s in (0.0, 0.25, 0.5, 0.75, 0.9):
            left = closed_form.pgf_at(params, params.at(t - dt), s)
            right = closed_form.pgf_at(params, params.at(t + dt), s)
            rate_fd = (right - left) / (2.0 * dt)
            ds_fd = (
                closed_form.pgf_at(params, tp, s + ds)
                - closed_form.pgf_at(params, tp, s - ds)
            ) / (2.0 * ds)
            worst = max(worst, abs(rate_fd - infinitesimal_gen(params, s) * ds_fd))
    results.append(_result("forward_equation_fd", worst, 1e-8))

    worst = 0.0
    for t in np.linspace(0.1, 5.0, 20):
        tp = params.at(float(t))
        for s in np.linspace(0.0, 1.0 - 1e-6, 20):
            worst = max(worst, abs(check_implicit_solution(params, tp, float(s))))
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

    return results


def ode_suite(step: float = 1e-3) -> list:
    """Closed form versus RK4 on a parameter grid, plus the observed order."""
    results = []
    horizon = 5.0
    query_times = (0.5, 1.0, 2.0, 5.0)
    s_values = (0.0, 0.25, 0.5, 0.75, 0.9)
    worst = 0.0
    for alpha in (0.3, 0.6):
        for rate in (1.0, 2.0):
            params = ModelParams(alpha, rate)
            mech = log_mixture_mechanism(params)
            for s0 in s_values:
                path = integrate_backward(mech, s0, horizon, step)
                for t in query_times:
                    exact = closed_form.pgf_at(params, params.at(t), s0)
                    worst = max(worst, abs(path.value_at(t) - exact))
    results.append(_result("rk4_vs_closed_form", worst, 1e-8))

    params = ModelParams(0.5, 1.0)
    mech = log_mixture_mechanism(params)
    reference = closed_form.pgf_at(params, params.at(2.0), 0.2)
    order = convergence_order(mech, reference, 0.2, 2.0, 0.05)
    results.append(_result("rk4_convergence_order", abs(order - 4.0), 0.3))
    return results


def table1_suite(mean_target: float = 1e-3) -> list:
    """Numeric conditional limits versus each mechanism's closed-form limit law."""
    results = []
    s_grid = np.linspace(0.0, 1.0, 6)
    for mech in standard_mechanisms():
        ratios = numeric_conditional_limit(mech, s_grid, mean_target)
        exact = np.array([mech.limit_pgf(float(s)) for s in s_grid])
        worst = float(np.max(np.abs(ratios - exact)))
        results.append(_result(f"limit_law_{mech.name}", worst, 1e-4))
    return results


def limit_suite(params: ModelParams = None) -> list:
    """Convergence of the conditional law to its limit, and the exact bridges."""
    if params is None:
        params = ModelParams(0.5, 1.0)
    results = []

    limit = closed_form.limit_law(params)
    targets = (1e-1, 1e-2, 1e-3)
    tvs = []
    for target in targets:
        t = math.log(target) / params.malthusian_rate
        tp = params.at(t)
        tvs.append(closed_form.tv_distance(
            closed_form.conditional_law_at(params, tp), limit
        ))
    worst_increase = max(b - a for a, b in zip(tvs, tvs[1:]))
    results.append(_result("tv_to_limit_decreasing", worst_increase, 0.0))

    ratios = [tv / target for tv, target in zip(tvs, targets)]
    spread = max(
        max(r2 / r1, r1 / r2) for r1, r2 in zip(ratios, ratios[1:])
    )
    results.append(_result("tv_rate_consistency", spread, 3.0))

    # the family against the conditional pgf 1 - (1 - F(t, s)) / P(X(t) > 0)
    # derived from F, not against conditional_family, which is the family itself
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        tp = params.at(t)
        bridge = ExtendedSibuya(tp.mean, params.alpha)
        survival = closed_form.survival_prob(params, tp)
        for s in np.linspace(0.0, 1.0, 21):
            from_f = 1.0 - closed_form.pgf_complement(params, tp, float(s)) / survival
            worst = max(worst, abs(from_f - bridge.pgf(float(s))))
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
        results = []
        for suite in _SUITES.values():
            results.extend(suite())
        return results
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from "
                          f"{sorted(_SUITES)} or 'all'")
    return _SUITES[name]()
