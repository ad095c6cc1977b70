import math
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from logbranch import (
    DomainError,
    ModelParams,
    NumericalDivergence,
    PrecisionLoss,
    infinitesimal_gen,
    pgf_at,
    pgf_complement,
    survival_prob,
)
from logbranch import verify
from logbranch.verify import (
    Mechanism,
    _rk4,
    check_implicit_solution,
    integrate_backward,
    integrate_complement,
    limit_suite,
    log_mixture_mechanism,
    numeric_conditional_limit,
    ode_suite,
    run_suite,
    standard_mechanisms,
)

_LOG_MIXTURE, _GEOMETRIC, _BINARY, _LINEAR = standard_mechanisms()

# each mechanism with its offspring pgf h in plain form, kept here only as the
# reference that the cancellation-free drift d(g) = 1 - h(1 - g) - g must match
_WITH_REFERENCE_H = [
    lambda: (_LOG_MIXTURE,
             lambda s: s + 0.5 * (1.0 - 0.5 * s) * (1.0 + math.log(1.0 - 0.5 * s) / math.log(2.0))),
    lambda: (_GEOMETRIC, lambda s: 1.0 / (1.5 - 0.5 * s)),
    lambda: (_BINARY, lambda s: 1.0 + 0.25 * (s * s - 1.0)),
    lambda: (_LINEAR, lambda s: 0.5 + 0.5 * s),
]


class TestMechanisms:
    def test_log_mixture_pgf_matches_model(self):
        # d(g) = -f(1 - g)/rate for the model's generator f, at any rate
        for params in (ModelParams(0.5, 1.0), ModelParams(0.3, 7.0)):
            mech = log_mixture_mechanism(params)
            for g in np.linspace(0.0, 1.0, 41):
                g = float(g)
                expected = -infinitesimal_gen(params, 1.0 - g) / params.rate
                assert mech.drift(g) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("factory", _WITH_REFERENCE_H)
    def test_complement_is_reflected_pgf(self, factory):
        mech, h = factory()
        for g in np.linspace(0.0, 1.0, 41):
            direct = 1.0 - h(1.0 - float(g)) - float(g)
            assert mech.drift(float(g)) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("factory", [
        lambda: _GEOMETRIC,
        lambda: _BINARY,
        lambda: _LINEAR,
        lambda: log_mixture_mechanism(ModelParams(0.5, 1.0)),
    ])
    def test_pgf_mean_consistent(self, factory):
        # d'(0) = h'(1) - 1 recovered by one-sided Richardson difference
        mech = factory()
        drift = mech.drift
        h = 1e-7
        d_h = (drift(h) - drift(0.0)) / h
        d_half = (drift(h / 2) - drift(0.0)) / (h / 2)
        assert 2.0 * d_half - d_h == pytest.approx(mech.mean - 1.0, abs=1e-6)

    def test_standard_set(self):
        names = [m.name for m in standard_mechanisms()]
        assert names == ["log-mixture", "geometric", "binary", "linear"]


class TestIntegration:
    def test_fixed_point_at_one(self, params_half):
        mech = log_mixture_mechanism(params_half)
        path = integrate_backward(mech, 1.0, 2.0, 0.01)
        assert path.final == 1.0

    def test_matches_closed_form(self, params_half):
        mech = log_mixture_mechanism(params_half)
        path = integrate_backward(mech, 0.3, 2.0, 1e-3)
        for t in (0.5, 1.0, 2.0):
            exact = pgf_at(params_half, params_half.at(t), 0.3)
            assert abs(path.value_at(t) - exact) < 1e-8

    def test_trajectory_is_increasing(self, params_half):
        mech = log_mixture_mechanism(params_half)
        path = integrate_backward(mech, 0.2, 3.0, 0.01)
        assert np.all(np.diff(path.values) > 0.0)

    def test_off_grid_query_rejected(self, params_half):
        mech = log_mixture_mechanism(params_half)
        path = integrate_backward(mech, 0.3, 1.0, 0.01)
        with pytest.raises(DomainError):
            path.value_at(0.0153)

    @pytest.mark.parametrize("t_end", [1.005, 0.333])
    def test_endpoint_off_step_multiple(self, params_half, t_end):
        # the last step is the remainder, so the endpoint is off the step grid
        mech = log_mixture_mechanism(params_half)
        path = integrate_backward(mech, 0.3, t_end, 0.01)
        assert path.value_at(t_end) == path.final
        assert path.value_at(0.33) == path.values[33]

    def test_divergence_guard(self):
        runaway = Mechanism("runaway", 0.5, drift=lambda g: -0.5 - g,
                            limit_pgf=lambda s: s)
        with pytest.raises(NumericalDivergence):
            integrate_backward(runaway, 0.9, 5.0, 0.01)

    @pytest.mark.parametrize("solve, at", [
        # a step of 10, or of 1e299, in rate * t takes an RK4 stage out of
        # the domain of the drift's log1p before the step ends
        (lambda: integrate_complement(_LOG_MIXTURE, 1.0, 100.0, 10.0), "t=10 "),
        (lambda: integrate_backward(_LOG_MIXTURE, 0.0, 1e300, 1e299), "t=1e.299 "),
    ])
    def test_unstable_step_is_divergence(self, solve, at):
        with pytest.raises(NumericalDivergence, match=at):
            solve()

    def test_input_validation(self, params_half):
        mech = log_mixture_mechanism(params_half)
        with pytest.raises(DomainError):
            integrate_backward(mech, 1.5, 1.0, 0.01)
        with pytest.raises(DomainError):
            integrate_backward(mech, 0.5, -1.0, 0.01)
        with pytest.raises(DomainError):
            integrate_backward(mech, 0.5, 1.0, 0.0)

    @pytest.mark.parametrize("t_end,step", [(math.inf, 0.01), (1.0, math.inf)])
    def test_rejects_non_finite_horizon_or_step(self, params_half, t_end, step):
        # an infinite step once made 0*inf a NaN remainder, so no step ran and
        # the initial value came back as the result
        mech = log_mixture_mechanism(params_half)
        with pytest.raises(DomainError):
            integrate_backward(mech, 0.5, t_end, step)
        with pytest.raises(DomainError):
            integrate_complement(mech, 0.5, t_end, step)

    def test_complement_matches_closed_form(self, params_half):
        # G(0) = 1 - s with s = 0.3, so G(2) is the closed form's 1 - F(2, 0.3)
        mech = log_mixture_mechanism(params_half)
        complement = integrate_complement(mech, 0.7, 2.0, 1e-3).final
        expected = pgf_complement(params_half, params_half.at(2.0), 0.3)
        assert complement == pytest.approx(expected, rel=1e-10)

    def test_long_horizon_ends_on_grid(self):
        # a running sum of 10000 steps of 0.7 ends 1.2e-9 short of 7000,
        # past value_at's 1e-9 tolerance
        path = integrate_backward(_LINEAR, 0.3, 7000.0, 0.7)
        assert path.value_at(7000.0) == path.final
        assert path.value_at(3500.0) == path.values[5000]

    def test_complement_keeps_relative_precision(self, params_half):
        # survival ~ 5e-7 here; the complement path must track it to 1e-8
        mech = log_mixture_mechanism(params_half)
        t_end = math.log(1e-6) / params_half.malthusian_rate
        survival_ode = integrate_complement(mech, 1.0, t_end, 0.01).final
        exact = survival_prob(params_half, params_half.at(t_end))
        assert survival_ode == pytest.approx(exact, rel=1e-8)


class TestStepBudget:
    # each input asks for far more steps than the budget; the error must come
    # before the step list or the time grid is allocated, so the peak traced
    # allocation stays far below a budget's worth (about 600 MB)
    @pytest.mark.parametrize("solve", [
        lambda: integrate_backward(_LOG_MIXTURE, 0.5, 1.0, 1e-300),
        lambda: numeric_conditional_limit(log_mixture_mechanism(ModelParams(1e-6, 1.0))),
    ])
    def test_raises_before_allocating(self, solve):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="step budget"):
                solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestFloatState:
    # a numpy scalar state runs every RK4 stage on numpy scalar arithmetic,
    # about 2.4 times as slow as on a Python float
    @pytest.mark.parametrize("drive", [
        numeric_conditional_limit,
        lambda mech: integrate_backward(mech, np.float64(0.25), 1.0, 0.01),
    ])
    def test_steps_run_on_python_floats(self, drive):
        seen = []

        def drift(g):
            seen.append(type(g))
            return -0.5 * g

        drive(Mechanism("spy", 0.5, drift=drift, limit_pgf=lambda s: s))
        assert seen and set(seen) == {float}


def _textbook_rk4(drift, x, t_end, step):
    """Classical RK4 written out stage by stage, with the same grid as
    ``_rk4``: whole steps, then the remainder."""
    n_full = int(t_end / step)
    values = [x]
    for h in [step] * n_full + [t_end - n_full * step]:
        k1 = drift(x)
        k2 = drift(x + 0.5 * h * k1)
        k3 = drift(x + 0.5 * h * k2)
        k4 = drift(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values.append(x)
    return values


class TestTextbookScheme:
    # the stage and the log-mixture drift hoist common subexpressions; both
    # must give the plain formulas' bits exactly, not merely approximately
    @pytest.mark.parametrize("mech", standard_mechanisms(), ids=lambda m: m.name)
    @pytest.mark.parametrize("x0", [1.0, 0.7, 0.05])
    def test_stage_is_textbook_rk4(self, mech, x0):
        # 12.345 is not a multiple of 0.5, so a remainder step of 0.345 ends
        # it; a step this long makes each increment large next to the state,
        # so a one-ulp change in an increment shows in the state's bits
        solution = _rk4(mech, x0, 12.345, 0.5)
        assert len(solution.values) == 26
        assert solution.values.tolist() == _textbook_rk4(mech.drift, x0, 12.345, 0.5)

    @pytest.mark.parametrize("params", [ModelParams(0.5, 1.0), ModelParams(0.3, 7.0),
                                        ModelParams(0.77, 1.0), ModelParams(1e-6, 1.0)])
    def test_log_mixture_drift_is_plain_formula(self, params):
        a = params.alpha
        weight = a / params.log_norm
        stay = 1.0 - a
        drift = log_mixture_mechanism(params).drift
        grid = [0.0, 5e-324, 1e-300, 1e-12, 1e-6] + np.linspace(0.0, 1.0, 97).tolist()
        for g in grid:
            assert drift(g) == -weight * (stay + a * g) * math.log1p(a * g / stay)


class TestImplicitSolution:
    def test_time_zero_is_exact(self, params_half):
        tp = params_half.at(0.0)
        assert abs(check_implicit_solution(params_half, tp, 0.4)) < 1e-14

    def test_rejects_s_at_one(self, params_half):
        with pytest.raises(DomainError):
            check_implicit_solution(params_half, params_half.at(1.0), 1.0)


class TestConditionalLimits:
    def test_linear_limit_is_degenerate(self):
        ratios = numeric_conditional_limit(_LINEAR)
        assert np.max(np.abs(ratios - np.linspace(0.0, 1.0, 6))) < 1e-9

    def test_endpoints(self):
        ratios = numeric_conditional_limit(_BINARY)
        assert ratios[0] == pytest.approx(0.0, abs=1e-12)
        assert ratios[-1] == pytest.approx(1.0, abs=1e-12)

    def test_precision_loss_signalled(self):
        # G' = -G here, so survival is about 1e-30 by the time the mean 0.9
        # decays to the target
        dead = Mechanism("dead", 0.9, drift=lambda g: -g, limit_pgf=lambda s: s)
        with pytest.raises(PrecisionLoss):
            numeric_conditional_limit(dead)

    @pytest.mark.parametrize("factory", [
        # alpha 1e-17 is in the domain, but its offspring mean rounds to 1.0
        lambda: log_mixture_mechanism(ModelParams(1e-17, 1.0)),
        lambda: replace(_GEOMETRIC, mean=1.0),
        lambda: replace(_GEOMETRIC, mean=1.5),
        lambda: replace(_GEOMETRIC, mean=math.nan),
        lambda: replace(_GEOMETRIC, mean=-0.5),
    ])
    def test_unreachable_mean_target_rejected(self, factory):
        with pytest.raises(DomainError, match="offspring mean"):
            numeric_conditional_limit(factory())

    @pytest.mark.parametrize("rate", [1e-3, 100.0, 1e3, 5e-324, 299696382678.86597,
                                      9.037402858744009e217, 6.607963999620991e307,
                                      1.7e308])
    def test_ratios_do_not_depend_on_rate(self, rate):
        # the backward ODE depends on t only through rate * t, so every
        # finite rate > 0, the least subnormal and the largest included,
        # gives the rate-1 ratios exactly
        reference = numeric_conditional_limit(log_mixture_mechanism(ModelParams(0.5, 1.0)))
        ratios = numeric_conditional_limit(log_mixture_mechanism(ModelParams(0.5, rate)))
        assert ratios == reference

    def test_unit_argument_takes_no_solve(self, monkeypatch):
        # G = 0 is a fixed point of every drift, so s = 1 needs no solve and
        # its ratio is exactly 1.0; s = 0 reuses the survival solve
        starts = []
        solve = verify.integrate_complement

        def counted(mech, g0, *args):
            starts.append(g0)
            return solve(mech, g0, *args)

        monkeypatch.setattr(verify, "integrate_complement", counted)
        for mech in standard_mechanisms():
            assert mech.drift(0.0) == 0.0
            starts.clear()
            assert numeric_conditional_limit(mech)[-1] == 1.0
            assert len(starts) == 5 and 0.0 not in starts

    def test_table_closed_forms_at_endpoints(self):
        for mech in standard_mechanisms():
            assert mech.limit_pgf(0.0) == pytest.approx(0.0, abs=1e-15)
            assert mech.limit_pgf(1.0) == pytest.approx(1.0, abs=1e-12)


class TestSuites:
    def test_pass_semantics(self):
        for result in run_suite("limit"):
            assert result.passed == (result.residual <= result.tolerance)

    def test_ode_reference_stays_accurate(self):
        # the row's bound is 1e-8; the step must keep the residual far below
        # it, so a coarser step cannot hide behind the bound
        (row,) = [r for r in ode_suite() if r.name == "rk4_vs_closed_form"]
        assert row.residual <= 1e-13

    def test_unknown_suite_rejected(self):
        with pytest.raises(DomainError):
            run_suite("bogus")


class TestSecondOrderTv:
    @pytest.mark.parametrize("alpha, mean", [(0.5, 1e-3), (0.77, 1e-2)])
    def test_expansion_at_fifty_digits(self, alpha, mean):
        # TV between ExtendedSibuya(M, alpha) and LogSeries(alpha), summed
        # term by term at 50 digits from their pmfs alone, against
        # alpha M/2 + alpha A M^2/12; the first dropped term is
        # -(alpha/A) x^4/720 with x = M A, so the gap lies within that bound
        # and above half of it
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            m = mpmath.mpf(mean)
            big_a = -mpmath.log1p(-a)
            survival_norm = -mpmath.expm1(-m * big_a)  # 1 - (1 - alpha)^M
            falling = m  # |[M]_n| / n!
            power = a
            total = mpmath.mpf(0)
            for n in range(1, 600):  # alpha^600 < 1e-68
                total += abs(power * falling / survival_norm - power / (n * big_a))
                falling *= (n - m) / (n + 1)
                power *= a
            gap = abs(total / 2 - (a * m / 2 + a * big_a * m**2 / 12))
            bound = (a / big_a) * (m * big_a) ** 4 / 720
            assert bound / 2 < gap <= bound

    def test_perturbed_constant_fails_the_row(self, monkeypatch):
        # the row must see a 1% error in the second-order constant
        monkeypatch.setattr(verify, "_TV_SECOND_ORDER", 1.01 / 12.0)
        (row,) = [r for r in limit_suite() if r.name == "tv_first_order_rate"]
        assert row.residual > row.tolerance


class TestThreeWayAgreement:
    def test_closed_form_ode_and_monte_carlo(self, big_sim, params_half):
        cfg, laws, _ = big_sim
        mech = log_mixture_mechanism(params_half)
        for law in laws:
            tp = params_half.at(law.time)
            for s in (0.0, 0.25, 0.5, 0.75, 0.9):
                exact = pgf_at(params_half, tp, s)
                ode = integrate_backward(mech, s, law.time, 1e-3).final
                assert abs(ode - exact) < 1e-8
                estimate = math.fsum(c * s**n for n, c in law.counts.items()) / cfg.replicates
                second_moment = pgf_at(params_half, tp, s * s)
                se = math.sqrt(max(second_moment - exact**2, 1e-20) / cfg.replicates)
                assert abs(estimate - exact) < 4 * se
