import math

import numpy as np
import pytest

from logbranch import (
    DomainError,
    ModelParams,
    NumericalDivergence,
    PrecisionLoss,
    binary_mechanism,
    check_implicit_solution,
    convergence_order,
    geometric_mechanism,
    integrate_backward,
    integrate_complement,
    linear_mechanism,
    log_mixture_mechanism,
    numeric_conditional_limit,
    pgf_at,
    reproduction_pgf,
    run_suite,
    standard_mechanisms,
    survival_prob,
)
from logbranch.verify import Mechanism


class TestMechanisms:
    def test_log_mixture_pgf_matches_model(self, params_half):
        mech = log_mixture_mechanism(params_half)
        for s in np.linspace(0.0, 1.0, 41):
            assert mech.pgf(float(s)) == pytest.approx(
                reproduction_pgf(params_half, float(s)), abs=1e-15)

    @pytest.mark.parametrize("factory", [
        lambda: log_mixture_mechanism(ModelParams(0.5, 1.0)),
        lambda: geometric_mechanism(0.5),
        lambda: binary_mechanism(m=0.5),
        lambda: linear_mechanism(0.5),
    ])
    def test_complement_is_reflected_pgf(self, factory):
        mech = factory()
        for g in np.linspace(0.0, 1.0, 41):
            direct = 1.0 - mech.pgf(1.0 - float(g))
            assert mech.complement(float(g)) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("factory", [
        lambda: geometric_mechanism(0.5),
        lambda: binary_mechanism(m=0.5),
        lambda: linear_mechanism(0.5),
    ])
    def test_pgf_mean_consistent(self, factory):
        # h'(1) recovered by one-sided Richardson difference
        mech = factory()
        h = 1e-7
        d_h = (mech.pgf(1.0) - mech.pgf(1.0 - h)) / h
        d_half = (mech.pgf(1.0) - mech.pgf(1.0 - h / 2)) / (h / 2)
        assert 2.0 * d_half - d_h == pytest.approx(mech.mean, abs=1e-6)

    def test_binary_parameterizations_agree(self):
        by_mean = binary_mechanism(m=0.5)
        by_rho = binary_mechanism(rho=1.0 / 3.0)
        for s in (0.0, 0.3, 0.9, 1.0):
            assert by_mean.pgf(s) == pytest.approx(by_rho.pgf(s), rel=1e-12)
            assert by_mean.limit_pgf(s) == pytest.approx(by_rho.limit_pgf(s), rel=1e-12)

    def test_binary_requires_exactly_one_parameter(self):
        with pytest.raises(DomainError):
            binary_mechanism()
        with pytest.raises(DomainError):
            binary_mechanism(m=0.5, rho=0.3)

    @pytest.mark.parametrize("factory", [
        lambda: geometric_mechanism(0.0),
        lambda: geometric_mechanism(1.0),
        lambda: linear_mechanism(1.2),
        lambda: binary_mechanism(m=-0.1),
        lambda: geometric_mechanism(0.5, rate=0.0),
        lambda: geometric_mechanism(0.5, rate=math.inf),
        lambda: geometric_mechanism(0.5, rate=math.nan),
        lambda: binary_mechanism(m=0.5, rate=math.inf),
        lambda: binary_mechanism(m=0.5, rate=math.nan),
        lambda: linear_mechanism(0.5, rate=math.inf),
        lambda: linear_mechanism(0.5, rate=math.nan),
    ])
    def test_rejects_bad_parameters(self, factory):
        with pytest.raises(DomainError):
            factory()

    def test_time_to_mean(self):
        mech = geometric_mechanism(0.5, rate=2.0)
        t = mech.time_to_mean(1e-3)
        assert math.exp(mech.malthusian_rate * t) == pytest.approx(1e-3, rel=1e-12)
        with pytest.raises(DomainError):
            mech.time_to_mean(1.5)

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

    def test_divergence_guard(self):
        runaway = Mechanism("runaway", 1.0, 0.5,
                            pgf=lambda s: 1.5,
                            complement=lambda g: -0.5,
                            limit_pgf=lambda s: s)
        with pytest.raises(NumericalDivergence):
            integrate_backward(runaway, 0.9, 5.0, 0.01)

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

    def test_conditional_limit_rejects_infinite_step(self, params_half):
        mech = log_mixture_mechanism(params_half)
        with pytest.raises(DomainError):
            numeric_conditional_limit(mech, [0.5], step=math.inf)

    def test_complement_agrees_with_direct(self, params_half):
        mech = log_mixture_mechanism(params_half)
        direct = integrate_backward(mech, 0.3, 2.0, 1e-3).final
        complement = integrate_complement(mech, 0.7, 2.0, 1e-3).final
        assert direct + complement == pytest.approx(1.0, abs=1e-10)

    def test_complement_keeps_relative_precision(self, params_half):
        # survival ~ 5e-7 here; the complement path must track it to 1e-8
        mech = log_mixture_mechanism(params_half)
        t_end = mech.time_to_mean(1e-6)
        survival_ode = integrate_complement(mech, 1.0, t_end, 0.01).final
        exact = survival_prob(params_half, params_half.at(t_end))
        assert survival_ode == pytest.approx(exact, rel=1e-8)

    def test_convergence_order(self, params_half):
        mech = log_mixture_mechanism(params_half)
        reference = pgf_at(params_half, params_half.at(2.0), 0.2)
        order = convergence_order(mech, reference, 0.2, 2.0, 0.05)
        assert 3.7 < order < 4.3


class TestImplicitSolution:
    def test_residual_small_on_grid(self, params_half):
        worst = 0.0
        for t in np.linspace(0.1, 5.0, 10):
            tp = params_half.at(float(t))
            for s in np.linspace(0.0, 1.0 - 1e-6, 10):
                worst = max(worst, abs(check_implicit_solution(params_half, tp, float(s))))
        assert worst < 1e-10

    def test_time_zero_is_exact(self, params_half):
        tp = params_half.at(0.0)
        assert abs(check_implicit_solution(params_half, tp, 0.4)) < 1e-14

    def test_rejects_s_at_one(self, params_half):
        with pytest.raises(DomainError):
            check_implicit_solution(params_half, params_half.at(1.0), 1.0)


class TestConditionalLimits:
    def test_linear_limit_is_degenerate(self):
        mech = linear_mechanism(0.5)
        s_grid = np.linspace(0.0, 1.0, 5)
        ratios = numeric_conditional_limit(mech, s_grid, 1e-3)
        assert np.max(np.abs(ratios - s_grid)) < 1e-9

    def test_geometric_limit_close_at_coarse_target(self):
        mech = geometric_mechanism(0.5)
        s_grid = np.linspace(0.0, 1.0, 5)
        ratios = numeric_conditional_limit(mech, s_grid, 1e-2)
        exact = np.array([mech.limit_pgf(float(s)) for s in s_grid])
        assert np.max(np.abs(ratios - exact)) < 1e-3

    def test_endpoints(self):
        mech = binary_mechanism(m=0.5)
        ratios = numeric_conditional_limit(mech, (0.0, 1.0), 1e-3)
        assert ratios[0] == pytest.approx(0.0, abs=1e-12)
        assert ratios[1] == pytest.approx(1.0, abs=1e-12)

    def test_precision_loss_signalled(self):
        mech = geometric_mechanism(0.5)
        with pytest.raises(PrecisionLoss):
            numeric_conditional_limit(mech, (0.5,), 1e-12)

    def test_grid_validation(self):
        mech = geometric_mechanism(0.5)
        with pytest.raises(DomainError):
            numeric_conditional_limit(mech, (1.5,), 1e-2)

    def test_table_closed_forms_at_endpoints(self):
        for mech in standard_mechanisms():
            assert mech.limit_pgf(0.0) == pytest.approx(0.0, abs=1e-15)
            assert mech.limit_pgf(1.0) == pytest.approx(1.0, abs=1e-12)


class TestSuites:
    def test_all_suites_pass(self):
        results = run_suite("all")
        assert len(results) >= 15
        failures = [r for r in results if not r.passed]
        assert failures == []

    def test_pass_semantics(self):
        for result in run_suite("limit"):
            assert result.passed == (result.residual <= result.tolerance)

    def test_unknown_suite_rejected(self):
        with pytest.raises(DomainError):
            run_suite("bogus")


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
