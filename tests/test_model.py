import math
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logbranch import (
    ALPHA_CRITICAL,
    DomainError,
    ModelParams,
    critical_alpha,
    infinitesimal_gen,
    offspring_pmf,
)
from logbranch.model import change_prob, changed_offspring_pmf

# mixture weights safely inside the admissible interval
alphas = st.floats(min_value=0.01, max_value=0.75)
rates = st.floats(min_value=0.05, max_value=10.0)
s_unit = st.floats(min_value=-1.0, max_value=1.0)


def _pgf_from_generator(params, s):
    # the reproduction pgf h(s) = s + f(s)/rate, read off the package's generator
    return s + infinitesimal_gen(params, s) / params.rate


def _plain_pgf(params, s):
    # h(s) = s + alpha (1 - alpha s) (1 + log(1 - alpha s) / A), the plain form
    # that the factored generator must reproduce
    a = params.alpha
    return s + a * (1.0 - a * s) * (1.0 + math.log(1.0 - a * s) / params.log_norm)


def _deficit(x):
    # the function whose root defines the critical weight
    return x * x * (1.0 + 1.0 / (-math.log1p(-x))) - 1.0


class TestCriticalAlpha:
    def test_value(self):
        # 6-digit reference from the model's source; true root is ~2e-6 above
        assert abs(critical_alpha() - 0.772638) < 1e-5
        assert abs(critical_alpha() - 0.7726399847546951) < 1e-11

    def test_root_residual(self):
        assert abs(_deficit(critical_alpha())) < 1e-10

    def test_bracket_values(self):
        # deficit+1 evaluated against independently computed references
        assert _deficit(0.5) + 1.0 == pytest.approx(0.61067376022224085, rel=1e-12)
        assert _deficit(0.9) + 1.0 == pytest.approx(1.1617785303416340, rel=1e-12)
        assert _deficit(0.5) < 0.0 < _deficit(0.9)

    def test_module_constant_matches(self):
        assert ALPHA_CRITICAL == critical_alpha()

    def test_unit_atom_vanishes_at_root(self):
        params = ModelParams(ALPHA_CRITICAL - 1e-6, 1.0)
        assert 0.0 < offspring_pmf(params, 1) < 1e-4


class TestModelParams:
    def test_derived_constants(self, params_half):
        assert params_half.log_norm == pytest.approx(0.69314718055994531, rel=1e-15)
        assert params_half.offspring_mean == pytest.approx(0.63932623977775915, rel=1e-15)
        assert params_half.malthusian_rate == pytest.approx(-0.36067376022224085, rel=1e-15)

    def test_rate_scales_decay(self):
        slow = ModelParams(0.4, 1.0)
        fast = ModelParams(0.4, 3.0)
        assert fast.malthusian_rate == pytest.approx(3.0 * slow.malthusian_rate, rel=1e-15)

    @pytest.mark.parametrize("alpha", [-0.1, 0.0, 0.7726400, 0.78, 0.9, 1.0, 1.5, float("nan")])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(DomainError):
            ModelParams(alpha, 1.0)

    def test_rejection_message_names_bound(self):
        with pytest.raises(DomainError, match="0.7726"):
            ModelParams(0.9, 1.0)

    def test_weight_just_below_root_is_admissible(self):
        # the admissible interval is open at the computed root, not at its
        # 6-digit rounding
        params = ModelParams(0.772638, 1.0)
        assert offspring_pmf(params, 1) > 0.0

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(DomainError):
            ModelParams(0.5, rate)

    def test_at_builds_time_point(self, params_half):
        tp = params_half.at(2.0)
        assert tp.t == 2.0
        assert tp.mean == pytest.approx(math.exp(2.0 * params_half.malthusian_rate), rel=1e-15)
        assert params_half.at(0.0).mean == 1.0

    def test_at_rejects_negative_time(self, params_half):
        with pytest.raises(DomainError):
            params_half.at(-0.5)

    @pytest.mark.parametrize("t", [float("inf"), float("nan")])
    def test_at_rejects_non_finite_time(self, params_half, t):
        # the check fires in at(), not later as a "mean must lie in (0, 1]"
        with pytest.raises(DomainError, match="time must be nonnegative and finite"):
            params_half.at(t)

    def test_at_rejects_underflowing_mean(self, params_half):
        # at alpha 0.5, M A leaves the normal range past t ~ 1963 and M
        # underflows to 0 past t ~ 2065; both raise, and the error names t,
        # not a mean outside (0, 1]
        for t in (1990.0, 2100.0):
            with pytest.raises(DomainError, match=rf"too small to resolve at t={t}"):
                params_half.at(t)
        assert params_half.at(1960.0).mean * params_half.log_norm >= sys.float_info.min


class TestOffspringPmf:
    def test_reference_values(self, params_half):
        assert offspring_pmf(params_half, 0) == 0.5
        assert offspring_pmf(params_half, 1) == pytest.approx(0.38932623977775915, rel=1e-15)
        assert offspring_pmf(params_half, 2) == pytest.approx(0.09016844005556021, rel=1e-15)

    def test_rejects_negative(self, params_half):
        with pytest.raises(DomainError):
            offspring_pmf(params_half, -1)

    # below 1/DBL_MAX the unit atom's 1/A overflows while alpha^2 underflows
    @pytest.mark.parametrize("alpha", [1e-310, 5e-324])
    def test_subnormal_weight_is_finite(self, alpha):
        params = ModelParams(alpha, 1.0)
        probs = [offspring_pmf(params, n) for n in range(5)]
        assert all(map(math.isfinite, probs))
        assert probs[1] == 1.0
        assert math.fsum(probs) == 1.0

    @given(alpha=alphas)
    @settings(max_examples=60, deadline=None)
    def test_normalizes(self, alpha):
        params = ModelParams(alpha, 1.0)
        head = math.fsum(offspring_pmf(params, n) for n in range(200))
        tail = offspring_pmf(params, 199) * alpha / (1.0 - alpha)
        assert head <= 1.0 + 1e-12
        assert abs(1.0 - head) <= tail + 1e-12

    @given(alpha=alphas, n=st.integers(min_value=0, max_value=60))
    @settings(max_examples=80, deadline=None)
    def test_nonnegative(self, alpha, n):
        assert offspring_pmf(ModelParams(alpha, 1.0), n) >= 0.0

    @given(alpha=alphas)
    @settings(max_examples=40, deadline=None)
    def test_mean_matches_series(self, alpha):
        params = ModelParams(alpha, 1.0)
        series = math.fsum(n * offspring_pmf(params, n) for n in range(1, 400))
        assert series == pytest.approx(params.offspring_mean, rel=1e-10)


# the weights the event clock of the simulator is checked at, from the least
# subnormal to the last float below the critical weight
_CLOCK_ALPHAS = [5e-324, 1e-300, 1e-8, 0.05, 0.5, math.nextafter(ALPHA_CRITICAL, 0.0)]


def _close(value, exact):
    # to 4 ulps in the normal range, and to one step of the subnormal grid
    # below it
    return abs(value - exact) <= max(4 * sys.float_info.epsilon * exact, 5e-324)


class TestChangedOffspringPmf:
    """q = P(eta != 1) and the law given eta != 1, which the simulator draws
    at its count-changing events, against 50-digit mpmath."""

    @staticmethod
    def _exact(alpha, n_max):
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            a_const = -mpmath.log1p(-a)
            q = a * a * (1 + 1 / a_const)
            probs = [a / q, mpmath.mpf(0)]
            probs += [a / a_const * a**n / (n * (n - 1)) / q for n in range(2, n_max + 1)]
            return float(q), [float(p) for p in probs]

    @pytest.mark.parametrize("alpha", _CLOCK_ALPHAS)
    def test_matches_mpmath(self, alpha):
        params = ModelParams(alpha, 1.0)
        q, probs = self._exact(alpha, 60)
        assert _close(change_prob(params), q)
        assert 0.0 < change_prob(params) <= 1.0
        for n, exact in enumerate(probs):
            assert _close(changed_offspring_pmf(params, n), exact), n

    @pytest.mark.parametrize("alpha", _CLOCK_ALPHAS)
    def test_normalizes(self, alpha):
        # the terms past 400 sum to less than alpha^400 / (1 - alpha)
        params = ModelParams(alpha, 1.0)
        total = math.fsum(changed_offspring_pmf(params, n) for n in range(400))
        assert total == pytest.approx(1.0, abs=4e-16)

    @pytest.mark.parametrize("alpha", [1e-8, 0.05, 0.5])
    def test_is_offspring_law_given_change(self, alpha):
        params = ModelParams(alpha, 1.0)
        q = change_prob(params)
        assert offspring_pmf(params, 1) == 1.0 - q
        for n in (0, 2, 3, 10):
            assert changed_offspring_pmf(params, n) == pytest.approx(
                offspring_pmf(params, n) / q, rel=1e-14)

    def test_rejects_negative(self, params_half):
        with pytest.raises(DomainError):
            changed_offspring_pmf(params_half, -1)


class TestReproductionPgf:
    def test_at_zero_and_one(self, params_half):
        assert _pgf_from_generator(params_half, 0.0) == pytest.approx(0.5, rel=1e-14)
        assert _pgf_from_generator(params_half, 1.0) == 1.0

    @given(alpha=alphas, s=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_matches_series(self, alpha, s):
        params = ModelParams(alpha, 1.0)
        series = math.fsum(offspring_pmf(params, n) * s**n for n in range(400))
        assert _pgf_from_generator(params, s) == pytest.approx(series, abs=1e-10)

    def test_derivative_at_one_is_mean(self, params_half):
        # one-sided difference, Richardson-extrapolated to O(h^2)
        h = 1e-7
        d_h = (_pgf_from_generator(params_half, 1.0) - _pgf_from_generator(params_half, 1.0 - h)) / h
        d_half = (_pgf_from_generator(params_half, 1.0) - _pgf_from_generator(params_half, 1.0 - h / 2)) / (h / 2)
        extrapolated = 2.0 * d_half - d_h
        assert extrapolated == pytest.approx(params_half.offspring_mean, abs=1e-6)

    def test_monotone_and_convex(self, params_half):
        grid = [i / 50 for i in range(51)]
        values = [_pgf_from_generator(params_half, s) for s in grid]
        first = [b - a for a, b in zip(values, values[1:])]
        assert all(d >= -1e-12 for d in first)
        second = [b - a for a, b in zip(first, first[1:])]
        assert all(d >= -1e-10 for d in second)

    def test_rejects_outside_unit_interval(self, params_half):
        with pytest.raises(DomainError):
            _pgf_from_generator(params_half, 1.5)


class TestInfinitesimalGen:
    def test_fixed_point_at_one(self, params_half):
        assert infinitesimal_gen(params_half, 1.0) == 0.0

    def test_value_at_zero(self, params_half):
        # f(0) = rate * (h(0) - 0) = rate * alpha
        assert infinitesimal_gen(params_half, 0.0) == pytest.approx(0.5, rel=1e-14)

    @given(alpha=alphas, rate=rates, s=s_unit)
    @settings(max_examples=200, deadline=None)
    def test_factored_form_matches_definition(self, alpha, rate, s):
        params = ModelParams(alpha, rate)
        direct = rate * (_plain_pgf(params, s) - s)
        assert abs(infinitesimal_gen(params, s) - direct) < 1e-12

    def test_slope_at_one(self, params_half):
        h = 1e-7
        d_h = (infinitesimal_gen(params_half, 1.0) - infinitesimal_gen(params_half, 1.0 - h)) / h
        d_half = (infinitesimal_gen(params_half, 1.0) - infinitesimal_gen(params_half, 1.0 - h / 2)) / (h / 2)
        assert 2.0 * d_half - d_h == pytest.approx(params_half.malthusian_rate, abs=1e-6)

    @given(alpha=alphas, s=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_below_one(self, alpha, s):
        # subcritical drift pushes the pgf flow up toward 1
        assert infinitesimal_gen(ModelParams(alpha, 1.0), s) >= 0.0

    @pytest.mark.parametrize("alpha, s", [(0.5, -1.0), (0.77, -0.5)])
    def test_raises_past_float_range(self, alpha, s):
        # f(s) is about 2.0e308 and 2.2e308 here, past the largest float
        with pytest.raises(OverflowError, match="float range"):
            infinitesimal_gen(ModelParams(alpha, 1.7e308), s)

    @pytest.mark.parametrize("alpha", [0.15, 0.3])
    def test_finite_where_leading_product_overflows(self, alpha):
        # rate alpha/A (1 - alpha s) overflows at s = -1, but f(-1) is
        # 5.5e307 and 1.2e308, so the value must still come back finite
        rate = 1.7e308
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            exact = (rate * a / -mpmath.log1p(-a) * (1 + a)
                     * mpmath.log1p(2 * a / (1 - a)))
            assert infinitesimal_gen(ModelParams(alpha, rate), -1.0) == pytest.approx(
                float(exact), rel=1e-14)
