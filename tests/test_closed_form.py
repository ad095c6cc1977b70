import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from logbranch import (
    DomainError,
    ExtendedSibuya,
    LogSeries,
    ModelParams,
    PrecisionLoss,
    conditional_family,
    conditional_law_at,
    conditional_pmf,
    extinction_prob,
    factorial_moment,
    law_at,
    limit_law,
    limit_law_factorial_moment,
    limit_law_pmf,
    pgf_at,
    pgf_complement,
    pmf,
    survival_prob,
    tv_distance,
)
from logbranch.closed_form import _build_law
from logbranch.distributions import _log_falling_mean
from logbranch.model import infinitesimal_gen

alphas = st.floats(min_value=0.01, max_value=0.75)
times = st.floats(min_value=0.01, max_value=8.0)
s_unit = st.floats(min_value=0.0, max_value=1.0)


def _raw_pgf(params, mean, s):
    # direct formula transcription, valid for s < 1/alpha; used as an
    # independent base for finite-difference oracles beyond s = 1
    a = params.alpha
    return 1.0 - ((1.0 - a) / a) * math.expm1(mean * math.log1p(a * (1.0 - s) / (1.0 - a)))


def _richardson_derivative(f, s, n, h):
    # nth central difference extrapolated from h and h/2 (leaves O(h^4))
    def diff(step):
        total = 0.0
        for k in range(n + 1):
            total += (-1) ** k * math.comb(n, k) * f(s + (n / 2 - k) * step)
        return total / step**n

    return (4.0 * diff(h / 2) - diff(h)) / 3.0


def _pgf_dt(params, tp, s):
    # exact time derivative of F(t, s): with M' = malthusian_rate * M,
    # d/dt F = rate (alpha/A) (1 - alpha) M R(s)^M log R(s)
    a = params.alpha
    log_r = math.log1p(a * (1.0 - s) / (1.0 - a))
    power = math.exp(tp.mean * log_r)
    return (params.rate * a / params.log_norm) * (1.0 - a) * tp.mean * power * log_r


def _pgf_ds(params, tp, s):
    # exact s-derivative of F(t, s): M R(s)^(M - 1)
    a = params.alpha
    return tp.mean * math.exp((tp.mean - 1.0) * math.log1p(a * (1.0 - s) / (1.0 - a)))


class TestGeneratingFunction:
    def test_reference_value(self, params_half):
        tp = params_half.at(1.0)
        assert pgf_at(params_half, tp, 0.0) == pytest.approx(0.37863779565948423, rel=1e-13)

    def test_one_is_fixed(self, params_half):
        for t in (0.0, 0.3, 1.0, 7.5):
            assert pgf_at(params_half, params_half.at(t), 1.0) == 1.0

    @given(alpha=alphas, s=s_unit)
    @settings(max_examples=100, deadline=None)
    def test_time_zero_is_identity(self, alpha, s):
        params = ModelParams(alpha, 1.0)
        assert abs(pgf_at(params, params.at(0.0), s) - s) < 1e-12

    @given(alpha=alphas, t=times, u=times, s=s_unit)
    @settings(max_examples=200, deadline=None)
    def test_semigroup_composition(self, alpha, t, u, s):
        params = ModelParams(alpha, 1.0)
        inner = pgf_at(params, params.at(u), s)
        assert abs(pgf_at(params, params.at(t), inner)
                   - pgf_at(params, params.at(t + u), s)) < 1e-12

    @given(alpha=alphas, t=times, s=s_unit)
    @settings(max_examples=150, deadline=None)
    def test_complement_is_exact(self, alpha, t, s):
        params = ModelParams(alpha, 1.0)
        tp = params.at(t)
        assert pgf_at(params, tp, s) + pgf_complement(params, tp, s) == 1.0

    def test_matches_pmf_series(self, params_half):
        tp = params_half.at(1.0)
        law = law_at(params_half, tp)
        for s in (0.25, 0.5, 0.9):
            series = math.fsum(p * s**n for n, p in enumerate(law.probs))
            assert pgf_at(params_half, tp, s) == pytest.approx(series, abs=1e-10)

    def test_rejects_outside_unit_disk(self, params_half):
        with pytest.raises(DomainError):
            pgf_at(params_half, params_half.at(1.0), 1.0001)

    def test_backward_equation(self, params_half):
        # dF/dt computed exactly must equal f(F)
        for t in (0.2, 1.0, 3.0):
            tp = params_half.at(t)
            for s in (0.0, 0.4, 0.8, 1.0):
                lhs = _pgf_dt(params_half, tp, s)
                rhs = infinitesimal_gen(params_half, pgf_at(params_half, tp, s))
                assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_forward_equation(self, params_half):
        # dF/dt = f(s) dF/ds with the exact derivatives
        for t in (0.2, 1.0, 3.0):
            tp = params_half.at(t)
            for s in (0.0, 0.4, 0.8):
                lhs = _pgf_dt(params_half, tp, s)
                rhs = infinitesimal_gen(params_half, s) * _pgf_ds(params_half, tp, s)
                assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_s_derivative_matches_difference(self, params_half):
        tp = params_half.at(1.0)
        h = 1e-6
        for s in (0.1, 0.5, 0.9):
            fd = (pgf_at(params_half, tp, s + h) - pgf_at(params_half, tp, s - h)) / (2 * h)
            assert _pgf_ds(params_half, tp, s) == pytest.approx(fd, rel=1e-8)


class TestExtinctionSurvival:
    def test_reference_value(self, params_half):
        tp = params_half.at(1.0)
        assert survival_prob(params_half, tp) == pytest.approx(0.62136220434051577, rel=1e-13)

    def test_at_time_zero(self, params_half):
        tp = params_half.at(0.0)
        assert extinction_prob(params_half, tp) == 0.0
        assert survival_prob(params_half, tp) == 1.0

    def test_eventual_extinction(self, params_half):
        assert extinction_prob(params_half, params_half.at(100.0)) == pytest.approx(1.0, abs=1e-6)

    @given(alpha=alphas, t=times)
    @settings(max_examples=100, deadline=None)
    def test_complementary(self, alpha, t):
        params = ModelParams(alpha, 1.0)
        tp = params.at(t)
        assert extinction_prob(params, tp) + survival_prob(params, tp) == 1.0

    @given(alpha=alphas)
    @settings(max_examples=60, deadline=None)
    def test_small_mean_first_order(self, alpha):
        # survival ~ ((1-alpha)/alpha) A M as M -> 0
        params = ModelParams(alpha, 1.0)
        t = math.log(1e-8) / params.malthusian_rate
        tp = params.at(t)
        first_order = ((1.0 - alpha) / alpha) * params.log_norm * tp.mean
        assert survival_prob(params, tp) == pytest.approx(first_order, rel=1e-6)

    def test_survival_decreasing_in_time(self, params_half):
        values = [survival_prob(params_half, params_half.at(t))
                  for t in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestPmf:
    def test_reference_value(self, params_half):
        tp = params_half.at(1.0)
        assert pmf(params_half, tp, 1) == pytest.approx(0.56521206725068787, rel=1e-13)

    def test_zero_matches_extinction(self, params_half):
        tp = params_half.at(1.7)
        assert pmf(params_half, tp, 0) == extinction_prob(params_half, tp)

    def test_time_zero_degenerate(self, params_half):
        tp = params_half.at(0.0)
        assert pmf(params_half, tp, 1) == 1.0
        assert pmf(params_half, tp, 0) == 0.0
        assert pmf(params_half, tp, 5) == 0.0

    def test_positive_through_200(self, params_half):
        tp = params_half.at(1.0)
        assert all(pmf(params_half, tp, n) > 0.0 for n in range(1, 201))

    def test_matches_taylor_coefficients(self, params_half):
        # independent oracle: n-th derivative of the raw pgf at s = 0 over n!
        tp = params_half.at(1.0)
        f = lambda s: _raw_pgf(params_half, tp.mean, s)
        for n in range(1, 5):
            coefficient = _richardson_derivative(f, 0.0, n, 0.05) / math.factorial(n)
            assert pmf(params_half, tp, n) == pytest.approx(coefficient, rel=1e-3)

    @given(alpha=alphas, t=times, n=st.integers(min_value=1, max_value=80))
    @settings(max_examples=150, deadline=None)
    def test_ratio_certificate(self, alpha, t, n):
        # pmf(n+1)/pmf(n) = alpha (n - M)/(n + 1) <= alpha, the tail bound
        params = ModelParams(alpha, 1.0)
        tp = params.at(t)
        p_n = pmf(params, tp, n)
        expected = alpha * (n - tp.mean) / (n + 1.0)
        assert pmf(params, tp, n + 1) == pytest.approx(p_n * expected, rel=1e-10)
        assert pmf(params, tp, n + 1) <= alpha * p_n * (1.0 + 1e-12)

    @given(alpha=alphas, t=times)
    @settings(max_examples=60, deadline=None)
    def test_law_normalizes(self, alpha, t):
        params = ModelParams(alpha, 1.0)
        law = law_at(params, params.at(t))
        assert law.total_mass() == pytest.approx(1.0, abs=1e-10)
        assert law.tail_mass < 1e-12
        assert all(0.0 <= p <= 1.0 for p in law.probs)

    def test_rejects_negative_n(self, params_half):
        with pytest.raises(DomainError):
            pmf(params_half, params_half.at(1.0), -1)

    def test_table_that_cannot_converge_raises_typed_error(self, params_half):
        tp = params_half.at(1.0)
        with pytest.raises(PrecisionLoss, match="within 5 terms"):
            _build_law(lambda n: pmf(params_half, tp, n), 0, params_half.alpha,
                       1e-12, max_terms=5)


MIN_NORMAL = sys.float_info.min
MAX_FLOAT = sys.float_info.max


def _term_rel_bound(n):
    # the same bound the benchmark holds pmf rows to; fixed, not tuned
    return 1e-13 * (n + 20)


def _reference_terms(alpha, mean, nmax):
    """50-digit pmf, conditional pmf, factorial moment and conditional
    factorial moment for n = 1..nmax, from the ratio recurrences

        term(n + 1) = term(n) * alpha (n - M) / (n + 1)   (pmf, conditional pmf)
        term(n + 1) = term(n) * (alpha/(1-alpha)) (n - M)  (factorial moments)

    at the float mean M, so only the term evaluation is under test.
    """
    with mp.workdps(50):
        a, m = mp.mpf(alpha), mp.mpf(mean)
        odds = a / (1 - a)
        keep = (1 - a) ** m
        terms = [((1 - a) ** (1 - m) * m, a * m / (1 - keep),
                  m, odds * keep * m / (1 - keep))]
        for n in range(1, nmax):
            p, c, f, g = terms[-1]
            q = a * (n - m) / (n + 1)
            r = odds * (n - m)
            terms.append((p * q, c * q, f * r, g * r))
        return terms


def _check_term(term, ref, n):
    """Call term() and hold it to the bound; past float range it must raise."""
    if ref > MAX_FLOAT * (1.0 + 1e-9):
        with pytest.raises(OverflowError):
            term()
        return
    if ref > MAX_FLOAT * (1.0 - 1e-9):
        return  # on the float-range edge either outcome is right
    value = term()
    if abs(ref) >= MIN_NORMAL:
        assert abs(value - ref) <= _term_rel_bound(n) * abs(ref), (n, value, ref)
    else:
        assert abs(value - ref) <= MIN_NORMAL, (n, value, ref)


TERMS = (pmf, conditional_pmf, factorial_moment,
         lambda p, tp, n: conditional_family(p, tp).factorial_moment(n))


def _check_terms(params, tp, n, refs):
    for term, ref in zip(TERMS, refs):
        _check_term(lambda: term(params, tp, n), ref, n)


class TestTermPrecision:
    """pmf and factorial-moment terms against a 50-digit oracle."""

    NMAX = 4000

    @pytest.mark.parametrize("alpha", [0.06, 0.3, 0.5, 0.74])
    @pytest.mark.parametrize("t", [0.01, 1.0, 50.0])
    def test_terms_match_recurrence(self, alpha, t):
        params = ModelParams(alpha, 1.0)
        tp = params.at(t)
        reference = _reference_terms(alpha, tp.mean, self.NMAX)
        for n, refs in enumerate(reference, start=1):
            _check_terms(params, tp, n, refs)

    @pytest.mark.parametrize("t", [1e-15, 1e-12, 1e-6])
    def test_mean_just_below_one(self, params_half, t):
        # 1 - M spans a few ulps to 1e-7: Gamma(1 - M) sits next to its pole
        tp = params_half.at(t)
        assert tp.mean < 1.0
        reference = _reference_terms(0.5, tp.mean, 300)
        for n, refs in enumerate(reference, start=1):
            _check_terms(params_half, tp, n, refs)

    def test_term_at_one_million(self):
        n = 10**6
        params = ModelParams(0.74, 1.0)
        tp = params.at(0.01)
        with mp.workdps(50):
            a, m = mp.mpf(params.alpha), mp.mpf(tp.mean)
            # |[M]_n| = M (1 - M) ... (n - 1 - M), the telescoped recurrence
            log_ff = mp.log(m * mp.rf(1 - m, n - 1))
            log_p = (1 - m) * mp.log1p(-a) + n * mp.log(a) + log_ff - mp.loggamma(n + 1)
            p = mp.exp(log_p)
            c = p / (1 - (1 - a) ** m)
            assert abs(_log_falling_mean(tp.mean, n) - log_ff) <= _term_rel_bound(n)
        _check_terms(params, tp, n, (p, c, mp.inf, mp.inf))

    # at 0.06 and 0.25 the general log-space assembly misses 1.0 by an ulp
    @pytest.mark.parametrize("alpha", [0.06, 0.25, 0.5])
    def test_unit_atom_where_mean_rounds_to_one(self, alpha):
        params = ModelParams(alpha, 1.0)
        tp = params.at(1e-18)
        assert tp.t > 0.0 and tp.mean == 1.0
        assert pmf(params, tp, 1) == 1.0
        assert conditional_pmf(params, tp, 1) == 1.0
        for n in (0, 2, 3, 1000):
            assert pmf(params, tp, n) == 0.0
        for n in (2, 3, 1000):
            assert conditional_pmf(params, tp, n) == 0.0
            assert factorial_moment(params, tp, n) == 0.0
            assert conditional_family(params, tp).factorial_moment(n) == 0.0
        assert factorial_moment(params, tp, 1) == pytest.approx(1.0, rel=1e-15)
        assert law_at(params, tp) == law_at(params, params.at(0.0))


def _reference_family_terms(gamma, b, nmax):
    """50-digit ExtendedSibuya(gamma, b) pmf and factorial moment for
    n = 1..nmax, from

        term(n + 1) = term(n) * b (n - gamma) / (n + 1)      (pmf)
        term(n + 1) = term(n) * (b/(1-b)) (n - gamma)        (factorial moment)

    at the float gamma and b, so only the term evaluation is under test.
    """
    with mp.workdps(50):
        g, b = mp.mpf(gamma), mp.mpf(b)
        odds = b / (1 - b)
        keep = (1 - b) ** g
        terms = [(g * b / (1 - keep), odds * keep * g / (1 - keep))]
        for n in range(1, nmax):
            c, f = terms[-1]
            terms.append((c * b * (n - g) / (n + 1), f * odds * (n - g)))
        return terms


def _check_family_terms(gamma, b, n, refs):
    law = ExtendedSibuya(gamma, b)
    for term, ref in zip((law.pmf, law.factorial_moment), refs):
        _check_term(lambda: term(n), ref, n)


class TestFamilyTermPrecision:
    """The ExtendedSibuya terms that the conditional law is evaluated
    through, against a 50-digit oracle at the bound of TestTermPrecision."""

    @pytest.mark.parametrize("gamma", [1e-8, 0.05, 0.3, 0.5, 0.77, 1.0 - 1e-12])
    @pytest.mark.parametrize("b", [0.06, 0.5, 0.9, 0.99])
    def test_terms_match_recurrence(self, gamma, b):
        reference = _reference_family_terms(gamma, b, TestTermPrecision.NMAX)
        for n, refs in enumerate(reference, start=1):
            _check_family_terms(gamma, b, n, refs)

    @pytest.mark.parametrize("gamma,b", [(0.05, 0.99), (0.5, 0.9), (0.77, 0.5)])
    def test_term_at_one_million(self, gamma, b):
        n = 10**6
        with mp.workdps(50):
            g, bm = mp.mpf(gamma), mp.mpf(b)
            # |[gamma]_n| = gamma (1 - gamma) ... (n - 1 - gamma)
            falling = g * mp.rf(1 - g, n - 1)
            norm = 1 - (1 - bm) ** g
            extended = bm**n * falling / (mp.factorial(n) * norm)
            moment = (bm / (1 - bm)) ** n * (1 - bm) ** g * falling / norm
        _check_family_terms(gamma, b, n, (extended, moment))


class TestFactorialMoments:
    def test_first_is_mean(self, params_half):
        for t in (0.0, 0.5, 2.0):
            tp = params_half.at(t)
            assert factorial_moment(params_half, tp, 1) == pytest.approx(tp.mean, rel=1e-12)

    def test_reference_second(self, params_half):
        tp = params_half.at(1.0)
        assert factorial_moment(params_half, tp, 2) == pytest.approx(0.21110962876467147, rel=1e-13)

    def test_time_zero_higher_orders_vanish(self, params_half):
        tp = params_half.at(0.0)
        assert factorial_moment(params_half, tp, 2) == 0.0
        assert factorial_moment(params_half, tp, 5) == 0.0

    def test_matches_richardson_difference(self, params_half):
        for t in (0.5, 1.0, 2.0):
            tp = params_half.at(t)
            f = lambda s: _raw_pgf(params_half, tp.mean, s)
            for n in range(1, 5):
                fd = _richardson_derivative(f, 1.0, n, 0.05)
                assert factorial_moment(params_half, tp, n) == pytest.approx(fd, rel=1e-4)

    def test_rejects_order_zero(self, params_half):
        with pytest.raises(DomainError):
            factorial_moment(params_half, params_half.at(1.0), 0)


class TestConditionalLaw:
    def test_reference_value_and_limit_gap(self, params_half):
        tp = params_half.at(10.0)
        value = conditional_pmf(params_half, tp, 1)
        assert value == pytest.approx(0.72815385517286032, rel=1e-13)
        # approaches the limit-law mass alpha/A at rate O(M(t))
        gap_10 = abs(value - limit_law_pmf(params_half, 1))
        assert gap_10 == pytest.approx(0.0068063347, rel=1e-5)
        assert gap_10 < tp.mean
        gap_16 = abs(conditional_pmf(params_half, params_half.at(16.0), 1)
                     - limit_law_pmf(params_half, 1))
        assert gap_16 < 1e-3

    @given(alpha=alphas, t=times)
    @settings(max_examples=60, deadline=None)
    def test_normalizes(self, alpha, t):
        params = ModelParams(alpha, 1.0)
        law = conditional_law_at(params, params.at(t))
        assert law.support_offset == 1
        assert law.total_mass() == pytest.approx(1.0, abs=1e-10)

    @given(alpha=alphas, t=times, n=st.integers(min_value=1, max_value=40))
    @settings(max_examples=150, deadline=None)
    def test_conditioning_identity(self, alpha, t, n):
        params = ModelParams(alpha, 1.0)
        tp = params.at(t)
        lhs = conditional_pmf(params, tp, n) * survival_prob(params, tp)
        assert lhs == pytest.approx(pmf(params, tp, n), rel=1e-12)

    @given(alpha=alphas, t=times, n=st.integers(min_value=1, max_value=12))
    @settings(max_examples=150, deadline=None)
    def test_moment_conditioning_identity(self, alpha, t, n):
        params = ModelParams(alpha, 1.0)
        tp = params.at(t)
        lhs = conditional_family(params, tp).factorial_moment(n) * survival_prob(params, tp)
        assert lhs == pytest.approx(factorial_moment(params, tp, n), rel=1e-12)

    def test_first_conditional_moment(self, params_half):
        tp = params_half.at(1.0)
        expected = tp.mean / survival_prob(params_half, tp)
        moment = conditional_family(params_half, tp).factorial_moment(1)
        assert moment == pytest.approx(expected, rel=1e-12)

    def test_requires_positive_time(self, params_half):
        tp = params_half.at(0.0)
        with pytest.raises(DomainError):
            conditional_pmf(params_half, tp, 1)
        with pytest.raises(DomainError):
            conditional_family(params_half, tp)

    def test_pgf_endpoints(self, params_half):
        law = conditional_family(params_half, params_half.at(1.3))
        assert law.pgf(0.0) == 0.0
        assert law.pgf(1.0) == 1.0

    def test_pgf_matches_series(self, params_half):
        tp = params_half.at(1.0)
        law = conditional_law_at(params_half, tp)
        family = conditional_family(params_half, tp)
        for s in (0.3, 0.7, 0.95):
            series = math.fsum(p * s ** (n + 1) for n, p in enumerate(law.probs))
            assert family.pgf(s) == pytest.approx(series, abs=1e-10)


class TestLimitLaw:
    def test_reference_values(self, params_half):
        assert limit_law_pmf(params_half, 1) == pytest.approx(0.72134752044448170, rel=1e-14)
        assert limit_law_factorial_moment(params_half, 1) == pytest.approx(1.4426950408889634, rel=1e-14)

    @given(alpha=alphas)
    @settings(max_examples=60, deadline=None)
    def test_normalizes(self, alpha):
        law = limit_law(ModelParams(alpha, 1.0))
        assert law.total_mass() == pytest.approx(1.0, abs=1e-10)

    def test_pgf_matches_series(self, params_half):
        law = limit_law(params_half)
        for s in (0.2, 0.7, 1.0):
            series = math.fsum(p * s ** (n + 1) for n, p in enumerate(law.probs))
            assert LogSeries(params_half.alpha).pgf(s) == pytest.approx(series, abs=1e-10)

    def test_moments_match_series(self):
        # brute-force E[[xi]_n] against the closed form at a light tail
        params = ModelParams(0.3, 1.0)
        for n in range(1, 5):
            # math.perm(k, n) is exactly the falling factorial [k]_n
            series = math.fsum(
                math.perm(k, n) * limit_law_pmf(params, k) for k in range(n, 300)
            )
            assert limit_law_factorial_moment(params, n) == pytest.approx(series, rel=1e-8)

    def test_moment_overflow(self, params_half):
        with pytest.raises(OverflowError):
            limit_law_factorial_moment(params_half, 300)

    def test_conditional_law_converges(self, params_half):
        # TV to the limit decreases along a doubling time grid and tracks M(t)
        tvs = []
        ratios = []
        limit_table = limit_law(params_half)
        for t in (1.0, 2.0, 4.0, 8.0, 16.0):
            tp = params_half.at(t)
            tv = tv_distance(conditional_law_at(params_half, tp), limit_table)
            tvs.append(tv)
            ratios.append(tv / tp.mean)
        assert tvs[0] == pytest.approx(0.18828628621920707, rel=1e-6)
        assert all(b < a for a, b in zip(tvs, tvs[1:]))
        assert max(ratios) / min(ratios) < 1.5

    def test_conditional_moments_converge(self, params_half):
        t = math.log(1e-4) / params_half.malthusian_rate
        tp = params_half.at(t)
        for n in range(1, 6):
            lim = limit_law_factorial_moment(params_half, n)
            cond = conditional_family(params_half, tp).factorial_moment(n)
            assert cond == pytest.approx(lim, rel=1e-2)
