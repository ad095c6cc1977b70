import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logbranch import (
    DomainError,
    ExtendedSibuya,
    InverseCdfSampler,
    LogSeries,
    ModelParams,
    limit_law_pmf,
    offspring_pmf,
    offspring_sampler,
    stream,
)

gammas = st.floats(min_value=0.05, max_value=0.95)
bs = st.floats(min_value=0.05, max_value=0.95)


def _sibuya_pmf_direct(gamma, n):
    # gamma * Gamma(n - gamma) / (Gamma(1 - gamma) Gamma(n + 1))
    return gamma * math.exp(
        math.lgamma(n - gamma) - math.lgamma(1.0 - gamma) - math.lgamma(n + 1.0)
    )


class TestStream:
    def test_reproducible(self):
        a = stream(123, 4).random(5)
        b = stream(123, 4).random(5)
        assert np.array_equal(a, b)

    def test_indices_independent(self):
        a = stream(123, 0).random(5)
        b = stream(123, 1).random(5)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,index", [(-1, 0), (2**64, 0), (0, -2), (0, 2**64)])
    def test_rejects_out_of_range(self, seed, index):
        with pytest.raises(DomainError):
            stream(seed, index)


class TestExtendedSibuya:
    def test_head_mass(self):
        gamma, b = 0.7, 0.5
        law = ExtendedSibuya(gamma, b)
        norm = -math.expm1(gamma * math.log1p(-b))
        assert law.pmf(1) == pytest.approx(gamma * b / norm, rel=1e-14)

    @given(gamma=gammas, b=bs, n=st.integers(min_value=1, max_value=50))
    @settings(max_examples=100, deadline=None)
    def test_scaled_sibuya_shape(self, gamma, b, n):
        # pmf proportional to b^n times the plain Sibuya pmf
        law = ExtendedSibuya(gamma, b)
        norm = -math.expm1(gamma * math.log1p(-b))
        expected = b**n * _sibuya_pmf_direct(gamma, n) / norm
        assert law.pmf(n) == pytest.approx(expected, rel=1e-11)

    def test_approaches_plain_sibuya(self):
        nearly = ExtendedSibuya(0.6, 1.0 - 1e-10)
        for n in range(1, 21):
            assert nearly.pmf(n) == pytest.approx(_sibuya_pmf_direct(0.6, n), rel=1e-6)

    @given(gamma=gammas, b=bs)
    @settings(max_examples=60, deadline=None)
    def test_normalizes(self, gamma, b):
        law = ExtendedSibuya(gamma, b)
        head = math.fsum(law.pmf(n) for n in range(1, 300))
        tail_bound = law.pmf(300) * b / (1.0 - b)
        assert abs(1.0 - head) <= tail_bound + 1e-10

    def test_pgf_endpoints_and_series(self):
        law = ExtendedSibuya(0.7, 0.5)
        assert law.pgf(0.0) == 0.0
        assert law.pgf(1.0) == 1.0
        s = 0.6
        series = math.fsum(law.pmf(n) * s**n for n in range(1, 200))
        assert law.pgf(s) == pytest.approx(series, rel=1e-12)

    def test_mean_matches_series(self):
        law = ExtendedSibuya(0.7, 0.5)
        # n pmf(n) decays geometrically: remainder under b (1 + 1/N) per step
        series = math.fsum(n * law.pmf(n) for n in range(1, 300))
        assert law.mean() == pytest.approx(series, rel=1e-10)

    def test_matches_conditional_law(self, params_half):
        # the process at time t conditioned on survival is exactly this family;
        # the other side is P(X(t) = n) / P(X(t) > 0) from the unconditional law
        from logbranch import pmf, survival_prob

        tp = params_half.at(1.0)
        law = ExtendedSibuya(tp.mean, params_half.alpha)
        survival = survival_prob(params_half, tp)
        for n in range(1, 30):
            assert law.pmf(n) == pytest.approx(
                pmf(params_half, tp, n) / survival, rel=1e-12)

    @pytest.mark.parametrize("gamma,b", [(0.5, 0.0), (0.5, 1.0), (0.0, 0.5), (1.0, 0.5)])
    def test_rejects_bad_params(self, gamma, b):
        with pytest.raises(DomainError):
            ExtendedSibuya(gamma, b)


class TestLogSeries:
    def test_matches_limit_law(self, params_half):
        law = LogSeries(0.5)
        for n in range(1, 40):
            assert law.pmf(n) == limit_law_pmf(params_half, n)

    @given(a=st.floats(min_value=0.05, max_value=0.9))
    @settings(max_examples=60, deadline=None)
    def test_normalizes(self, a):
        law = LogSeries(a)
        head = math.fsum(law.pmf(n) for n in range(1, 400))
        tail_bound = law.pmf(400) * a / (1.0 - a)
        assert abs(1.0 - head) <= tail_bound + 1e-10

    def test_mean(self):
        law = LogSeries(0.5)
        series = math.fsum(n * law.pmf(n) for n in range(1, 300))
        assert law.mean() == pytest.approx(series, rel=1e-12)

    def test_pgf_series(self):
        law = LogSeries(0.5)
        s = 0.7
        series = math.fsum(law.pmf(n) * s**n for n in range(1, 200))
        assert law.pgf(s) == pytest.approx(series, rel=1e-12)

    @pytest.mark.parametrize("a", [0.0, 1.0, -0.5])
    def test_rejects_bad_alpha(self, a):
        with pytest.raises(DomainError):
            LogSeries(a)


class TestSamplers:
    def test_deterministic(self):
        sampler = ExtendedSibuya(0.5, 0.9).sampler()
        rng_a, rng_b = stream(5, 1), stream(5, 1)
        assert [sampler.draw(rng_a) for _ in range(60)] == \
               [sampler.draw(rng_b) for _ in range(60)]

    def test_draw_many_deterministic(self):
        sampler = LogSeries(0.5).sampler()
        a = sampler.draw_many(stream(9, 2), 400)
        b = sampler.draw_many(stream(9, 2), 400)
        assert np.array_equal(a, b)

    def test_extended_sibuya_gof(self, gof_pvalue):
        law = ExtendedSibuya(0.7, 0.5)
        draws = law.sampler().draw_many(stream(424242, 1), 1_000_000)
        assert gof_pvalue(draws, law.pmf, 1, 30) > 1e-3

    def test_log_series_gof(self, gof_pvalue):
        law = LogSeries(0.5)
        draws = law.sampler().draw_many(stream(424242, 2), 1_000_000)
        assert gof_pvalue(draws, law.pmf, 1, 30) > 1e-3

    def test_offspring_gof(self, gof_pvalue, params_half):
        draws = offspring_sampler(params_half).draw_many(stream(424242, 3), 1_000_000)
        assert gof_pvalue(draws, lambda n: offspring_pmf(params_half, n), 0, 30) > 1e-3

    def test_rejection_tail_path(self, gof_pvalue):
        law = LogSeries(0.5)
        sampler = law.sampler(warm_mass=0.5, max_table=4)
        draws = sampler.draw_many(stream(11, 6), 200_000)
        assert gof_pvalue(draws, law.pmf, 1, 30) > 1e-3

    def test_rejection_tail_path_extended(self, gof_pvalue):
        law = ExtendedSibuya(0.7, 0.5)
        sampler = law.sampler(warm_mass=0.5, max_table=4)
        draws = sampler.draw_many(stream(11, 7), 200_000)
        assert gof_pvalue(draws, law.pmf, 1, 30) > 1e-3

    def test_scalar_matches_support(self, params_half):
        sampler = offspring_sampler(params_half)
        rng = stream(77, 0)
        draws = [sampler.draw(rng) for _ in range(2000)]
        assert min(draws) >= 0
        assert any(d >= 2 for d in draws)

    def test_requires_tail_strategy(self):
        with pytest.raises(TypeError):
            InverseCdfSampler(lambda n: 0.5**n, 1)
        # below 3 entries the geometric certificate would start too early
        for max_table in (0, 1, 2):
            with pytest.raises(DomainError):
                InverseCdfSampler(lambda n: 0.5**n, 1, ratio_bound=0.5,
                                  max_table=max_table)
