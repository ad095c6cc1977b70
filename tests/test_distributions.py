import math
import sys
from functools import partial

import mpmath
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
    offspring_sampler,
    stream,
)
from logbranch.model import ALPHA_CRITICAL, changed_offspring_pmf

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


def _mixed_draws(rng):
    # geometric reads a varying number of doubles (numpy searches for
    # p >= 1/3 and inverts below); random(5) leaves part of the Philox
    # buffer unread before the next re-key
    return (rng.standard_exponential(), rng.random(), rng.geometric(0.5),
            rng.geometric(1e-3), rng.random(5).tolist(), rng.integers(0, 2**32))


class TestStreams:
    """stream(seed, i) against the test suite's re-keyed Generator
    (``rekeyer(seed)``) and against a Philox built apart from both."""

    @pytest.mark.parametrize("start,stop", [(0, 40), (2**64 - 5, 2**64)],
                             ids=["from-zero", "to-2**64"])
    def test_matches_stream(self, rekeyer, start, stop):
        rekeyed = [_mixed_draws(rng) for rng in map(rekeyer(77), range(start, stop))]
        fresh = [_mixed_draws(stream(77, i)) for i in range(start, stop)]
        assert rekeyed == fresh

    @pytest.mark.parametrize("seed", [0, 2**64 - 1], ids=["seed-0", "seed-2**64-1"])
    @pytest.mark.parametrize("start,stop", [(0, 2), (2**63 - 1, 2**63 + 1), (2**64 - 2, 2**64)],
                             ids=["0-1", "2**63", "2**64-1"])
    def test_matches_independent_philox(self, rekeyer, seed, start, stop):
        # a Generator built from a plain Philox key checks both the re-key
        # and stream's key array
        def independent(i):
            return np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))

        expected = [_mixed_draws(independent(i)) for i in range(start, stop)]
        assert [_mixed_draws(rng) for rng in map(rekeyer(seed), range(start, stop))] == expected
        assert [_mixed_draws(stream(seed, i)) for i in range(start, stop)] == expected

    def test_partly_consumed_buffer_is_reset(self, rekeyer):
        # one 32-bit draw leaves three words buffered and a cached half word
        def draws(rng):
            return (rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist(),
                    rng.random(3).tolist())

        rekeyed = rekeyer(5)
        rekeyed(3).integers(0, 2**32, dtype=np.uint32)
        assert draws(rekeyed(4)) == draws(stream(5, 4))


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

    @pytest.mark.parametrize("b", [1e-6, 0.06, 0.2118, 0.5, 0.77])
    def test_head_mass_at_most_one_near_unit_gamma(self, b):
        # within a few ulps of gamma = 1 the log-space head term can round
        # an ulp above 0
        for k in range(1, 65):
            assert ExtendedSibuya(1.0 - k * 2.0**-53, b).pmf(1) <= 1.0

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

    @pytest.mark.parametrize("b", [0.5, 0.01, 0.75, 1e-310])
    def test_gamma_one_is_unit_atom(self, b):
        # the point mass at 1, exactly, down to a subnormal b
        law = ExtendedSibuya(1.0, b)
        assert [law.pmf(n) for n in (1, 2, 3)] == [1.0, 0.0, 0.0]
        assert [law.factorial_moment(n) for n in (1, 2, 3)] == [1.0, 0.0, 0.0]
        for s in (-1.0, 0.0, 0.3, 1.0):
            assert law.pgf(s) == s

    # in the last two, gamma * -log(1 - b) is 0 and subnormal: the first once
    # raised a bare math domain error, the second made pmf(1) 1.0000111
    @pytest.mark.parametrize("gamma,b", [(0.5, 0.0), (0.5, 1.0), (0.0, 0.5), (1.5, 0.5),
                                         (math.nextafter(1.0, 2.0), 0.5),
                                         (1e-200, 1e-200), (1e-310, 1e-10)])
    def test_rejects_bad_params(self, gamma, b):
        with pytest.raises(DomainError):
            ExtendedSibuya(gamma, b)

    def test_conditional_family_at_last_resolvable_time(self, params_half):
        # at alpha 0.5, t = 1963 is the last whole t that ModelParams.at
        # accepts: M A ~ 2.3e-308 is still normal, so the family's own rule
        # does not trip, and pmf(1) is the limit's alpha / A to within O(M)
        from logbranch import conditional_family

        law = conditional_family(params_half, params_half.at(1963.0))
        assert law.pmf(1) == pytest.approx(LogSeries(0.5).pmf(1), rel=1e-12)


class TestLogSeries:
    def test_matches_limit_law(self, params_half):
        # the limit law alpha^n / (A n), with A the model's log_norm
        law = LogSeries(0.5)
        for n in range(1, 40):
            assert law.pmf(n) == 0.5**n / (params_half.log_norm * n)

    @given(a=st.floats(min_value=0.05, max_value=0.9))
    @settings(max_examples=60, deadline=None)
    def test_normalizes(self, a):
        law = LogSeries(a)
        head = math.fsum(law.pmf(n) for n in range(1, 400))
        tail_bound = law.pmf(400) * a / (1.0 - a)
        assert abs(1.0 - head) <= tail_bound + 1e-10

    @pytest.mark.parametrize("a", [5e-324, 1e-300, 1e-200, 1e-160, 1e-100,
                                   1e-20, 1e-3, 0.05])
    def test_tiny_alpha_matches_mpmath(self, a):
        # alpha^n / (A n) once underflowed before the division by A n < 1:
        # pmf(2) at alpha 1e-200 came out 0.0, not 5e-201.  Normal values
        # must hold 1e-13 relative, subnormal ones one unit in the last place
        law = LogSeries(a)
        with mpmath.workdps(50):
            alpha = mpmath.mpf(a)
            norm = -mpmath.log1p(-alpha)
            for n in range(1, 2000):
                exact = alpha**n / (norm * n)
                value = law.pmf(n)
                if exact >= sys.float_info.min:
                    assert abs(value - exact) <= 1e-13 * exact
                else:
                    assert abs(value - exact) <= 5e-324
                if exact < 1e-330:
                    break

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
        sampler = InverseCdfSampler(ExtendedSibuya(0.5, 0.9).pmf, 1, ratio_bound=0.9)
        rng_a, rng_b = stream(5, 1), stream(5, 1)
        assert [sampler.draw(rng_a) for _ in range(60)] == \
               [sampler.draw(rng_b) for _ in range(60)]

    def test_draw_many_deterministic(self):
        sampler = InverseCdfSampler(LogSeries(0.5).pmf, 1, ratio_bound=0.5)
        a = sampler.draw_many(stream(9, 2), 400)
        b = sampler.draw_many(stream(9, 2), 400)
        assert np.array_equal(a, b)

    def test_extended_sibuya_gof(self, gof_pvalue):
        law = ExtendedSibuya(0.7, 0.5)
        sampler = InverseCdfSampler(law.pmf, 1, ratio_bound=law.b)
        draws = sampler.draw_many(stream(424242, 1), 1_000_000)
        assert gof_pvalue(draws, law.pmf, 1, 30) > 1e-3

    def test_log_series_gof(self, gof_pvalue):
        law = LogSeries(0.5)
        sampler = InverseCdfSampler(law.pmf, 1, ratio_bound=law.alpha)
        draws = sampler.draw_many(stream(424242, 2), 1_000_000)
        assert gof_pvalue(draws, law.pmf, 1, 30) > 1e-3

    def test_offspring_gof(self, gof_pvalue, params_half):
        # the law given eta != 1, which never draws 1; draws above 1 move down
        # by one, so none of the 30 bins is the empty one at n = 1
        draws = offspring_sampler(params_half).draw_many(stream(424242, 3), 1_000_000)
        assert not (draws == 1).any()
        assert gof_pvalue(draws - (draws > 1),
                          lambda n: changed_offspring_pmf(params_half, n + (n > 0)),
                          0, 30) > 1e-3

    def test_scalar_matches_support(self, params_half):
        sampler = offspring_sampler(params_half)
        rng = stream(77, 0)
        draws = [sampler.draw(rng) for _ in range(2000)]
        assert min(draws) >= 0
        assert any(d >= 2 for d in draws)

    def test_requires_tail_strategy(self):
        with pytest.raises(TypeError):
            InverseCdfSampler(lambda n: 0.5**n, 1)

    @pytest.mark.parametrize("pmf, start, ratio", [
        *[(partial(changed_offspring_pmf, ModelParams(alpha, 1.0)), 0, alpha)
          for alpha in (1e-300, 0.05, 0.5, 0.75, math.nextafter(ALPHA_CRITICAL, 0.0))],
        (LogSeries(0.5).pmf, 1, 0.5),
        (ExtendedSibuya(0.7, 0.5).pmf, 1, 0.5),
        (ExtendedSibuya(0.5, 0.9).pmf, 1, 0.9),
    ], ids=["offspring-1e-300", "offspring-0.05", "offspring-0.5", "offspring-0.75",
            "offspring-critical", "log-series", "sibuya-0.7-0.5", "sibuya-0.5-0.9"])
    def test_table_certifies_tail(self, pmf, start, ratio):
        # the last entry's term bounds the mass past it below one 2**-53 step
        # of rng.random(), and the entry before does not, or the table is at
        # its 3-entry floor; the last cumulative mass is inf
        sampler = InverseCdfSampler(pmf, start, ratio_bound=ratio)
        size = len(sampler._cum)
        odds = ratio / (1.0 - ratio)
        assert size >= 3 and sampler._cum[-1] == math.inf
        assert pmf(start + size - 1) * odds < 2.0**-53
        assert size == 3 or pmf(start + size - 2) * odds >= 2.0**-53

    @pytest.mark.parametrize("pmf, start, ratio", [
        (partial(changed_offspring_pmf, ModelParams(0.5, 1.0)), 0, 0.5),
        (LogSeries(0.5).pmf, 1, 0.5),
        (ExtendedSibuya(0.5, 0.9).pmf, 1, 0.9),
    ], ids=["offspring", "log-series", "sibuya"])
    def test_largest_uniform_draws_last_value(self, pmf, start, ratio):
        # the largest uniform rng.random() returns lands in the last entry,
        # with no draw past the table
        class LastUniform:
            def random(self, size=None):
                top = 1.0 - 2.0**-53
                return top if size is None else np.full(size, top)

        sampler = InverseCdfSampler(pmf, start, ratio_bound=ratio)
        last = start + len(sampler._cum) - 1
        assert sampler.draw(LastUniform()) == last
        assert sampler.draw_many(LastUniform(), 4).tolist() == [last] * 4

    def test_rejects_uncertifiable_ratio(self):
        # at ratio 0.999 the certificate needs about 3e4 entries; the
        # sampler is never built, so nothing can draw from it
        with pytest.raises(DomainError, match="4096"):
            InverseCdfSampler(LogSeries(0.999).pmf, 1, ratio_bound=0.999)


def test_gof_gate_null_size(gof_pvalue):
    # 2000 exact multinomial histograms of 10**6 LogSeries(0.5) draws: the
    # gate at 1e-3 should fail about 2 of them.  With one cell per value to
    # n = 30, most cells expected far below one draw, and about 60 failed
    law = LogSeries(0.5)
    # the last cell, n = 60, takes the rest of the mass, about 1e-20
    samples = np.random.default_rng(8128).multinomial(
        10**6, [law.pmf(n) for n in range(1, 61)], size=2000)
    false_alarms = sum(gof_pvalue(dict(enumerate(row.tolist(), start=1)), law.pmf, 1, 30) < 1e-3
                       for row in samples)
    assert false_alarms <= 8
