import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from logbranch import (
    DomainError,
    EmpiricalLaw,
    ModelParams,
    PopulationCapExceeded,
    SimConfig,
    conditional_pmf,
    estimate_law,
    extinction_prob,
    factorial_moment,
    offspring_sampler,
    pmf,
    simulate_counts,
    stream,
)


class _FixedDraw:
    """Sampler stub returning a scripted offspring count."""

    def __init__(self, value):
        self.value = value

    def draw(self, rng):
        return self.value


class TestSimConfig:
    def test_valid(self, params_half):
        cfg = SimConfig(params_half, (0.5, 1.0), 100, 42)
        assert cfg.max_population == 10_000_000

    @pytest.mark.parametrize("horizons", [(), (0.0,), (-1.0,), (1.0, 0.5), (1.0, 1.0)])
    def test_rejects_bad_horizons(self, params_half, horizons):
        with pytest.raises(DomainError):
            SimConfig(params_half, horizons, 100, 42)

    def test_rejects_bad_replicates(self, params_half):
        with pytest.raises(DomainError):
            SimConfig(params_half, (1.0,), 0, 42)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_bad_seed(self, params_half, seed):
        with pytest.raises(DomainError):
            SimConfig(params_half, (1.0,), 100, seed)

    def test_rejects_bad_cap(self, params_half):
        with pytest.raises(DomainError):
            SimConfig(params_half, (1.0,), 100, 42, max_population=0)


class TestStep:
    """One event of the ``simulate_counts`` loop, with a scripted offspring
    count passed through ``sampler=``."""

    def test_unit_offspring_keeps_count(self, params_half):
        counts = simulate_counts(params_half, (0.5, 1.0, 50.0), stream(1, 0),
                                 sampler=_FixedDraw(1))
        assert counts.tolist() == [1, 1, 1]

    def test_death_decrements(self, params_half):
        counts = simulate_counts(params_half, (1e-12, 50.0, 100.0), stream(1, 0),
                                 sampler=_FixedDraw(0))
        assert counts.tolist() == [1, 0, 0]

    def test_burst_increments(self, params_half):
        # _FixedDraw takes no draws, so the holding times are the stream's
        # exponentials scaled by rate * count for counts 1, 5 and 9
        rng = stream(1, 0)
        horizons = []
        now = 0.0
        for count in (1, 5, 9):
            wait = rng.standard_exponential() / (params_half.rate * count)
            horizons.append(now + wait / 2)
            now += wait
        counts = simulate_counts(params_half, tuple(horizons), stream(1, 0),
                                 sampler=_FixedDraw(5))
        assert counts.tolist() == [1, 5, 9]

    def test_cap_enforced(self, params_half):
        # 1 -> 5 -> 9 -> 13 passes the cap on the third event
        with pytest.raises(PopulationCapExceeded):
            simulate_counts(params_half, (100.0,), stream(1, 0),
                            sampler=_FixedDraw(5), max_population=12)

    @pytest.mark.parametrize("rate, seed, draws",
                             [(1.0, 31, 50_000), (4.0, 8, 20_000)],
                             ids=["rate-1", "rate-4"])
    def test_first_event_clock(self, rate, seed, draws):
        # from X(0) = 1 the first event comes after Exp(rate), and death makes
        # it the last: P(X(h) = 1) = exp(-rate * h), within 4 SE
        params = ModelParams(0.5, rate)
        h = 0.25
        rng = stream(seed, 0)
        alive = np.mean([simulate_counts(params, (h,), rng, sampler=_FixedDraw(0))[0]
                         for _ in range(draws)])
        expected = math.exp(-rate * h)
        se = math.sqrt(expected * (1.0 - expected) / draws)
        assert abs(alive - expected) < 4 * se


class TestSimulateCounts:
    def test_horizon_before_first_event(self, params_half):
        counts = simulate_counts(params_half, (1e-12,), stream(3, 0))
        assert counts.tolist() == [1]

    def test_zero_stays_absorbed(self, params_half):
        horizons = (0.5, 1.0, 2.0, 4.0)
        for index in range(400):
            counts = simulate_counts(params_half, horizons, stream(17, index))
            seen_zero = False
            for c in counts:
                if seen_zero:
                    assert c == 0
                seen_zero = seen_zero or c == 0

    def test_cap_triggers(self, params_half):
        raised = False
        for index in range(200):
            try:
                simulate_counts(params_half, (10.0,), stream(23, index), max_population=3)
            except PopulationCapExceeded:
                raised = True
                break
        assert raised


class TestRunReplicate:
    """A replicate is ``simulate_counts`` on its stream ``stream(seed, index)``."""

    HORIZONS = (0.5, 1.0, 2.0)

    def test_deterministic(self, params_half):
        first = simulate_counts(params_half, self.HORIZONS, stream(42, 7))
        second = simulate_counts(params_half, self.HORIZONS, stream(42, 7))
        assert np.array_equal(first, second)

    def test_replicates_differ(self, params_half):
        rows = [tuple(simulate_counts(params_half, self.HORIZONS, stream(42, i)))
                for i in range(25)]
        assert len(set(rows)) > 1


class TestEstimateLaw:
    def test_histogram_totals(self, params_half):
        cfg = SimConfig(params_half, (0.5, 2.0), 5_000, 99)
        for law in estimate_law(cfg):
            assert sum(law.counts.values()) == cfg.replicates

    def test_workers_agree(self, params_half):
        cfg = SimConfig(params_half, (1.0,), 20_000, 7)
        serial = estimate_law(cfg, workers=1)
        parallel = estimate_law(cfg, workers=2)
        assert serial[0].counts == parallel[0].counts

    def test_rejects_bad_workers(self, params_half):
        cfg = SimConfig(params_half, (1.0,), 100, 7)
        with pytest.raises(DomainError):
            estimate_law(cfg, workers=0)

    def test_big_run_statistics(self, big_sim, params_half):
        cfg, laws, _ = big_sim
        previous_ext = 0.0
        for law in laws:
            tp = params_half.at(law.time)
            ext = extinction_prob(params_half, tp)
            se_ext = math.sqrt(ext * (1.0 - ext) / cfg.replicates)
            assert abs(law.extinction_freq() - ext) < 4 * se_ext
            variance = factorial_moment(params_half, tp, 2) + tp.mean - tp.mean**2
            se_mean = math.sqrt(variance / cfg.replicates)
            assert abs(law.mean() - tp.mean) < 4 * se_mean
            # extinction frequency grows along the horizons
            assert law.extinction_freq() > previous_ext
            previous_ext = law.extinction_freq()

    def test_grid_gof(self, gof_pvalue):
        for alpha, rate in ((0.3, 0.5), (0.6, 2.0)):
            params = ModelParams(alpha, rate)
            cfg = SimConfig(params, (1.0,), 100_000, 555)
            law = estimate_law(cfg)[0]
            tp = params.at(1.0)
            assert gof_pvalue(law.counts, lambda n: pmf(params, tp, n), 0, 26) > 1e-3

    def test_conditional_histogram(self, big_sim, params_half, gof_pvalue):
        _, laws, _ = big_sim
        law = laws[1]
        tp = params_half.at(law.time)
        alive = {n: c for n, c in law.counts.items() if n >= 1}
        assert gof_pvalue(alive, lambda n: conditional_pmf(params_half, tp, n), 1, 26) > 1e-3

    def test_branching_composition(self, params_half):
        # X(0.8) must match the sum of X(0.4)-many independent copies run 0.4
        n_rep = 100_000
        direct = estimate_law(SimConfig(params_half, (0.8,), n_rep, 777))[0]
        sampler = offspring_sampler(params_half)
        composed = Counter()
        for i in range(n_rep):
            mid = simulate_counts(params_half, (0.4,), stream(778, i), sampler)[0]
            rng = stream(779, i)
            total = 0
            for _ in range(int(mid)):
                total += simulate_counts(params_half, (0.4,), rng, sampler)[0]
            composed[int(total)] += 1

        def binned(counts):
            row = np.zeros(8)
            for value, count in counts.items():
                row[value if value < 7 else 7] += count
            return row

        table = np.array([binned(direct.counts), binned(dict(composed))])
        assert stats.chi2_contingency(table).pvalue > 1e-3


class TestEmpiricalLaw:
    def test_accessors(self):
        law = EmpiricalLaw(1.0, {0: 2, 1: 5, 3: 3}, 10)
        assert law.prob(1) == 0.5
        assert law.prob(99) == 0.0
        assert law.extinction_freq() == 0.2
        assert law.mean() == pytest.approx(1.4)
