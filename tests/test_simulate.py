import math
from collections import Counter
from concurrent.futures import Future

import mpmath
import numpy as np
import pytest

from logbranch import (
    DomainError,
    EmpiricalLaw,
    ModelParams,
    PopulationCapExceeded,
    SimConfig,
    conditional_family,
    estimate_law,
    offspring_sampler,
    pmf,
    simulate_counts,
    stream,
    streams,
)
from logbranch.simulate import _trajectories


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
            next(_trajectories(params_half, (100.0,), (stream(1, 0),),
                               _FixedDraw(5), 12))

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
        for rng in streams(17, 0, 400):
            counts = simulate_counts(params_half, horizons, rng)
            seen_zero = False
            for c in counts:
                if seen_zero:
                    assert c == 0
                seen_zero = seen_zero or c == 0

    def test_cap_triggers(self, params_half):
        # the path the CLI's --max-population takes
        cfg = SimConfig(params_half, (10.0,), 200, 23, max_population=3)
        with pytest.raises(PopulationCapExceeded):
            estimate_law(cfg)


class TestRunReplicate:
    """A replicate is ``simulate_counts`` on its stream ``stream(seed, index)``."""

    HORIZONS = (0.5, 1.0, 2.0)

    def test_deterministic(self, params_half):
        first = simulate_counts(params_half, self.HORIZONS, stream(42, 7))
        second = simulate_counts(params_half, self.HORIZONS, stream(42, 7))
        assert np.array_equal(first, second)

    def test_replicates_differ(self, params_half):
        rows = [tuple(simulate_counts(params_half, self.HORIZONS, rng))
                for rng in streams(42, 0, 25)]
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_per_replicate_streams(self, workers):
        # the contract perfbench's replay_simulate checks: replicate i of the
        # run is simulate_counts on its own stream(seed, i)
        params = ModelParams(0.75, 1.0)
        horizons = (1.0, 4.0, 16.0)
        cfg = SimConfig(params, horizons, 2_000, 31)
        sampler = offspring_sampler(params)
        tallies = [Counter() for _ in horizons]
        for index in range(cfg.replicates):
            counts = simulate_counts(params, horizons, stream(cfg.seed, index), sampler)
            for tally, c in zip(tallies, counts):
                tally[int(c)] += 1
        laws = estimate_law(cfg, workers=workers)
        assert [law.counts for law in laws] == [dict(tally) for tally in tallies]

    def test_workers_capped_at_cpu_count(self, params_half, monkeypatch):
        # a pool forks every worker on its first submit, so a huge --workers
        # must not reach ProcessPoolExecutor; an inline pool runs the ranges
        # in this process instead of starting any
        pools = []

        class InlinePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr("logbranch.simulate.ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        cfg = SimConfig(params_half, (0.5, 1.0), 2_000, 11)
        capped = estimate_law(cfg, workers=64)
        assert pools == [2]
        serial = estimate_law(cfg, workers=1)
        assert [law.counts for law in capped] == [law.counts for law in serial]

    def test_rejects_bad_workers(self, params_half):
        cfg = SimConfig(params_half, (1.0,), 100, 7)
        with pytest.raises(DomainError):
            estimate_law(cfg, workers=0)

    def test_big_run_statistics(self, big_sim):
        _, laws, _ = big_sim
        # extinction frequency grows along the horizons; criterion 3 of the
        # acceptance gate checks each horizon's extinction mass and mean
        previous_ext = 0.0
        for law in laws:
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
        assert gof_pvalue(alive, conditional_family(params_half, tp).pmf, 1, 26) > 1e-3

    def test_branching_composition(self, params_half):
        # X(0.8) must match the sum of X(0.4)-many independent copies run 0.4
        n_rep = 100_000
        direct = estimate_law(SimConfig(params_half, (0.8,), n_rep, 777))[0]
        sampler = offspring_sampler(params_half)
        composed = Counter()
        for rng_mid, rng in zip(streams(778, 0, n_rep), streams(779, 0, n_rep)):
            mid = simulate_counts(params_half, (0.4,), rng_mid, sampler)[0]
            total = 0
            for _ in range(int(mid)):
                total += simulate_counts(params_half, (0.4,), rng, sampler)[0]
            composed[int(total)] += 1

        def binned(counts):
            row = np.zeros(8)
            for value, count in counts.items():
                row[value if value < 7 else 7] += count
            return row

        # chi-square test of homogeneity on the 2 x 8 table, df = 7
        table = np.array([binned(direct.counts), binned(dict(composed))])
        expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
        statistic = float(((table - expected) ** 2 / expected).sum())
        assert mpmath.gammainc(7 / 2, statistic / 2, regularized=True) > 1e-3


class TestEmpiricalLaw:
    def test_accessors(self):
        law = EmpiricalLaw(1.0, {0: 2, 1: 5, 3: 3}, 10)
        assert law.prob(1) == 0.5
        assert law.prob(99) == 0.0
        assert law.extinction_freq() == 0.2
        assert law.mean() == pytest.approx(1.4)
