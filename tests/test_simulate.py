import math
from collections import Counter
from concurrent.futures import Future

import mpmath
import numpy as np
import pytest

from logbranch import (
    DomainError,
    EmpiricalLaw,
    InverseCdfSampler,
    ModelParams,
    PopulationCapExceeded,
    SimConfig,
    conditional_family,
    estimate_law,
    offspring_sampler,
    pmf,
    simulate,
    simulate_counts,
    stream,
)
from logbranch.model import change_prob
from logbranch.simulate import (
    _MAX_POPULATION,
    _PATH_BLOCK,
    _expected_events,
    _lockstep,
    _philox_block,
    _product,
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

    def test_rejects_replicates_past_the_streams(self, params_half):
        # replicate i draws from stream(seed, i), and no stream has i >= 2**64
        with pytest.raises(DomainError, match="one stream each"):
            SimConfig(params_half, (1.0,), 2**64 + 1, 42)

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
        # _FixedDraw takes no draws, so the holding times are -log1p(-u) of
        # the stream's uniforms u, scaled by rate * q * count for counts 1, 5
        # and 9
        rng = stream(1, 0)
        horizons = []
        now = 0.0
        for count in (1, 5, 9):
            wait = -math.log1p(-rng.random()) / (params_half.rate * change_prob(params_half)
                                                 * count)
            horizons.append(now + wait / 2)
            now += wait
        counts = simulate_counts(params_half, tuple(horizons), stream(1, 0),
                                 sampler=_FixedDraw(5))
        assert counts.tolist() == [1, 5, 9]

    def test_cap_enforced(self, params_half):
        # 1 -> cap -> 2 cap - 1 passes the default cap on the second event
        with pytest.raises(PopulationCapExceeded):
            simulate_counts(params_half, (100.0,), stream(1, 0),
                            sampler=_FixedDraw(_MAX_POPULATION))

    @pytest.mark.parametrize("rate, seed, draws",
                             [(1.0, 31, 50_000), (4.0, 8, 20_000)],
                             ids=["rate-1", "rate-4"])
    def test_first_event_clock(self, rate, seed, draws):
        # from X(0) = 1 the first count-changing event comes after
        # Exp(rate * q), and death makes it the last:
        # P(X(h) = 1) = exp(-rate * q * h), within 4 SE
        params = ModelParams(0.5, rate)
        h = 0.25
        rng = stream(seed, 0)
        alive = np.mean([simulate_counts(params, (h,), rng, sampler=_FixedDraw(0))[0]
                         for _ in range(draws)])
        expected = math.exp(-rate * change_prob(params) * h)
        se = math.sqrt(expected * (1.0 - expected) / draws)
        assert abs(alive - expected) < 4 * se


class TestSimulateCounts:
    def test_horizon_before_first_event(self, params_half):
        counts = simulate_counts(params_half, (1e-12,), stream(3, 0))
        assert counts.tolist() == [1]

    @pytest.mark.parametrize("horizons", [(), (2.0, 1.0), (-1.0, 1.0), (math.nan, 1.0)])
    def test_rejects_bad_horizons(self, params_half, horizons):
        # the horizons SimConfig rejects; each once returned a path
        with pytest.raises(DomainError, match="horizon"):
            simulate_counts(params_half, horizons, stream(1, 3))

    def test_zero_stays_absorbed(self, params_half, rekeyer):
        horizons = (0.5, 1.0, 2.0, 4.0)
        for rng in map(rekeyer(17), range(400)):
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

    def test_replicates_differ(self, params_half, rekeyer):
        rows = [tuple(simulate_counts(params_half, self.HORIZONS, rng))
                for rng in map(rekeyer(42), range(25))]
        assert len(set(rows)) > 1


class TestPhiloxBlock:
    SEEDS = (0, 1, 2**64 - 1)
    INDICES = (0, 1, 2**32, 2**64 - 1)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_match_streams(self, seed):
        index = np.array(self.INDICES, dtype=np.uint64)
        blocks = np.concatenate([_philox_block(seed, index, range(k, k + 1)) for k in range(4)])
        for column, i in enumerate(self.INDICES):
            raw = stream(seed, i).bit_generator.random_raw(16)
            assert blocks[:, column].tolist() == raw.tolist()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_uniforms_are_top_53_bits(self, seed):
        index = np.array(self.INDICES, dtype=np.uint64)
        words = np.concatenate([_philox_block(seed, index, range(k, k + 1)) for k in range(4)])
        for column, i in enumerate(self.INDICES):
            rng = stream(seed, i)
            assert [rng.random() for _ in range(16)] == [
                (w >> 11) * 2.0**-53 for w in words[:, column].tolist()]

    @pytest.mark.parametrize("seed", SEEDS)
    # a 64-block lookahead from block 0, blocks either side of 2**32, and the
    # last block before numpy's counter carries into its second word
    @pytest.mark.parametrize("first, blocks", [(0, 64), (2**32 - 1, 3), (2**64 - 2, 1)])
    def test_blocks_in_one_call(self, seed, first, blocks):
        index = np.array(self.INDICES, dtype=np.uint64)
        words = _philox_block(seed, index, range(first, first + blocks))
        assert words.shape == (4 * blocks, len(self.INDICES))
        for column, i in enumerate(self.INDICES):
            for j, block in enumerate(range(first, first + blocks)):
                philox = np.random.Philox(key=np.array([seed, i], dtype=np.uint64),
                                          counter=np.array([block, 0, 0, 0], dtype=np.uint64))
                assert words[4 * j:4 * j + 4, column].tolist() == philox.random_raw(4).tolist()


class TestBlockPaths:
    """Every replicate's whole path from the block loop is
    ``simulate_counts`` on its own stream(seed, i), whatever the range, the
    block edges and the point where the block starts to compute Philox
    blocks ahead."""

    @pytest.mark.parametrize("alpha, horizons", [
        (0.5, (0.5, 1.0, 2.0)), (0.75, (1.0, 4.0, 16.0, 32.0)),
        (0.05, (0.5, 1.0, 2.0)), (1e-3, (1.0, 100.0, 1000.0))])
    # a range of 1.22 blocks from 0, and one that starts mid-block as a
    # worker's range does
    @pytest.mark.parametrize("start, stop", [(0, 5000), (1234, 1234 + _PATH_BLOCK + 777)])
    # the rows below which a block looks ahead: with 1 it never does and
    # every call computes one Philox block, then the default, and a
    # lookahead from the first event
    @pytest.mark.parametrize("lookahead_rows", [1, simulate._LOOKAHEAD_ROWS, _PATH_BLOCK + 1])
    def test_paths_match_streams(self, monkeypatch, rekeyer, alpha, horizons, start, stop,
                                 lookahead_rows):
        params = ModelParams(alpha, 1.0)
        cfg = SimConfig(params, horizons, stop, 29)
        sampler = offspring_sampler(params)
        expected = [tuple(simulate_counts(params, horizons, rng, sampler).tolist())
                    for rng in map(rekeyer(cfg.seed), range(start, stop))]
        spans = []

        def recording(seed, index, blocks):
            spans.append(len(blocks))
            return _philox_block(seed, index, blocks)

        monkeypatch.setattr(simulate, "_LOOKAHEAD_ROWS", lookahead_rows)
        monkeypatch.setattr(simulate, "_philox_block", recording)
        paths = []
        for first in range(start, stop, _PATH_BLOCK):
            block = _lockstep(cfg, sampler, first, min(first + _PATH_BLOCK, stop))
            paths.extend(map(tuple, block.T.tolist()))
        assert paths == expected
        if lookahead_rows == 1:
            assert set(spans) == {1}
        if lookahead_rows > _PATH_BLOCK:
            assert min(spans) > 1

    def test_block_loop_serves_every_replicate(self, monkeypatch):
        # no replicate falls back to a scalar draw, even near criticality
        # where the last rows of a block take the most events
        def no_draw(self, rng):
            raise AssertionError("a scalar offspring draw was taken")

        monkeypatch.setattr(InverseCdfSampler, "draw", no_draw)
        cfg = SimConfig(ModelParams(0.75, 1.0), (1.0, 4.0, 16.0, 32.0), 5_000, 29)
        laws = estimate_law(cfg)
        assert all(sum(law.counts.values()) == cfg.replicates for law in laws)

    def test_first_stream_at_far_index(self):
        # keys near 2**64: the last replicates a run can have
        params = ModelParams(0.5, 1.0)
        horizons = (0.5, 1.0, 2.0)
        cfg = SimConfig(params, horizons, 2**64, 3)
        start = 2**64 - 100
        block = _lockstep(cfg, offspring_sampler(params), start, 2**64)
        expected = [simulate_counts(params, horizons, stream(3, i)).tolist()
                    for i in range(start, 2**64)]
        assert block.T.tolist() == expected


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

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
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
            assert law.prob(0) > previous_ext
            previous_ext = law.prob(0)

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

    def test_branching_composition(self, params_half, rekeyer):
        # X(0.8) must match the sum of X(0.4)-many independent copies run 0.4
        n_rep = 100_000
        direct = estimate_law(SimConfig(params_half, (0.8,), n_rep, 777))[0]
        sampler = offspring_sampler(params_half)
        composed = Counter()
        for rng_mid, rng in zip(map(rekeyer(778), range(n_rep)),
                                map(rekeyer(779), range(n_rep))):
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


class TestEventBudget:
    @pytest.mark.parametrize("alpha, rate, horizon", [
        (0.5, 1.0, 2.0), (0.75, 1.0, 32.0), (0.3, 7.0, 0.01), (1e-6, 1.0, 1e6),
        (0.5, 1e300, 1e300), (0.5, 1.0, math.inf)])
    def test_expected_events_match_integral(self, alpha, rate, horizon):
        # the integral of rate q exp(c t) over [0, horizon] at 50 digits, with
        # q = alpha^2 (1 + 1/A) and c = -rate alpha^2/A taken from alpha
        params = ModelParams(alpha, rate)
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            a_const = -mpmath.log1p(-a)
            q = a * a * (1 + 1 / a_const)
            c = -rate * a * a / a_const
            exact = rate * q * mpmath.expm1(c * horizon) / c
        assert _expected_events(params, horizon) == pytest.approx(float(exact), rel=1e-13)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-300, 1e-8, 0.5])
    def test_expected_events_to_extinction(self, alpha):
        # 1 + A at T = inf, also where alpha^2 underflows (below alpha 1.5e-154)
        params = ModelParams(alpha, 1.0)
        with mpmath.workdps(50):
            exact = 1 - mpmath.log1p(-mpmath.mpf(alpha))
        assert _expected_events(params, math.inf) == pytest.approx(float(exact), rel=1e-15)

    @pytest.mark.parametrize("alpha, horizon, replicates", [
        # a replicate costs 1 + its expected count-changing events: 1.9 at
        # alpha 0.5 to t = 2, 1 where no event is expected (1e13 replicates
        # to t = 1e-12 would run for months), and 2 at alpha 1e-300 to
        # t = inf, where one death ends every replicate
        (0.5, 2.0, 10**10), (0.5, 2.0, 2**64), (0.5, 1e-12, 10**13),
        (1e-300, math.inf, 10**10)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_rejects_before_any_draw(self, monkeypatch, alpha, horizon, replicates, workers):
        def no_draws(*args):
            raise AssertionError("Philox words were computed")

        monkeypatch.setattr("logbranch.simulate._philox_block", no_draws)
        cfg = SimConfig(ModelParams(alpha, 1.0), (min(1.0, horizon / 2), horizon),
                        replicates, 3)
        with pytest.raises(DomainError, match="budget"):
            estimate_law(cfg, workers=workers)

    @pytest.mark.parametrize("alpha, horizon, replicates", [
        # every death simulated, these would take 1e300, 1e300 and 1.3e10
        # events; the count-changing ones number about 1 a replicate
        (1e-300, 1e300, 1), (1e-300, math.inf, 10), (1e-6, 1e6, 20_000)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_cheap_small_weight_runs(self, alpha, horizon, replicates, workers):
        params = ModelParams(alpha, 1.0)
        laws = estimate_law(SimConfig(params, (1.0, horizon), replicates, 3),
                            workers=workers)
        assert all(sum(law.counts.values()) == replicates for law in laws)
        if horizon == math.inf:
            assert laws[-1].counts == {0: replicates}

    def test_fast_rate_to_far_horizon_runs(self):
        # rate * t overflows, but the replicates take about 1 + A = 1.7
        # count-changing events each
        laws = estimate_law(SimConfig(ModelParams(0.5, 1e300), (1e300,), 100, 3))
        assert laws[0].counts == {0: 100}


class TestEventClock:
    """Count-changing events at rate rate * q, on a clock in units of
    1/(rate * q) whose horizons are converted by ``_product``."""

    @pytest.mark.parametrize("rate, alpha, horizon", [
        # rate * q underflows to 0, rate * q is subnormal, and rate * horizon
        # overflows, each where the whole product is a normal float
        (1e-300, 1e-30, 1e308), (1e-300, 1e-10, 1e308), (1e300, 5e-324, 1e30),
        (1.0, 0.5, 2.0)])
    def test_converted_horizon_is_exact(self, rate, alpha, horizon):
        params = ModelParams(alpha, rate)
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            exact = rate * a * a * (1 - 1 / mpmath.log1p(-a)) * horizon
        assert _product(rate, change_prob(params), horizon) == pytest.approx(
            float(exact), rel=1e-15)

    def test_product_range(self):
        assert _product(1e300, 1e300) == math.inf
        assert _product(2.0, math.inf) == math.inf
        assert _product(1e-300, 1e-300) == 0.0
        assert _product(1e-300, 1e-20, 1e300) == pytest.approx(1e-20, rel=1e-15)

    @pytest.mark.parametrize("rate, alpha", [(1e-300, 1e-300), (5e-324, 5e-324)])
    def test_underflowing_event_rate_keeps_one_particle(self, rate, alpha):
        # rate * q underflows to 0: no ZeroDivisionError, and the chance of
        # an event before t = 1e300 is below 1e-300, so none comes
        params = ModelParams(alpha, rate)
        assert rate * change_prob(params) == 0.0
        laws = estimate_law(SimConfig(params, (1.0, 1e300), 1000, 5))
        assert [law.counts for law in laws] == [{1: 1000}, {1: 1000}]

    @pytest.mark.parametrize("alpha, horizon, nbins, seed", [
        (0.05, 10.0, 3, 2605), (1e-3, 500.0, 2, 2606)])
    def test_small_weight_law(self, gof_pvalue, alpha, horizon, nbins, seed):
        # where thinning drops 95% and 99.9% of the deaths: the histogram and
        # the extinction frequency against the closed form; the last bin,
        # n >= nbins, expects 13.8 and 11.9 replicates
        params = ModelParams(alpha, 1.0)
        law = estimate_law(SimConfig(params, (horizon,), 100_000, seed))[0]
        tp = params.at(horizon)
        assert gof_pvalue(law.counts, lambda n: pmf(params, tp, n), 0, nbins) > 1e-3
        assert gof_pvalue(law.counts, lambda n: pmf(params, tp, n), 0, 1) > 1e-3


class TestEmpiricalLaw:
    def test_accessors(self):
        law = EmpiricalLaw(1.0, {0: 2, 1: 5, 3: 3}, 10)
        assert law.prob(1) == 0.5
        assert law.prob(99) == 0.0
        assert law.prob(0) == 0.2
        assert law.mean() == pytest.approx(1.4)
