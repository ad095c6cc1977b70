"""Event-driven exact simulation of the branching process.

Each of ``count`` particles dies after an Exp(rate) lifetime and is replaced
by a draw from the offspring law.  A death replaced by one particle leaves
the count as it was, so the simulator thins those deaths out of the clock
(Poisson thinning): deaths that change the count come after an
Exp(rate q count) holding time, q = P(eta != 1) = ``change_prob``, and each
is replaced by a draw from the offspring law given eta != 1.  The path of
counts has the same law as with every death simulated, and a replicate takes
at most 1 + A count-changing events on average at every alpha, where the
unit deaths alone number A/alpha^2 - (1 + A).  No discretization is
involved, and every replicate owns a dedicated counter-based RNG stream
keyed by (seed, replicate index), which makes runs reproducible replicate by
replicate and independent of scheduling.

A replicate has one definition, the event loop of ``simulate_counts`` on
one Generator.  ``estimate_law`` evaluates it a block of replicates at a
time (``_lockstep``): the block's rows advance event by event together as
numpy arrays, each row reading its own stream's Philox words, computed for
the whole block at once by ``_philox_block``, so replicate i still draws
exactly what ``stream(seed, i)`` draws and its path is ``simulate_counts``'
bit for bit.  Every row runs to its end in the block loop.  Philox is
counter-based, so any block of any stream can be computed directly: once
few rows remain, one call computes several blocks of each row's words
ahead, and the rows read their next events from them.

Importing this module loads neither numpy nor the process pool: the functions
that build Generators or arrays import numpy, and ``estimate_law`` imports the
pool only when it runs more than one worker.
"""

import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .distributions import InverseCdfSampler, offspring_sampler
from .errors import DomainError, PopulationCapExceeded
from .model import ModelParams, change_prob

if TYPE_CHECKING:
    import numpy as np

_PATH_BLOCK = 4096  # replicates the block loop advances together
_MAX_POPULATION = 10_000_000  # default population cap of SimConfig and the CLI
_EVENT_BUDGET = 1e10  # most expected units of work one estimate_law run may take
_LOOKAHEAD_ROWS = 512  # the block loop computes Philox blocks ahead once fewer rows remain
_LOOKAHEAD_BLOCKS = 64  # most Philox blocks the block loop computes a row ahead
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # Philox4x64 multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # Philox4x64 key increments


def stream(seed: int, index: int = 0) -> "np.random.Generator":
    """Independent counter-based RNG stream keyed by (seed, replicate index).

    Philox streams with distinct keys never overlap, so replicate i of run
    ``seed`` is reproducible in isolation regardless of scheduling.  Stream i
    is the Philox4x64-10 stream keyed (seed, i), and ``rng.random()`` is
    (w >> 11) * 2**-53 of its next 64-bit word w, so its k-th call reads word
    k - 1 of ``rng.bit_generator.random_raw``; the block loop computes those
    words directly (``_philox_block``).  The key is a uint64 array: numpy
    would make a list holding an int past 2**63 beside a smaller one a
    float64 array.
    """
    import numpy as np

    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must fit in 64 bits, got {seed!r}")
    if not 0 <= index < 2**64:
        raise DomainError(f"stream index must fit in 64 bits, got {index!r}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _check_horizons(horizons) -> None:
    """DomainError unless ``horizons`` is a non-empty, strictly increasing
    sequence of positive times; NaN fails every comparison, so it fails
    too."""
    if len(horizons) == 0:
        raise DomainError("at least one horizon time is required")
    prev = 0.0
    for t in horizons:
        if not t > prev:
            raise DomainError(
                f"horizons must be strictly increasing and positive, got {horizons!r}"
            )
        prev = t


@dataclass(frozen=True)
class SimConfig:
    """A reproducible simulation plan."""

    params: ModelParams
    horizons: tuple
    replicates: int
    seed: int
    max_population: int = _MAX_POPULATION

    def __post_init__(self) -> None:
        _check_horizons(self.horizons)
        if not 1 <= self.replicates <= 2**64:
            raise DomainError(
                f"replicates must lie in [1, 2**64], one stream each, got {self.replicates!r}"
            )
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit in 64 bits, got {self.seed!r}")
        if self.max_population < 1:
            raise DomainError(
                f"max_population must be positive, got {self.max_population!r}"
            )


def _product(*factors: float) -> float:
    """The product of positive floats, rounded once to the float range: the
    factors' mantissas are multiplied apart from their exponents, so no
    partial product over- or underflows where the whole does not.  inf past
    the largest float, and for an inf factor."""
    mantissa, exponent = 1.0, 0
    for factor in factors:
        m, e = math.frexp(factor)
        mantissa *= m
        exponent += e
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf


def _clock(params: ModelParams, horizons) -> tuple:
    """The horizons on the event clock, in units of 1/(rate q): each is
    ``_product(rate, q, horizon)``, rounded once even where rate q alone
    underflows.  Where it rounds to 0 or overflows to inf, no positive float
    sum of holding times lies between it and the exact value, so no event is
    put on the wrong side of a horizon."""
    q = change_prob(params)
    return tuple(_product(params.rate, q, h) for h in horizons)


def _philox_block(seed: int, index: "np.ndarray", blocks: range) -> "np.ndarray":
    """Words 4 b to 4 b + 3 of each stream(seed, i), for every Philox block b
    in ``blocks`` and i in ``index`` (uint64), as a (4 len(blocks),
    len(index)) uint64 array: row 4 j + w holds word w of block ``blocks[j]``.

    This is Philox4x64-10 (Salmon et al., SC'11) as numpy's ``Philox`` runs
    it: key (seed, i), and counter (b + 1, 0, 0, 0), since numpy increments
    the counter before it generates.  Every block is a run of columns of one
    computation.  numpy has no 128-bit integer, so each round multiplies
    words 0 and 2 together as one (2, columns) array and takes the high
    words of the products from 32-bit halves.  The counter enters only the
    first round, as (b + 1) M0, and only its word 2 depends on i, so that
    round is done on Python ints, one product a block repeated across the
    block's columns.
    """
    import numpy as np

    u64 = np.uint64
    lo32, s32 = u64(0xFFFFFFFF), u64(32)
    n_blocks, n = len(blocks), len(index)
    # the multipliers of words 0 and 2, their 32-bit halves, the key
    # increments and the key
    mul, m_lo, m_hi, bump, key = np.empty((5, 2, n_blocks * n), u64)
    mul[0], mul[1] = _PHILOX_M
    np.bitwise_and(mul, lo32, out=m_lo)
    np.right_shift(mul, s32, out=m_hi)
    bump[0], bump[1] = _PHILOX_W
    key[0] = seed
    key[1].reshape(n_blocks, n)[:] = index
    # a holds words 0 and 2, b words 3 and 1 (reversed, as the round
    # writes them), after the first round
    a, b, spare, a_lo, a_hi, t, v, high = np.empty((8, 2, n_blocks * n), u64)
    # the high and low words of each block's (b + 1) M0, one row a block
    counter_mul = np.array([divmod((block + 1) * _PHILOX_M[0], 2**64) for block in blocks], u64)
    a[0] = seed
    np.bitwise_xor(index, counter_mul[:, :1], out=a[1].reshape(n_blocks, n))
    b[0].reshape(n_blocks, n)[:] = counter_mul[:, 1:]
    b[1] = 0
    for _ in range(9):
        key += bump
        np.bitwise_and(a, lo32, out=a_lo)
        np.right_shift(a, s32, out=a_hi)
        np.multiply(a_lo, m_lo, out=t)
        np.right_shift(t, s32, out=t)
        np.multiply(a_hi, m_lo, out=v)
        np.add(t, v, out=t)
        np.multiply(a_lo, m_hi, out=a_lo)
        np.bitwise_and(t, lo32, out=v)
        np.add(a_lo, v, out=a_lo)
        np.right_shift(t, s32, out=t)
        np.multiply(a_hi, m_hi, out=high)
        np.add(high, t, out=high)
        np.right_shift(a_lo, s32, out=a_lo)
        np.add(high, a_lo, out=high)
        # words (0, 2) <- (high 1 ^ word 1 ^ key 0, high 0 ^ word 3 ^ key 1)
        # and words (3, 1) <- the low words (0, 2) of the products
        np.bitwise_xor(high[::-1], b[::-1], out=spare)
        np.bitwise_xor(spare, key, out=spare)
        np.multiply(a, mul, out=b)
        a, spare = spare, a
    words = np.empty((n_blocks, 4, n), u64)
    words[:, 0::2] = a.reshape(2, n_blocks, n).swapaxes(0, 1)
    words[:, 1::2] = b[::-1].reshape(2, n_blocks, n).swapaxes(0, 1)
    return words.reshape(4 * n_blocks, n)


def _lockstep(cfg: SimConfig, sampler: InverseCdfSampler, first: int,
              stop: int) -> "np.ndarray":
    """Paths of replicates ``first`` to ``stop`` as the columns of an int64
    array, one row per horizon, each column exactly what ``simulate_counts``
    returns on its stream.

    The rows take their events together, and each row runs to its end here:
    event k of a row reads its holding-time and offspring uniforms from
    words 2 (k mod 2) and 2 (k mod 2) + 1 of Philox block k // 2 of its own
    stream, computed by ``_philox_block``.  While ``_LOOKAHEAD_ROWS`` or more
    rows remain, one call computes the next block of every row.  Below that,
    one call computes several blocks a row ahead, about 4 ``_LOOKAHEAD_ROWS``
    columns and at most ``_LOOKAHEAD_BLOCKS`` blocks a row, and the unread
    uniforms are kept as an (event, holding/offspring, row) array filtered
    with the rows.  Each uniform and holding time is ``simulate_counts``',
    bit for bit: -log1p(-u) through ``math.log1p`` (numpy's log1p can differ
    in the last bit), the offspring by ``searchsorted(cum, u, "right")``, as
    ``bisect_right`` in the sampler's table, which ends in an inf cumulative
    mass, and the horizons passed by ``searchsorted(bounds, t, "left")``.
    After each event a row writes its new count at the first horizon it
    has not passed, where that count holds unless a later event writes
    over it, and the horizons passed in one step take the count written at
    the first of them, filled forward at the end.  A row leaves the block
    at the last horizon or at extinction.
    """
    import numpy as np

    n_horizons = len(cfg.horizons)
    bounds = np.array(_clock(cfg.params, cfg.horizons))
    cum = np.array(sampler._cum)  # the sampler's CDF table, ending in inf
    step = sampler._support_start - 1
    n = stop - first
    # row j holds the count after the last event between horizons j - 1 and
    # j, or -1 where none came and the count at horizon j - 1 still holds;
    # row n_horizons is scratch
    marks = np.full((n_horizons + 1, n), -1, np.int64)
    marks[0] = 1
    rows = np.arange(n)
    count = np.ones(n, np.int64)
    t = np.zeros(n)
    block = 0  # the next Philox block of every row
    ahead = np.empty((0, 2, n))  # the unread uniforms, by event, kind and row
    while len(rows):
        if not len(ahead):
            span = 1 if len(rows) >= _LOOKAHEAD_ROWS else min(
                _LOOKAHEAD_BLOCKS, 4 * _LOOKAHEAD_ROWS // len(rows))
            keys = rows.astype(np.uint64) + np.uint64(first)
            words = _philox_block(cfg.seed, keys, range(block, block + span))
            ahead = ((words >> np.uint64(11)) * 2.0**-53).reshape(2 * span, 2, len(rows))
            block += span
        hold_u, draw_u = ahead[0]
        t -= np.fromiter(map(math.log1p, (-hold_u).tolist()), np.float64, len(rows)) / count
        passed = np.searchsorted(bounds, t, "left")
        # the new count holds at the next horizon unless another event comes
        # first; rows past the last horizon write to the scratch row
        count += np.searchsorted(cum, draw_u, "right") + step
        marks[passed, rows] = count
        live = passed < n_horizons
        biggest = int(np.max(count, where=live, initial=0))
        if biggest > cfg.max_population:
            raise PopulationCapExceeded(
                f"population {biggest} exceeded cap {cfg.max_population}")
        keep = live & (count > 0)
        rows, t, count, ahead = rows[keep], t[keep], count[keep], ahead[1:, :, keep]
    marks = marks[:n_horizons]
    begun = np.where(marks >= 0, np.arange(n_horizons)[:, None], 0)
    np.maximum.accumulate(begun, axis=0, out=begun)
    return np.take_along_axis(marks, begun, axis=0)


def simulate_counts(params: ModelParams, horizons, rng: "np.random.Generator",
                    sampler: InverseCdfSampler = None) -> "np.ndarray":
    """Counts observed at each horizon along one trajectory from X(0) = 1:
    the one definition of a replicate, which ``estimate_law`` evaluates a
    block at a time (``_lockstep``).

    Only count-changing events are simulated: they come at rate
    rate q count, q = ``change_prob(params)``, and each replaces the dying
    particle by a draw from ``sampler``, the offspring law given eta != 1;
    without ``sampler``, a fresh ``offspring_sampler(params)`` is built.
    q comes from ``params`` and never from the sampler, which may be any
    object with a ``draw``.  Time runs in units of 1/(rate q) (``_clock``),
    so a holding time is one exponential over the count.

    The trajectory draws from ``rng`` only: per event, a uniform u whose
    -log1p(-u) is the exponential holding time, then an offspring draw
    unless the event falls past the last horizon.  It never simulates past
    the last horizon, and an extinct population fills the remaining
    horizons with zeros without drawing again.  The population cap is
    ``SimConfig``'s default.  Raises DomainError on horizons ``SimConfig``
    rejects.
    """
    import numpy as np

    _check_horizons(horizons)
    if sampler is None:
        sampler = offspring_sampler(params)
    # the sentinel ends every horizon scan
    bounds = (*_clock(params, horizons), math.inf)
    n_horizons = len(horizons)
    path = []
    count = 1
    t = 0.0
    while count:
        t -= math.log1p(-rng.random()) / count
        while bounds[len(path)] < t:
            path.append(count)
        if len(path) == n_horizons:
            break
        count += sampler.draw(rng) - 1
        if count > _MAX_POPULATION:
            raise PopulationCapExceeded(f"population {count} exceeded cap {_MAX_POPULATION}")
    path += [0] * (n_horizons - len(path))
    return np.array(path, dtype=np.int64)


@dataclass(frozen=True)
class EmpiricalLaw:
    """Histogram of replicate counts at one horizon."""

    time: float
    counts: dict
    replicates: int

    def prob(self, n: int) -> float:
        return self.counts.get(n, 0) / self.replicates

    def mean(self) -> float:
        return math.fsum(n * c for n, c in self.counts.items()) / self.replicates


def _expected_events(params: ModelParams, horizon: float) -> float:
    """Expected count-changing events of one replicate up to ``horizon``:
    the integral of rate q E[X(t)] = rate q e^(c t) over [0, horizon],
    c = -rate alpha^2/A the ``malthusian_rate`` and q = ``change_prob``.
    Since rate q/c = -(1 + A), it is (1 + A)(1 - e^(c T)) at T = horizon,
    at most 1 + A.  -c T is taken as ``_product(rate, T, alpha (alpha/A))``,
    not as ``malthusian_rate`` times T: no partial product over- or
    underflows, and T = inf gives 1 + A."""
    a = params.alpha
    decay = _product(params.rate, horizon, a * (a / params.log_norm))
    return (1.0 + params.log_norm) * -math.expm1(-decay)


def _tally_range(cfg: SimConfig, start: int, stop: int) -> list:
    """Per-horizon histograms of replicates ``start`` to ``stop``.

    The range runs one block of ``_PATH_BLOCK`` replicates at a time through
    ``_lockstep``, and each block's counts at a horizon are histogrammed by
    ``np.unique``, so memory is bounded by the block and not by the range.
    """
    import numpy as np

    sampler = offspring_sampler(cfg.params)
    tallies = [Counter() for _ in cfg.horizons]
    for first in range(start, stop, _PATH_BLOCK):
        paths = _lockstep(cfg, sampler, first, min(first + _PATH_BLOCK, stop))
        for tally, counts in zip(tallies, paths):
            values, times = np.unique(counts, return_counts=True)
            tally.update(dict(zip(values.tolist(), times.tolist())))
    return tallies


def estimate_law(cfg: SimConfig, workers: int = 1) -> list:
    """One EmpiricalLaw per horizon, from ``cfg.replicates`` trajectories.

    Each range of replicates runs a block at a time through ``_lockstep``,
    and each block's counts are tallied per horizon.  The result is
    identical for any worker count: replicate index i always draws exactly
    what ``stream(seed, i)`` draws, and histogram merging is commutative.
    ``workers`` is capped at the CPU count: a process pool forks all of its
    workers at once, so the cap keeps a huge request from exhausting the
    process table.  Raises DomainError, before any draw, when the work
    expected, replicates x (1 + count-changing events up to the last
    horizon), exceeds ``_EVENT_BUDGET``: a replicate that takes no event
    still costs its Philox block and one holding-time draw.
    """
    if workers < 1:
        raise DomainError(f"workers must be positive, got {workers!r}")
    work = cfg.replicates * (1.0 + _expected_events(cfg.params, cfg.horizons[-1]))
    if not work <= _EVENT_BUDGET:
        raise DomainError(f"{cfg.replicates} replicates to t={cfg.horizons[-1]!r} expect "
                          f"{work:.3g} replicate starts and events, past the budget of "
                          f"{_EVENT_BUDGET:.0e}")
    workers = min(workers, os.cpu_count() or 1)
    if workers == 1 or cfg.replicates < 4 * workers:
        tallies = _tally_range(cfg, 0, cfg.replicates)
    else:
        from concurrent.futures import ProcessPoolExecutor

        import numpy.random  # loaded before the workers fork, or each one loads it

        edges = [cfg.replicates * k // (4 * workers) for k in range(4 * workers + 1)]
        tallies = [Counter() for _ in cfg.horizons]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            jobs = [pool.submit(_tally_range, cfg, a, b)
                    for a, b in zip(edges[:-1], edges[1:])]
            for job in jobs:
                for tally, part in zip(tallies, job.result()):
                    tally.update(part)
    return [
        EmpiricalLaw(t, dict(tally), cfg.replicates)
        for t, tally in zip(cfg.horizons, tallies)
    ]
