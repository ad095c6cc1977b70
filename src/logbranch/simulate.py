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
replicate and independent of scheduling.  The one event loop,
``_trajectories``, walks a whole range of replicates on one Generator
re-keyed in place by ``streams``, so replicate i still draws exactly what
``stream(seed, i)`` draws; ``simulate_counts`` is that loop run on a single
Generator.

Importing this module loads neither numpy nor the process pool: the functions
that build Generators or arrays import numpy, and ``estimate_law`` imports the
pool only when it runs more than one worker.
"""

import math
import os
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING

from .distributions import InverseCdfSampler, offspring_sampler
from .errors import DomainError, PopulationCapExceeded
from .model import ModelParams, change_prob

if TYPE_CHECKING:
    import numpy as np

_PATH_BLOCK = 4096  # replicates whose paths are counted before they are split
_MAX_POPULATION = 10_000_000  # default population cap of SimConfig and the CLI
_EVENT_BUDGET = 1e10  # most expected units of work one estimate_law run may take


def streams(seed: int, start: int, stop: int) -> "Iterator[np.random.Generator]":
    """``stream(seed, i)`` for each i in ``range(start, stop)``, as one Generator.

    A Philox stream is fully determined by its key and counter, so one Philox
    is re-keyed in place to (seed, i) with a fresh counter and an empty
    buffer: each yielded Generator draws exactly what ``stream(seed, i)``
    would, without building a new one.  Each is valid only until the next
    one is yielded.  The reused state holds plain ints rather than the uint64
    arrays ``bitgen.state`` returns, since the setter reads them element by
    element and an array would make a numpy scalar of each on every re-key.
    """
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must fit in 64 bits, got {seed!r}")
    if not 0 <= start <= stop <= 2**64:
        raise DomainError(
            f"stream indices must satisfy 0 <= start <= stop <= 2**64, got {start!r}, {stop!r}"
        )
    import numpy as np

    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    fresh = bitgen.state
    fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    key = fresh["state"]["key"]
    rng = np.random.Generator(bitgen)

    def rekeyed(index: int) -> "np.random.Generator":
        key[1] = index
        bitgen.state = fresh
        return rng

    return map(rekeyed, range(start, stop))


def stream(seed: int, index: int = 0) -> "np.random.Generator":
    """Independent counter-based RNG stream keyed by (seed, replicate index).

    Philox streams with distinct keys never overlap, so replicate i of run
    ``seed`` is reproducible in isolation regardless of scheduling.
    """
    return next(streams(seed, index, index + 1))


@dataclass(frozen=True)
class SimConfig:
    """A reproducible simulation plan."""

    params: ModelParams
    horizons: tuple
    replicates: int
    seed: int
    max_population: int = _MAX_POPULATION

    def __post_init__(self) -> None:
        if len(self.horizons) == 0:
            raise DomainError("at least one horizon time is required")
        prev = 0.0
        for t in self.horizons:
            if not t > prev:
                raise DomainError(
                    f"horizons must be strictly increasing and positive, got {self.horizons!r}"
                )
            prev = t
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


def _trajectories(params: ModelParams, horizons, rngs, sampler: InverseCdfSampler,
                  max_population: int) -> Iterator[tuple]:
    """Counts observed at each horizon along one trajectory from X(0) = 1,
    as one tuple per Generator in ``rngs``.

    Only count-changing events are simulated: they come at rate
    rate q count, q = ``change_prob(params)``, and each replaces the dying
    particle by a draw from ``sampler``, the offspring law given eta != 1.
    q comes from ``params`` and never from the sampler, which may be any
    object with a ``draw``.  Time runs in units of 1/(rate q), so a holding
    time is one exponential over the count, and each horizon is converted
    once, as ``_product(rate, q, horizon)``, which is rounded once even where
    rate q alone underflows.  Where it rounds to 0 or overflows to inf, no
    positive float sum of holding times lies between it and the exact value,
    so no event is put on the wrong side of a horizon.

    Each trajectory draws from its own Generator only: an exponential holding
    time per event, then an offspring draw unless the event falls past the
    last horizon.  An extinct population fills the remaining horizons with
    zeros without drawing again.
    """
    q = change_prob(params)
    # the sentinel ends every horizon scan
    bounds = (*(_product(params.rate, q, h) for h in horizons), math.inf)
    n_horizons = len(horizons)
    zeros = (0,) * n_horizons
    draw = sampler.draw
    for rng in rngs:
        expo = rng.standard_exponential
        path = ()
        count = 1
        t = 0.0
        i = 0
        while count:
            t += expo() / count
            while bounds[i] < t:
                path += (count,)
                i += 1
            if i == n_horizons:
                break
            count += draw(rng) - 1
            if count > max_population:
                raise PopulationCapExceeded(
                    f"population {count} exceeded cap {max_population}"
                )
        yield path + zeros[i:]


def simulate_counts(params: ModelParams, horizons, rng: "np.random.Generator",
                    sampler: InverseCdfSampler = None) -> "np.ndarray":
    """Counts observed at each horizon along one trajectory from X(0) = 1.

    This is the range event loop run on one Generator: it never simulates
    past the last horizon, and an extinct population fills the remaining
    horizons with zeros immediately.  Without ``sampler``, a fresh
    ``offspring_sampler(params)`` is built.  The population cap is
    ``SimConfig``'s default.
    """
    import numpy as np

    if sampler is None:
        sampler = offspring_sampler(params)
    path = next(_trajectories(params, horizons, (rng,), sampler, _MAX_POPULATION))
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
    not from ``malthusian_rate``, whose alpha^2 underflows below alpha
    1.5e-154 and would make c = -0.0: no partial product over- or
    underflows, and T = inf gives 1 + A."""
    a = params.alpha
    decay = _product(params.rate, horizon, a * (a / params.log_norm))
    return (1.0 + params.log_norm) * -math.expm1(-decay)


def _tally_range(cfg: SimConfig, start: int, stop: int) -> list:
    """Per-horizon histograms of replicates ``start`` to ``stop``.

    Whole paths are counted one block of ``_PATH_BLOCK`` replicates at a time,
    and each block's distinct paths are split into per-horizon histograms, so
    memory is bounded by the block and not by the range.  Paths repeat: 1.6%
    of a block's paths are distinct at alpha 0.5 with horizons (0.5, 1, 2),
    and 21% with 200 horizons up to t = 32 near the critical alpha.
    """
    trajectories = _trajectories(cfg.params, cfg.horizons,
                                 streams(cfg.seed, start, stop),
                                 offspring_sampler(cfg.params), cfg.max_population)
    tallies = [Counter() for _ in cfg.horizons]
    while block := Counter(islice(trajectories, _PATH_BLOCK)):
        for path, times in block.items():
            for tally, count in zip(tallies, path):
                tally[count] += times
    return tallies


def estimate_law(cfg: SimConfig, workers: int = 1) -> list:
    """One EmpiricalLaw per horizon, from ``cfg.replicates`` trajectories.

    Each range of replicates runs through one event loop on one Generator
    re-keyed by ``streams``, and its whole paths are tallied block by block
    before they are split into per-horizon histograms.  The result is
    identical for any worker count: replicate index i always draws exactly
    what ``stream(seed, i)`` draws, and histogram merging is commutative.
    ``workers`` is capped at the CPU count: a process pool forks all of its
    workers at once, so the cap keeps a huge request from exhausting the
    process table.  Raises DomainError, before any draw, when the work
    expected, replicates x (1 + count-changing events up to the last
    horizon), exceeds ``_EVENT_BUDGET``: a replicate that takes no event
    still costs its re-key and one holding-time draw.
    """
    if workers < 1:
        raise DomainError(f"workers must be positive, got {workers!r}")
    work = cfg.replicates * (1.0 + _expected_events(cfg.params, cfg.horizons[-1]))
    if not work <= _EVENT_BUDGET:
        raise DomainError(f"{cfg.replicates} replicates to t={cfg.horizons[-1]!r} expect "
                          f"{work:.3g} re-keys and events, past the budget of "
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
