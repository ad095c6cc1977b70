"""Event-driven exact simulation of the branching process.

A population of ``count`` particles jumps after an Exp(rate * count) holding
time; one particle dies and is replaced by a draw from the offspring law, so
the count moves by (offspring - 1).  No discretization is involved: replicate
trajectories follow the continuous-time law exactly, and every replicate owns
a dedicated counter-based RNG stream keyed by (seed, replicate index), which
makes runs reproducible replicate by replicate and independent of scheduling.
A range of replicates runs on one Generator re-keyed in place by ``streams``,
so replicate i still draws exactly what ``stream(seed, i)`` draws.
"""

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import InverseCdfSampler, offspring_sampler, streams
from .errors import DomainError, PopulationCapExceeded
from .model import ModelParams


@dataclass(frozen=True)
class SimConfig:
    """A reproducible simulation plan."""

    params: ModelParams
    horizons: tuple
    replicates: int
    seed: int
    max_population: int = 10_000_000

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
        if self.replicates < 1:
            raise DomainError(f"replicates must be positive, got {self.replicates!r}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit in 64 bits, got {self.seed!r}")
        if self.max_population < 1:
            raise DomainError(
                f"max_population must be positive, got {self.max_population!r}"
            )


def simulate_counts(params: ModelParams, horizons, rng: np.random.Generator,
                    sampler: InverseCdfSampler = None,
                    max_population: int = 10_000_000) -> np.ndarray:
    """Counts observed at each horizon along one trajectory from X(0) = 1.

    The event loop never simulates past the last horizon, and an extinct
    population fills the remaining horizons with zeros immediately.  Without
    ``sampler``, a fresh ``offspring_sampler(params)`` is built.
    """
    if sampler is None:
        sampler = offspring_sampler(params)
    out = np.empty(len(horizons), dtype=np.int64)
    count = 1
    t = 0.0
    i = 0
    n_horizons = len(horizons)
    rate = params.rate
    draw = sampler.draw
    expo = rng.standard_exponential
    while True:
        if count == 0:
            out[i:] = 0
            return out
        t_next = t + expo() / (rate * count)
        while i < n_horizons and horizons[i] < t_next:
            out[i] = count
            i += 1
        if i == n_horizons:
            return out
        t = t_next
        count += draw(rng) - 1
        if count > max_population:
            raise PopulationCapExceeded(
                f"population {count} exceeded cap {max_population}"
            )


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

    def extinction_freq(self) -> float:
        return self.counts.get(0, 0) / self.replicates


def _tally_range(cfg: SimConfig, start: int, stop: int) -> list:
    tallies = [Counter() for _ in cfg.horizons]
    params = cfg.params
    horizons = cfg.horizons
    cap = cfg.max_population
    sampler = offspring_sampler(params)
    for rng in streams(cfg.seed, start, stop):
        counts = simulate_counts(params, horizons, rng, sampler, cap)
        for tally, c in zip(tallies, counts):
            tally[int(c)] += 1
    return tallies


def estimate_law(cfg: SimConfig, workers: int = 1) -> list:
    """One EmpiricalLaw per horizon, from ``cfg.replicates`` trajectories.

    Each range of replicates runs on one Generator re-keyed by ``streams``.
    The result is identical for any worker count: replicate index i always
    draws exactly what ``stream(seed, i)`` draws, and histogram merging is
    commutative.
    """
    if workers < 1:
        raise DomainError(f"workers must be positive, got {workers!r}")
    if workers == 1 or cfg.replicates < 4 * workers:
        tallies = _tally_range(cfg, 0, cfg.replicates)
    else:
        edges = np.linspace(0, cfg.replicates, 4 * workers + 1).astype(int)
        tallies = [Counter() for _ in cfg.horizons]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            jobs = [pool.submit(_tally_range, cfg, int(a), int(b))
                    for a, b in zip(edges[:-1], edges[1:])]
            for job in jobs:
                for tally, part in zip(tallies, job.result()):
                    tally.update(part)
    return [
        EmpiricalLaw(t, dict(tally), cfg.replicates)
        for t, tally in zip(cfg.horizons, tallies)
    ]
