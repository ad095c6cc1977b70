"""Heavy-tailed discrete laws and exact inverse-CDF samplers.

Two families live here: ExtendedSibuya, with pgf
(1 - (1-bs)^gamma) / (1 - (1-b)^gamma), and LogSeries, the logarithmic
series law.  They are the laws of the branching process's two results, and
``closed_form`` evaluates both through them: given survival, X(t) is exactly
ExtendedSibuya(M(t), alpha), and its long-time conditional limit is exactly
LogSeries(alpha).

Every term costs O(1).  The ExtendedSibuya terms carry the falling factorial
|[gamma]_n| = gamma (1 - gamma) ... (n - 1 - gamma), which for 0 < gamma < 1
telescopes to gamma Gamma(n - gamma) / Gamma(1 - gamma) and is assembled in
log space through ``lgamma``.

Sampling is exact: a prefix of the CDF is tabulated from the pmf and inverted
by bisection; draws falling past the table run rejection under a certified
geometric envelope p(n+1) <= r p(n), the one tail path every sampled law
here (both families and the offspring law) admits.
"""

import bisect
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DomainError
from .model import ModelParams, offspring_pmf


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent counter-based RNG stream keyed by (seed, replicate index).

    Philox streams with distinct keys never overlap, so replicate i of run
    ``seed`` is reproducible in isolation regardless of scheduling.
    """
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must fit in 64 bits, got {seed!r}")
    if not 0 <= index < 2**64:
        raise DomainError(f"stream index must fit in 64 bits, got {index!r}")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _log_falling_mean(m: float, n: int) -> float:
    """log |[m]_n| for 0 < m < 1 and n >= 1, in O(1) work.

    |[m]_n| = m (1 - m) (2 - m) ... (n - 1 - m) telescopes to
    m Gamma(n - m) / Gamma(1 - m), so the log is
    log m + lgamma(n - m) - lgamma(1 - m).
    """
    return math.log(m) + math.lgamma(n - m) - math.lgamma(1.0 - m)


@dataclass(frozen=True)
class ExtendedSibuya:
    """Two-parameter power-series law on {1, 2, ...} with pgf
    (1 - (1 - b s)^gamma) / (1 - (1 - b)^gamma), 0 < gamma < 1, 0 < b < 1.

    P(N = n) = b^n |[gamma]_n| / (n! (1 - (1 - b)^gamma)).  ``log_norm`` is
    log(1 - (1 - b)^gamma), taken through expm1 so it keeps full precision
    however small gamma gets.
    """

    gamma: float
    b: float
    log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise DomainError(f"gamma must lie in (0, 1), got {self.gamma!r}")
        if not 0.0 < self.b < 1.0:
            raise DomainError(f"b must lie in (0, 1), got {self.b!r}")
        object.__setattr__(
            self, "log_norm", math.log(-math.expm1(self.gamma * math.log1p(-self.b)))
        )

    def pmf(self, n: int) -> float:
        if n < 1:
            raise DomainError(f"support starts at 1, got {n!r}")
        return math.exp(
            n * math.log(self.b)
            + _log_falling_mean(self.gamma, n)
            - math.lgamma(n + 1.0)
            - self.log_norm
        )

    def factorial_moment(self, n: int) -> float:
        """E[[N]_n] = (b/(1-b))^n (1-b)^gamma |[gamma]_n| / (1 - (1-b)^gamma);
        OverflowError when it exceeds float range."""
        if n < 1:
            raise DomainError(f"moment order must be positive, got {n!r}")
        log_odds = math.log(self.b) - math.log1p(-self.b)
        return math.exp(
            n * log_odds
            + self.gamma * math.log1p(-self.b)
            + _log_falling_mean(self.gamma, n)
            - self.log_norm
        )

    def pgf(self, s: float) -> float:
        """Numerator and denominator both go through expm1, so the ratio keeps
        full precision however small gamma gets; s = 1 returns exactly 1."""
        if not abs(s) <= 1.0:
            raise DomainError(f"pgf argument must satisfy |s| <= 1, got {s!r}")
        num = math.expm1(self.gamma * math.log1p(-self.b * s))
        return num / math.expm1(self.gamma * math.log1p(-self.b))

    def mean(self) -> float:
        """gamma b (1-b)^(gamma-1) / (1 - (1-b)^gamma)."""
        log_scale = (self.gamma - 1.0) * math.log1p(-self.b) - self.log_norm
        return self.gamma * self.b * math.exp(log_scale)

    def sampler(self, **kwargs) -> "InverseCdfSampler":
        return InverseCdfSampler(self.pmf, 1, ratio_bound=self.b, **kwargs)


@dataclass(frozen=True)
class LogSeries:
    """Logarithmic series law on {1, 2, ...}: P(N = n) = alpha^n / (A n),
    A = -log(1 - alpha)."""

    alpha: float
    log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        object.__setattr__(self, "log_norm", -math.log1p(-self.alpha))

    def pmf(self, n: int) -> float:
        if n < 1:
            raise DomainError(f"support starts at 1, got {n!r}")
        return self.alpha**n / (self.log_norm * n)

    def factorial_moment(self, n: int) -> float:
        """E[[N]_n] = ((n-1)!/A) (alpha/(1-alpha))^n; OverflowError when it
        exceeds float range (the moments grow like (n-1)!)."""
        if n < 1:
            raise DomainError(f"moment order must be positive, got {n!r}")
        log_odds = math.log(self.alpha) - math.log1p(-self.alpha)
        return math.exp(math.lgamma(n) - math.log(self.log_norm) + n * log_odds)

    def pgf(self, s: float) -> float:
        """-log(1 - alpha s) / A."""
        if not abs(s) <= 1.0:
            raise DomainError(f"pgf argument must satisfy |s| <= 1, got {s!r}")
        return math.log1p(-self.alpha * s) / math.log1p(-self.alpha)

    def mean(self) -> float:
        return self.alpha / (self.log_norm * (1.0 - self.alpha))

    def sampler(self, **kwargs) -> "InverseCdfSampler":
        return InverseCdfSampler(self.pmf, 1, ratio_bound=self.alpha, **kwargs)


def offspring_sampler(params: ModelParams, **kwargs) -> "InverseCdfSampler":
    """Exact sampler for the reproduction law; tail ratio alpha holds from n >= 2."""
    return InverseCdfSampler(
        partial(offspring_pmf, params), 0, ratio_bound=params.alpha, **kwargs
    )


class InverseCdfSampler:
    """Exact sampler: tabulated CDF prefix plus a certified geometric tail.

    The table is warmed to ``warm_mass`` cumulative probability, with at
    least 3 and at most ``max_table`` entries, so that the geometric ratio
    certificate pmf(n+1) <= ratio_bound * pmf(n) holds from the table edge
    on for every law sampled here.  Uniform draws landing past the table are
    resolved exactly by rejection under the envelope
    pmf(edge+1) * ratio_bound^(k - edge - 1).
    """

    def __init__(self, pmf, support_start: int, ratio_bound: float,
                 warm_mass: float = 0.99, max_table: int = 4096):
        if not 0.0 < ratio_bound < 1.0:
            raise DomainError(f"ratio bound must lie in (0, 1), got {ratio_bound!r}")
        if not 0.0 < warm_mass < 1.0:
            raise DomainError(f"warm mass must lie in (0, 1), got {warm_mass!r}")
        if max_table < 3:
            raise DomainError(f"max table must be at least 3, got {max_table!r}")
        self._pmf = pmf
        self._support_start = support_start
        self._ratio_bound = ratio_bound
        cum = []
        total = 0.0
        while (total < warm_mass or len(cum) < 3) and len(cum) < max_table:
            total += pmf(support_start + len(cum))
            cum.append(total)
        self._cum = cum
        self._cum_arr = np.array(cum)
        self._support_end = support_start + len(cum) - 1

    def draw(self, rng: np.random.Generator) -> int:
        u = rng.random()
        if u < self._cum[-1]:
            return self._support_start + bisect.bisect_right(self._cum, u)
        return self._reject_geometric(rng)

    def draw_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        idx = np.searchsorted(self._cum_arr, u, side="right")
        out = self._support_start + idx
        for pos in np.flatnonzero(idx == len(self._cum)):
            out[pos] = self._reject_geometric(rng)
        return out

    def _reject_geometric(self, rng: np.random.Generator) -> int:
        edge = self._support_end
        r = self._ratio_bound
        p_next = self._pmf(edge + 1)
        while True:
            k = edge + int(rng.geometric(1.0 - r))
            envelope = p_next * r ** (k - edge - 1)
            if rng.random() * envelope <= self._pmf(k):
                return k
