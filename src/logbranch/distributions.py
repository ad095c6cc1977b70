"""Heavy-tailed discrete laws and exact inverse-CDF samplers.

Two families live here: ExtendedSibuya, with pgf
(1 - (1-bs)^gamma) / (1 - (1-b)^gamma), and LogSeries, the logarithmic
series law.  They are the laws of the branching process's two results, and
``closed_form`` evaluates both through them: given survival, X(t) is exactly
ExtendedSibuya(M(t), alpha), so its unconditional pmf is the survival
probability times this family's, and its long-time conditional limit is
exactly LogSeries(alpha).

Every term costs O(1).  The ExtendedSibuya terms carry the falling factorial
|[gamma]_n| = gamma (1 - gamma) ... (n - 1 - gamma), which for 0 < gamma < 1
telescopes to gamma Gamma(n - gamma) / Gamma(1 - gamma) and is assembled in
log space through ``lgamma``.  At gamma = 1 the factorial is 0 for every
n >= 2, and the family is exactly the unit atom at 1.  Each law computes the
constants of its terms (the logs of its parameters, lgamma(1 - gamma), the
log-odds, the log normaliser) once, when it is built, so a term costs one
or two ``lgamma`` calls and an ``exp``.

Sampling takes one uniform a draw, inverted by bisection in a CDF table, so
a draw is exact to the 2^-53 resolution of its uniform.

Nothing here imports numpy when the module loads: the laws are stdlib
``math``, and the closed form and the ``pmf`` and ``limit`` commands import
this module, so they would otherwise pay numpy's start-up for nothing.  A
sampler draws from whatever Generator it is handed, and only
``draw_many``, which returns an array, imports numpy itself.
"""

import bisect
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import TYPE_CHECKING

from .errors import DomainError
from .model import ModelParams, changed_offspring_pmf

if TYPE_CHECKING:
    import numpy as np


def _log_falling_mean(m: float, log_m: float, gap: float, n: int) -> float:
    """log |[m]_n| for 0 < m < 1 and n >= 1, in O(1) work, given
    log_m = log m and gap = lgamma(1 - m).

    |[m]_n| = m (1 - m) (2 - m) ... (n - 1 - m) telescopes to
    m Gamma(n - m) / Gamma(1 - m), so the log is
    log m + lgamma(n - m) - lgamma(1 - m).
    """
    return log_m + math.lgamma(n - m) - gap


@dataclass(frozen=True)
class ExtendedSibuya:
    """Two-parameter power-series law on {1, 2, ...} with pgf
    (1 - (1 - b s)^gamma) / (1 - (1 - b)^gamma), 0 < gamma <= 1, 0 < b < 1.

    P(N = n) = b^n |[gamma]_n| / (n! (1 - (1 - b)^gamma)).  ``log_norm`` is
    log(1 - (1 - b)^gamma), taken through expm1 so it keeps full precision
    however small gamma gets; ``log_b``, ``log_gamma`` and ``lgamma_gap`` =
    lgamma(1 - gamma) are the other constants of a term.  At gamma = 1 the
    law is the unit atom at 1, whose pmf, factorial moments and pgf are
    returned exactly.  Below gamma = 1, a gamma * -log(1 - b) outside the
    normal float range raises DomainError, as M * min(1, A) does in
    ``ModelParams.at``: the normaliser would keep too few bits to trust.
    """

    gamma: float
    b: float
    log_norm: float = field(init=False, repr=False, compare=False)
    log_b: float = field(init=False, repr=False, compare=False)
    log_gamma: float = field(init=False, repr=False, compare=False)
    lgamma_gap: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise DomainError(f"gamma must lie in (0, 1], got {self.gamma!r}")
        if not 0.0 < self.b < 1.0:
            raise DomainError(f"b must lie in (0, 1), got {self.b!r}")
        exponent = self.gamma * math.log1p(-self.b)
        if self.gamma < 1.0 and -exponent < sys.float_info.min:
            raise DomainError(f"gamma * -log(1 - b) = {-exponent!r} is below the "
                              f"normal range at gamma={self.gamma!r}, b={self.b!r}")
        object.__setattr__(self, "log_norm", math.log(-math.expm1(exponent)))
        object.__setattr__(self, "log_b", math.log(self.b))
        object.__setattr__(self, "log_gamma", math.log(self.gamma))
        # +inf at the pole gamma = 1, where the law is the unit atom and no
        # term uses it
        object.__setattr__(self, "lgamma_gap", math.lgamma(1.0 - self.gamma)
                           if self.gamma < 1.0 else math.inf)

    def pmf(self, n: int) -> float:
        if n < 1:
            raise DomainError(f"support starts at 1, got {n!r}")
        if self.gamma == 1.0:
            return float(n == 1)
        log_p = (
            n * self.log_b
            + _log_falling_mean(self.gamma, self.log_gamma, self.lgamma_gap, n)
            - math.lgamma(n + 1.0)
            - self.log_norm
        )
        # log_p < 0 exactly; at n = 1 with gamma a few ulps below 1, rounding
        # can leave it an ulp above 0, a probability above 1
        return math.exp(log_p) if log_p < 0.0 else 1.0

    def factorial_moment(self, n: int) -> float:
        """E[[N]_n] = (b/(1-b))^n (1-b)^gamma |[gamma]_n| / (1 - (1-b)^gamma);
        OverflowError when it exceeds float range."""
        if n < 1:
            raise DomainError(f"moment order must be positive, got {n!r}")
        if self.gamma == 1.0:
            return float(n == 1)
        return math.exp(
            n * (self.log_b - math.log1p(-self.b))
            + self.gamma * math.log1p(-self.b)
            + _log_falling_mean(self.gamma, self.log_gamma, self.lgamma_gap, n)
            - self.log_norm
        )

    def pgf(self, s: float) -> float:
        """Numerator and denominator both go through expm1, so the ratio keeps
        full precision however small gamma gets; s = 1 returns exactly 1."""
        if not abs(s) <= 1.0:
            raise DomainError(f"pgf argument must satisfy |s| <= 1, got {s!r}")
        if self.gamma == 1.0:
            return s
        num = math.expm1(self.gamma * math.log1p(-self.b * s))
        return num / math.expm1(self.gamma * math.log1p(-self.b))


@dataclass(frozen=True)
class LogSeries:
    """Logarithmic series law on {1, 2, ...}: P(N = n) = alpha^n / (A n),
    A = -log(1 - alpha).

    ``log_norm`` is A; ``log_log_norm`` = log A and ``log_odds`` =
    log(alpha / (1 - alpha)) are the constants of a factorial moment.
    """

    alpha: float
    log_norm: float = field(init=False, repr=False, compare=False)
    log_log_norm: float = field(init=False, repr=False, compare=False)
    log_odds: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        object.__setattr__(self, "log_norm", -math.log1p(-self.alpha))
        object.__setattr__(self, "log_log_norm", math.log(self.log_norm))
        object.__setattr__(
            self, "log_odds", math.log(self.alpha) - math.log1p(-self.alpha)
        )

    def pmf(self, n: int) -> float:
        if n < 1:
            raise DomainError(f"support starts at 1, got {n!r}")
        power = self.alpha**n
        scale = self.log_norm * n
        if power < sys.float_info.min and scale < 1.0:
            # alpha^n fell below the normal range, losing bits that the
            # division by A n < 1 would scale back up (at alpha 1e-200,
            # pmf(2) came out 0.0); alpha/A is near 1 and loses none
            return (self.alpha / self.log_norm) * self.alpha ** (n - 1) / n
        return power / scale

    def factorial_moment(self, n: int) -> float:
        """E[[N]_n] = ((n-1)!/A) (alpha/(1-alpha))^n; OverflowError when it
        exceeds float range (the moments grow like (n-1)!)."""
        if n < 1:
            raise DomainError(f"moment order must be positive, got {n!r}")
        return math.exp(math.lgamma(n) - self.log_log_norm + n * self.log_odds)

    def pgf(self, s: float) -> float:
        """-log(1 - alpha s) / A."""
        if not abs(s) <= 1.0:
            raise DomainError(f"pgf argument must satisfy |s| <= 1, got {s!r}")
        return math.log1p(-self.alpha * s) / math.log1p(-self.alpha)


_MAX_TERMS = 4096  # most terms one certified run evaluates


def _certified_terms(pmf, start: int, first: int, ratio: float, bound: float) -> list:
    """[pmf(start), ..., pmf(end)] for the first end >= first where pmf(end)
    is 0.0 or pmf(end) ratio/(1 - ratio) < max(bound, ulp(sum of terms)/2).

    That product bounds the mass past end wherever pmf(n + 1) <= ratio pmf(n)
    from ``first`` on, as for both families (ratio alpha or b, from n = 1)
    and the offspring law (ratio alpha, from n = 2).  The law tables in
    ``closed_form``, the sampler's CDF and the CLI's ``tail`` row are cut
    here.  A run past ``_MAX_TERMS`` terms, which only a pmf that breaks its
    ratio or a ratio above about 0.99 needs, raises DomainError.
    """
    if not 0.0 < ratio < 1.0:
        raise DomainError(f"ratio bound must lie in (0, 1), got {ratio!r}")
    odds = ratio / (1.0 - ratio)
    terms = []
    total = 0.0
    for n in range(start, start + _MAX_TERMS):
        p = pmf(n)
        terms.append(p)
        total += p
        if n >= first and (p == 0.0 or p * odds < max(bound, math.ulp(total) / 2.0)):
            return terms
    raise DomainError(f"ratio bound {ratio!r} does not certify the tail "
                      f"within {_MAX_TERMS} terms")


def offspring_sampler(params: ModelParams) -> "InverseCdfSampler":
    """Sampler for the offspring law of a death that changes the count,
    ``changed_offspring_pmf``: the reproduction law given eta != 1, which the
    simulator draws at its count-changing events only.  The table holds a
    zero-width entry at n = 1, which no uniform lands in; the tail ratio
    alpha holds from n >= 2."""
    return InverseCdfSampler(partial(changed_offspring_pmf, params), 0,
                             ratio_bound=params.alpha)


class InverseCdfSampler:
    """Inverse-CDF sampler drawing one uniform per value, exact to the 2^-53
    resolution of ``rng.random()``.

    The CDF is the running sum of ``_certified_terms`` from
    ``support_start`` at bound 2^-53, at least 3 entries, with the last
    cumulative mass inf, so the last value takes every uniform past the one
    before.  A draw is ``support_start + bisect_right(cum, u)`` for one u =
    ``rng.random()``, a multiple of 2^-53, so each cell's mass is already
    rounded to that step, and to a few ulps by the float cumulative sum; the
    tail left out is smaller than one step.
    """

    def __init__(self, pmf, support_start: int, ratio_bound: float):
        cum = list(accumulate(_certified_terms(pmf, support_start, support_start + 2,
                                               ratio_bound, 2.0**-53)))
        cum[-1] = math.inf
        self._cum = cum
        self._support_start = support_start

    def draw(self, rng: "np.random.Generator") -> int:
        return self._support_start + bisect.bisect_right(self._cum, rng.random())

    def draw_many(self, rng: "np.random.Generator", size: int) -> "np.ndarray":
        import numpy as np

        return self._support_start + np.searchsorted(self._cum, rng.random(size), side="right")
