"""Branching mechanism: offspring law and jump-rate function.

The offspring count of a dying particle mixes a unit atom, an atom at zero,
and a doubly-logarithmic tail::

    P(eta = 0) = alpha
    P(eta = 1) = 1 - alpha^2 (1 + 1/A)
    P(eta = n) = (alpha / A) alpha^n / (n (n - 1)),   n >= 2

with A = -log(1 - alpha).  The mean is m = 1 - alpha^2 / A < 1, so the
process is subcritical for every admissible weight.  Admissibility means
the unit atom keeps positive mass, i.e. alpha < ALPHA_CRITICAL, the unique
root of x^2 (1 + 1/A(x)) = 1 in (0, 1).

Each particle lives an exponential time with parameter ``rate``; on death it
is replaced by eta particles.  With h(s) = E[s^eta] the reproduction
p.g.f., the generator of the induced p.g.f. semigroup is
f(s) = rate * (h(s) - s), which factors as
(rate * alpha / A) (1 - alpha s) (A + log(1 - alpha s)).
"""

import math
import sys
from dataclasses import dataclass, field

from .errors import DomainError


def _unit_atom_deficit(x: float) -> float:
    # x^2 (1 + 1/A(x)) - 1; negative iff P(eta = 1) > 0
    return x * x * (1.0 + 1.0 / (-math.log1p(-x))) - 1.0


def critical_alpha() -> float:
    """Largest admissible mixture weight, located by bisection.

    The deficit x^2 (1 + 1/A(x)) - 1 is negative at 1e-6 and positive at
    1 - 1e-9 and crosses zero exactly once, so plain bisection converges to
    the root to within 1e-12.
    """
    lo, hi = 1e-6, 1.0 - 1e-9
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _unit_atom_deficit(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


ALPHA_CRITICAL = critical_alpha()


@dataclass(frozen=True)
class ModelParams:
    """Validated (alpha, rate) pair plus the derived constants used everywhere.

    ``log_norm`` is A = -log(1 - alpha), ``offspring_mean`` is
    m = 1 - alpha^2 / A, and ``malthusian_rate`` is the decay exponent
    f'(1) = -rate * alpha^2 / A of the expected population size.
    """

    alpha: float
    rate: float
    log_norm: float = field(init=False, repr=False, compare=False)
    offspring_mean: float = field(init=False, repr=False, compare=False)
    malthusian_rate: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < ALPHA_CRITICAL):
            raise DomainError(
                f"alpha must lie in (0, {ALPHA_CRITICAL:.6f}), got {self.alpha!r}"
            )
        if not 0.0 < self.rate < math.inf:
            raise DomainError(f"rate must be positive and finite, got {self.rate!r}")
        a_const = -math.log1p(-self.alpha)
        square = self.alpha**2
        object.__setattr__(self, "log_norm", a_const)
        object.__setattr__(self, "offspring_mean", 1.0 - square / a_const)
        # alpha^2 leaves the normal range below alpha 1.5e-154, where alpha/A
        # is about 1 and keeps every bit
        object.__setattr__(self, "malthusian_rate",
                           -self.rate * square / a_const if square >= sys.float_info.min
                           else -self.rate * self.alpha * (self.alpha / a_const))

    def at(self, t: float) -> "TimePoint":
        """Time point carrying the decayed mean E[X(t)] = exp(malthusian_rate * t).

        Raises DomainError once M < 1 and M * min(1, A) leaves the normal
        float range: a subnormal M (or M A) keeps too few significant bits for
        the laws built from it, which would then be silently wrong.  Where M
        rounds to 1 the laws are the exact unit atom, which needs no product
        M A, so a subnormal A (alpha itself subnormal) stays admissible.
        """
        if not 0.0 <= t < math.inf:
            raise DomainError(f"time must be nonnegative and finite, got {t!r}")
        mean = math.exp(self.malthusian_rate * t)
        if mean < 1.0 and mean * min(1.0, self.log_norm) < sys.float_info.min:
            raise DomainError(
                f"mean exp({self.malthusian_rate!r} * t) = {mean!r} is too small "
                f"to resolve at t={t!r}: M * min(1, A) is below the normal range"
            )
        return TimePoint(t, mean)


@dataclass(frozen=True)
class TimePoint:
    """A process time t >= 0 paired with the mean population size M at t."""

    t: float
    mean: float

    def __post_init__(self) -> None:
        if not self.t >= 0.0:
            raise DomainError(f"time must be nonnegative, got {self.t!r}")
        if not 0.0 < self.mean <= 1.0:
            raise DomainError(f"mean must lie in (0, 1], got {self.mean!r}")


def change_prob(params: ModelParams) -> float:
    """q = P(eta != 1) = alpha^2 (1 + 1/A), the share of deaths that change
    the count.

    Taken as alpha (alpha + alpha/A), which has no 1 - (1 - x) cancellation
    and no 1/A to overflow: at a subnormal alpha, alpha/A is 1 and q is
    alpha, where alpha^2 alone would underflow to 0.
    """
    a = params.alpha
    return a * (a + a / params.log_norm)


def offspring_pmf(params: ModelParams, n: int) -> float:
    """P(eta = n) for the logarithmic-mixture offspring law."""
    if n < 0:
        raise DomainError(f"offspring count must be nonnegative, got {n!r}")
    a = params.alpha
    if n == 0:
        return a
    if n == 1:
        return 1.0 - change_prob(params)
    return (a / params.log_norm) * a**n / (n * (n - 1.0))


def changed_offspring_pmf(params: ModelParams, n: int) -> float:
    """P(eta = n | eta != 1), the offspring law of a death that changes the
    count: ``offspring_pmf`` over ``change_prob`` off n = 1, in closed form::

        P'(0) = A / (alpha (1 + A)) = 1 / (alpha + alpha/A)
        P'(1) = 0
        P'(n) = alpha^(n-1) / ((1 + A) n (n - 1)),   n >= 2

    Dividing the two floats instead would lose every term at tiny alpha,
    where P(eta = n) underflows for n >= 2 while P'(2) is alpha/2.  The tail
    ratio P'(n+1)/P'(n) = alpha (n - 1)/(n + 1) stays below alpha.
    """
    if n < 0:
        raise DomainError(f"offspring count must be nonnegative, got {n!r}")
    a = params.alpha
    if n == 0:
        return 1.0 / (a + a / params.log_norm)
    if n == 1:
        return 0.0
    return a ** (n - 1) / ((1.0 + params.log_norm) * (n * (n - 1.0)))


def _log_ratio(params: ModelParams, s: float) -> float:
    # log R(s) = log((1 - alpha s)/(1 - alpha)) = A + log(1 - alpha s),
    # without cancellation for s in [-1, 1]
    return math.log1p(params.alpha * (1.0 - s) / (1.0 - params.alpha))


def infinitesimal_gen(params: ModelParams, s: float) -> float:
    """Jump-rate function f(s) = rate * (h(s) - s) in its factored form.

    Computed as (rate * alpha / A) (1 - alpha s) log R(s), where
    log R(s) = log1p(alpha(1-s)/(1-alpha)) equals A + log(1 - alpha s)
    without cancellation, so f(1) = 0 holds exactly.  Raises OverflowError
    when f(s) exceeds float range (rate near the float maximum, s < 0).
    """
    if not abs(s) <= 1.0:
        raise DomainError(f"pgf argument must satisfy |s| <= 1, got {s!r}")
    a = params.alpha
    log_r = _log_ratio(params, s)
    value = (params.rate * a / params.log_norm) * (1.0 - a * s) * log_r
    if value == math.inf:
        # the leading product can overflow where f(s) itself does not
        value = params.rate * (a / params.log_norm * (1.0 - a * s) * log_r)
        if value == math.inf:
            raise OverflowError(f"f({s!r}) exceeds float range at rate {params.rate!r}")
    return value
