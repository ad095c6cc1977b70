"""Time-t law of the branching process, in closed form.

Everything here is a pure function of (ModelParams, TimePoint).  Writing
M = M(t) for the mean and A = -log(1 - alpha), the generating function of
the population size X(t) started from a single particle is

    F(t, s) = (1/alpha) * (1 - (1 - alpha) * R(s)^M),
    R(s) = (1 - alpha s) / (1 - alpha),

from which the pmf and the factorial moments follow.  The two laws the paper
identifies are evaluated through their families in ``distributions``: given
survival, X(t) is exactly ExtendedSibuya(M, alpha), which
``conditional_family`` returns after the t > 0 check (the exact unit atom
where M rounds to 1), and its long-time limit is exactly LogSeries(alpha).
``conditional_pmf``, ``limit_law_pmf`` and ``limit_law_factorial_moment``
are one-line wrappers over those families, kept only because the
benchmark's traced replay (``perfbench/spans.py``) calls them by name; call
the families directly instead.

Every term of the pmf and of the factorial moments carries the falling
factorial |[M]_n| = M (1 - M) (2 - M) ... (n - 1 - M).  For 0 < M < 1 and
n >= 1 it telescopes to the gamma ratio

    |[M]_n| = M * Gamma(n - M) / Gamma(1 - M),    sign (-1)^(n-1),

so each term costs O(1) through ``lgamma`` and a table up to n costs O(n).
All spectrum-spanning products are assembled in log space so that nothing
overflows before the caller asks for an ordinary float.
"""

import math
from dataclasses import dataclass

from .distributions import ExtendedSibuya, LogSeries, _log_falling_mean
from .errors import DomainError, PrecisionLoss
from .model import ModelParams, TimePoint


class _UnitAtom:
    """All mass at 1: the law of X(t) wherever M rounds to 1 (t = 0, or t > 0
    too small for exp(malthusian_rate t) to leave 1), with or without
    conditioning on survival.  It is the gamma -> 1 end of
    ExtendedSibuya(gamma, alpha), which that family's (0, 1) domain leaves
    out; its pmf and its factorial moments are both 1 at n = 1 and 0 beyond.
    """

    def pmf(self, n: int) -> float:
        if n < 1:
            raise DomainError(f"support starts at 1, got {n!r}")
        return 1.0 if n == 1 else 0.0

    def factorial_moment(self, n: int) -> float:
        if n < 1:
            raise DomainError(f"moment order must be positive, got {n!r}")
        return 1.0 if n == 1 else 0.0

    def pgf(self, s: float) -> float:
        if not abs(s) <= 1.0:
            raise DomainError(f"pgf argument must satisfy |s| <= 1, got {s!r}")
        return s


_UNIT_ATOM = _UnitAtom()


def _log_ratio(params: ModelParams, s: float) -> float:
    # log R(s) = log((1 - alpha s)/(1 - alpha)), stable for s in [-1, 1]
    return math.log1p(params.alpha * (1.0 - s) / (1.0 - params.alpha))


def pgf_complement(params: ModelParams, tp: TimePoint, s: float) -> float:
    """1 - F(t, s) = ((1 - alpha)/alpha) * (R(s)^M - 1), the survival-side form.

    expm1 keeps full relative precision as M -> 0 or s -> 1, where the
    direct difference would cancel.
    """
    if not abs(s) <= 1.0:
        raise DomainError(f"pgf argument must satisfy |s| <= 1, got {s!r}")
    a = params.alpha
    return ((1.0 - a) / a) * math.expm1(tp.mean * _log_ratio(params, s))


def pgf_at(params: ModelParams, tp: TimePoint, s: float) -> float:
    """F(t, s) = E[s^X(t)]; exact 1 at s = 1 and exact s at t = 0 up to rounding."""
    return 1.0 - pgf_complement(params, tp, s)


def survival_prob(params: ModelParams, tp: TimePoint) -> float:
    """P(X(t) > 0) = ((1 - alpha)/alpha) * (exp(M A) - 1), via expm1."""
    return pgf_complement(params, tp, 0.0)


def extinction_prob(params: ModelParams, tp: TimePoint) -> float:
    """P(X(t) = 0); complements survival_prob bit for bit."""
    return 1.0 - survival_prob(params, tp)


def pmf(params: ModelParams, tp: TimePoint, n: int) -> float:
    """P(X(t) = n).

    For n >= 1 and 0 < M < 1 this is
    ((1-alpha)^(1-M)/alpha) alpha^n |[M]_n| / n!, assembled in log space with
    |[M]_n| = M Gamma(n - M) / Gamma(1 - M), so one term costs O(1) for any n.
    Where M rounds to 1 the law is exactly the unit atom at 1.
    """
    if n < 0:
        raise DomainError(f"population size must be nonnegative, got {n!r}")
    if tp.mean == 1.0:
        return _UNIT_ATOM.pmf(n) if n > 0 else 0.0
    if n == 0:
        return extinction_prob(params, tp)
    a = params.alpha
    log_p = (
        math.log1p(-a)
        - math.log(a)
        + n * math.log(a)
        + tp.mean * params.log_norm
        + _log_falling_mean(tp.mean, n)
        - math.lgamma(n + 1.0)
    )
    return math.exp(log_p)


def factorial_moment(params: ModelParams, tp: TimePoint, n: int) -> float:
    """E[X(t) (X(t)-1) ... (X(t)-n+1)] = ((1-alpha)/alpha) (alpha/(1-alpha))^n |[M]_n|."""
    if n < 1:
        raise DomainError(f"moment order must be positive, got {n!r}")
    if tp.mean == 1.0:
        return _UNIT_ATOM.factorial_moment(n)
    a = params.alpha
    log_odds = math.log(a) - math.log1p(-a)
    return math.exp(
        math.log1p(-a) - math.log(a) + n * log_odds + _log_falling_mean(tp.mean, n)
    )


def conditional_family(params: ModelParams, tp: TimePoint):
    """The law of X(t) given X(t) > 0, for t > 0: ExtendedSibuya(M, alpha).

    Where M rounds to 1 this is the unit atom at 1, the family's gamma -> 1
    end.  The result has ``pmf``, ``pgf`` and ``factorial_moment``; build it
    once to evaluate many terms at the same time point.
    """
    if not tp.t > 0.0:
        raise DomainError("conditioning on survival requires t > 0")
    if tp.mean == 1.0:
        return _UNIT_ATOM
    return ExtendedSibuya(tp.mean, params.alpha)


def conditional_pmf(params: ModelParams, tp: TimePoint, n: int) -> float:
    """P(X(t) = n | X(t) > 0) = alpha^n |[M]_n| / (n! (1 - (1-alpha)^M))."""
    return conditional_family(params, tp).pmf(n)


def limit_law_pmf(params: ModelParams, n: int) -> float:
    """Long-time conditional limit LogSeries(alpha): P(xi = n) = alpha^n / (A n), n >= 1."""
    return LogSeries(params.alpha).pmf(n)


def limit_law_factorial_moment(params: ModelParams, n: int) -> float:
    """E[[xi]_n] = ((n-1)!/A) (alpha/(1-alpha))^n; OverflowError when it
    exceeds float range (the moments grow like (n-1)!)."""
    return LogSeries(params.alpha).factorial_moment(n)


@dataclass(frozen=True)
class DiscreteLaw:
    """A finite pmf table plus a certified bound on the truncated tail mass.

    ``probs[i]`` is the probability of ``support_offset + i``; everything past
    the table carries at most ``tail_mass``.
    """

    support_offset: int
    probs: tuple
    tail_mass: float

    def prob(self, n: int) -> float:
        i = n - self.support_offset
        if 0 <= i < len(self.probs):
            return self.probs[i]
        return 0.0

    def support_end(self) -> int:
        return self.support_offset + len(self.probs) - 1

    def total_mass(self) -> float:
        return math.fsum(self.probs) + self.tail_mass


def _build_law(pmf_at_n, support_offset: int, ratio_bound: float,
               tail_bound: float, max_terms: int = 100_000) -> DiscreteLaw:
    """Tabulate pmf_at_n from support_offset until the geometric tail bound
    pmf(n) * r / (1 - r) drops below tail_bound (valid once n >= 1)."""
    probs = []
    n = support_offset
    while True:
        p = pmf_at_n(n)
        probs.append(p)
        if n >= 1 and p * ratio_bound / (1.0 - ratio_bound) < tail_bound:
            break
        n += 1
        if n - support_offset >= max_terms:
            raise PrecisionLoss(f"law table did not reach tail bound {tail_bound!r} "
                                f"within {max_terms} terms")
    bound = probs[-1] * ratio_bound / (1.0 - ratio_bound)
    return DiscreteLaw(support_offset, tuple(probs), bound)


def law_at(params: ModelParams, tp: TimePoint, tail_bound: float = 1e-12) -> DiscreteLaw:
    """Table of P(X(t) = n) from n = 0, cut off by the certified alpha-ratio tail.

    The pmf ratio alpha (n - M)/(n + 1) stays below alpha for n >= 1, so the
    mass past the last entry is at most pmf(last) * alpha / (1 - alpha).
    """
    if tp.mean == 1.0:
        return DiscreteLaw(0, (0.0, 1.0), 0.0)
    return _build_law(lambda n: pmf(params, tp, n), 0, params.alpha, tail_bound)


def conditional_law_at(params: ModelParams, tp: TimePoint,
                       tail_bound: float = 1e-12) -> DiscreteLaw:
    """Table of P(X(t) = n | X(t) > 0) from n = 1, same tail certificate."""
    return _build_law(conditional_family(params, tp).pmf, 1, params.alpha, tail_bound)


def limit_law(params: ModelParams, tail_bound: float = 1e-12) -> DiscreteLaw:
    """Table of the logarithmic-series limit law from n = 1."""
    return _build_law(LogSeries(params.alpha).pmf, 1, params.alpha, tail_bound)


def tv_distance(law_a: DiscreteLaw, law_b: DiscreteLaw) -> float:
    """Total-variation distance between two tabulated laws.

    Exact on the tabulated supports; the unseen tails contribute at most
    (tail_a + tail_b)/2, which is added so the result is an upper bound.
    """
    lo = min(law_a.support_offset, law_b.support_offset)
    hi = max(law_a.support_end(), law_b.support_end())
    diff = math.fsum(abs(law_a.prob(n) - law_b.prob(n)) for n in range(lo, hi + 1))
    return 0.5 * (diff + law_a.tail_mass + law_b.tail_mass)
