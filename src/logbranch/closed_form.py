"""Time-t law of the branching process, in closed form.

Everything here is a pure function of (ModelParams, TimePoint).  Writing
M = M(t) for the mean and A = -log(1 - alpha), the generating function of
the population size X(t) started from a single particle is

    F(t, s) = (1/alpha) * (1 - (1 - alpha) * R(s)^M),
    R(s) = (1 - alpha s) / (1 - alpha),

and the survival probability is S(t) = 1 - F(t, 0).  The two laws the paper
identifies are evaluated through their families in ``distributions``: given
survival, X(t) is exactly ExtendedSibuya(M, alpha), which
``conditional_family`` returns after the t > 0 check (where M rounds to 1
that is ExtendedSibuya(1, alpha), the unit atom at 1), and its long-time
limit is exactly LogSeries(alpha).  So for n >= 1 the pmf is
S(t) * ExtendedSibuya(M, alpha).pmf(n), and the factorial moments are S(t)
times the family's: the family is the one place a term is assembled.
``conditional_pmf``, ``limit_law_pmf`` and ``limit_law_factorial_moment``
are one-line wrappers over those families, kept only because the
benchmark's traced replay (``perfbench/spans.py``) calls them by name; call
the families directly instead.
"""

import math
from dataclasses import dataclass

from .distributions import ExtendedSibuya, LogSeries
from .errors import DomainError, PrecisionLoss
from .model import ModelParams, TimePoint, _log_ratio


def pgf_complement(params: ModelParams, tp: TimePoint, s: float) -> float:
    """1 - F(t, s) = ((1 - alpha)/alpha) * (R(s)^M - 1), the survival-side form.

    expm1 keeps full relative precision as M -> 0 or s -> 1, where the
    direct difference would cancel.  The value is at most 2, as F >= -1;
    where M is near 1 and s near -1, rounding can carry it an ulp or two
    past that, so it is capped there.
    """
    if not abs(s) <= 1.0:
        raise DomainError(f"pgf argument must satisfy |s| <= 1, got {s!r}")
    a = params.alpha
    scale = (1.0 - a) / a
    if scale == math.inf:
        # alpha < 1/DBL_MAX: R(s)^M - 1 is M alpha (1 - s)/(1 - alpha), not inf * 0
        return tp.mean * (1.0 - s)
    return min(2.0, scale * math.expm1(tp.mean * _log_ratio(params, s)))


def pgf_at(params: ModelParams, tp: TimePoint, s: float) -> float:
    """F(t, s) = E[s^X(t)]; exact 1 at s = 1 and exact s at t = 0 up to rounding."""
    return 1.0 - pgf_complement(params, tp, s)


def survival_prob(params: ModelParams, tp: TimePoint) -> float:
    """P(X(t) > 0) = ((1 - alpha)/alpha) * (exp(M A) - 1), via expm1; exactly
    1 where M rounds to 1, and never above 1 where M is an ulp below it."""
    if tp.mean == 1.0:
        return 1.0
    return min(1.0, pgf_complement(params, tp, 0.0))


def extinction_prob(params: ModelParams, tp: TimePoint) -> float:
    """P(X(t) = 0); complements survival_prob bit for bit."""
    return 1.0 - survival_prob(params, tp)


def _pmf_term(params: ModelParams, tp: TimePoint):
    """n -> P(X(t) = n), with survival and the family built once."""
    survival = survival_prob(params, tp)
    family = ExtendedSibuya(tp.mean, params.alpha)

    def term(n: int) -> float:
        if n < 0:
            raise DomainError(f"population size must be nonnegative, got {n!r}")
        if n == 0:
            return 1.0 - survival
        return survival * family.pmf(n)

    return term


def pmf(params: ModelParams, tp: TimePoint, n: int) -> float:
    """P(X(t) = n): extinction_prob at n = 0, else
    S(t) * ExtendedSibuya(M, alpha).pmf(n); exactly the unit atom at 1 where
    M rounds to 1.  For many terms at one time point, use ``law_at``."""
    return _pmf_term(params, tp)(n)


def conditional_family(params: ModelParams, tp: TimePoint):
    """The law of X(t) given X(t) > 0, for t > 0: ExtendedSibuya(M, alpha).

    Where M rounds to 1 this is ExtendedSibuya(1, alpha), the unit atom at 1.
    Build it once to evaluate many terms at the same time point.
    """
    if not tp.t > 0.0:
        raise DomainError("conditioning on survival requires t > 0")
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


_TAIL_BOUND = 1e-12
_MAX_TERMS = 100_000


def _build_law(pmf_at_n, support_offset: int, ratio_bound: float) -> DiscreteLaw:
    """Tabulate pmf_at_n from support_offset until the geometric tail bound
    pmf(n) * r / (1 - r) drops below _TAIL_BOUND (valid once n >= 1)."""
    probs = []
    n = support_offset
    while True:
        p = pmf_at_n(n)
        probs.append(p)
        if n >= 1 and p * ratio_bound / (1.0 - ratio_bound) < _TAIL_BOUND:
            break
        n += 1
        if n - support_offset >= _MAX_TERMS:
            raise PrecisionLoss(f"law table did not reach tail bound {_TAIL_BOUND!r} "
                                f"within {_MAX_TERMS} terms")
    bound = probs[-1] * ratio_bound / (1.0 - ratio_bound)
    return DiscreteLaw(support_offset, tuple(probs), bound)


def law_at(params: ModelParams, tp: TimePoint) -> DiscreteLaw:
    """Table of P(X(t) = n) from n = 0, cut off by the certified alpha-ratio tail.

    The pmf ratio alpha (n - M)/(n + 1) stays below alpha for n >= 1, so the
    mass past the last entry is at most pmf(last) * alpha / (1 - alpha).
    """
    if tp.mean == 1.0:
        return DiscreteLaw(0, (0.0, 1.0), 0.0)
    return _build_law(_pmf_term(params, tp), 0, params.alpha)


def conditional_law_at(params: ModelParams, tp: TimePoint) -> DiscreteLaw:
    """Table of P(X(t) = n | X(t) > 0) from n = 1, same tail certificate."""
    return _build_law(conditional_family(params, tp).pmf, 1, params.alpha)


def limit_law(params: ModelParams) -> DiscreteLaw:
    """Table of the logarithmic-series limit law from n = 1."""
    return _build_law(LogSeries(params.alpha).pmf, 1, params.alpha)


def tv_distance(law_a: DiscreteLaw, law_b: DiscreteLaw) -> float:
    """Total-variation distance between two tabulated laws.

    Exact on the tabulated supports; the unseen tails contribute at most
    (tail_a + tail_b)/2, which is added so the result is an upper bound.
    """
    lo = min(law_a.support_offset, law_b.support_offset)
    hi = max(law_a.support_end(), law_b.support_end())
    diff = math.fsum(abs(law_a.prob(n) - law_b.prob(n)) for n in range(lo, hi + 1))
    return 0.5 * (diff + law_a.tail_mass + law_b.tail_mass)
