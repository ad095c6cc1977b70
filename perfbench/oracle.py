"""50-digit reference values for checking the CLI's output.

Nothing here imports logbranch: the formulas are restated from the model
(see ``closed_form`` and ``model``) and evaluated with mpmath at 50 digits,
so a defect in the package cannot hide in its own reference.

Writing A = -log(1 - alpha) and M = exp(-rate alpha^2 t / A):

* P(X(t) = 0) = 1 - ((1 - alpha)/alpha) (exp(M A) - 1);
* P(X(t) = 1) = (1 - alpha)^(1 - M) M, and for n >= 1
  P(X(t) = n + 1) = P(X(t) = n) alpha (n - M) / (n + 1);
* P(X(t) = n | X(t) > 0) starts at alpha M / (1 - (1 - alpha)^M) and obeys
  the same ratio;
* the limit law is alpha^n / (A n), with factorial moments
  (n - 1)! / A (alpha / (1 - alpha))^n.

The ratio recurrence loses nothing at 50 digits over a few thousand terms.
"""

from mpmath import mp

DIGITS = 50


def _mean(alpha, rate, t):
    a_const = -mp.log1p(-alpha)
    return a_const, mp.exp(-rate * alpha * alpha * t / a_const)


def pmf_table(alpha: float, rate: float, t: float, nmax: int, conditional: bool):
    """Floats of P(X(t) = n) (or given survival) for n from 0 (1) to nmax,
    and the mass beyond nmax."""
    with mp.workdps(DIGITS):
        a = mp.mpf(alpha)
        a_const, m = _mean(a, mp.mpf(rate), mp.mpf(t))
        if conditional:
            values = []
            p = a * m / (1 - (1 - a) ** m)
        else:
            survival = (1 - a) / a * mp.expm1(m * a_const)
            values = [1 - survival]
            p = (1 - a) ** (1 - m) * m
        n = 1
        while n <= nmax:
            values.append(p)
            p = p * a * (n - m) / (n + 1)
            n += 1
        tail = 1 - mp.fsum(values)
        return [float(v) for v in values], float(tail)


def limit_table(alpha: float, nmax: int):
    """Floats of the limit-law pmf and factorial moments for n = 1..nmax
    (None where the moment exceeds float range), and the mass beyond nmax."""
    with mp.workdps(DIGITS):
        a = mp.mpf(alpha)
        a_const = -mp.log1p(-a)
        odds = a / (1 - a)
        probs, moments = [], []
        moment = odds / a_const
        big = mp.mpf(1.7976931348623157e308)
        for n in range(1, nmax + 1):
            probs.append(a ** n / (a_const * n))
            moments.append(float(moment) if moment <= big else None)
            moment = moment * n * odds
        tail = 1 - mp.fsum(probs)
        return [float(p) for p in probs], moments, float(tail)


def mean_at(alpha: float, rate: float, t: float) -> float:
    """E[X(t)] = M(t)."""
    with mp.workdps(DIGITS):
        return float(_mean(mp.mpf(alpha), mp.mpf(rate), mp.mpf(t))[1])


def chi2_sf(statistic: float, dof: int) -> float:
    """Upper tail of the chi-square law: the p-value of a goodness-of-fit test."""
    with mp.workdps(DIGITS):
        return float(mp.gammainc(mp.mpf(dof) / 2, mp.mpf(statistic) / 2,
                                 regularized=True))

