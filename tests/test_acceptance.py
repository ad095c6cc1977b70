"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package and prints a
single PASS/FAIL line (visible even under normal pytest capture) so the
whole gate can be audited at a glance:

1. the critical offspring weight is located fast and accurately;
2. the RK4 backward integrator reproduces the closed-form generating
   function to 1e-8 and converges at fourth order;
3. a million-replicate exact simulation matches the closed-form law
   (goodness of fit, extinction mass, mean) within sampling error;
4. the implicit characterisation of the generating function holds to
   1e-10 across a (t, s) grid;
5. the conditional law approaches its limit law at the predicted
   first-order rate in the decaying mean;
6. closed-form factorial moments agree with numerical derivatives of
   the generating function and with the conditional decomposition;
7. every reproduction mechanism's numeric conditional limit matches its
   closed form to 1e-4;
8. the conditional law's generating function coincides with the
   two-parameter power-series family it is claimed to be;
9. the generating function satisfies the semigroup property to 1e-12.
"""

import math
import time

import numpy as np

from logbranch import (
    ExtendedSibuya,
    ModelParams,
    check_implicit_solution,
    conditional_family,
    conditional_law_at,
    critical_alpha,
    extinction_prob,
    factorial_moment,
    limit_law,
    ode_suite,
    pgf_at,
    pgf_complement,
    pmf,
    survival_prob,
    table1_suite,
    tv_distance,
)

PARAMS = ModelParams(alpha=0.5, rate=1.0)


def _verdict(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_critical_threshold(capsys):
    root = critical_alpha()
    best = math.inf
    for _ in range(5):
        tic = time.perf_counter()
        critical_alpha()
        best = min(best, time.perf_counter() - tic)
    gap = abs(root - 0.772638)
    ok = gap < 1e-5 and best < 1e-3
    _verdict(capsys, "critical threshold",
             ok, f"root={root:.10f}, |root-0.772638|={gap:.2e}, "
                 f"best timing {best * 1e3:.3f} ms")


def test_criterion_2_ode_agreement(capsys):
    tic = time.perf_counter()
    results = ode_suite()
    elapsed = time.perf_counter() - tic
    worst = max(r.residual / r.tolerance for r in results)
    ok = all(r.passed for r in results) and elapsed < 5.0
    _verdict(capsys, "rk4 vs closed form",
             ok, f"{len(results)} checks, worst residual/tol={worst:.2e}, "
                 f"{elapsed:.2f} s")


def test_criterion_3_monte_carlo(capsys, big_sim, gof_pvalue):
    cfg, laws, elapsed = big_sim
    n = cfg.replicates
    details = []
    ok = elapsed < 60.0
    for law in laws:
        tp = cfg.params.at(law.time)

        p_full = gof_pvalue(law.counts, lambda k: pmf(cfg.params, tp, k),
                            start=0, nbins=26)
        survivors = {k: c for k, c in law.counts.items() if k > 0}
        p_cond = gof_pvalue(survivors, conditional_family(cfg.params, tp).pmf,
                            start=1, nbins=25)

        q = extinction_prob(cfg.params, tp)
        z_ext = abs(law.extinction_freq() - q) / math.sqrt(q * (1 - q) / n)

        var = factorial_moment(cfg.params, tp, 2) + tp.mean - tp.mean ** 2
        z_mean = abs(law.mean() - tp.mean) / math.sqrt(var / n)

        ok = ok and p_full > 1e-3 and p_cond > 1e-3 and z_ext < 4 and z_mean < 4
        details.append(f"t={law.time}: p={p_full:.3f}, p_cond={p_cond:.3f}, "
                       f"z_ext={z_ext:.2f}, z_mean={z_mean:.2f}")
    _verdict(capsys, "monte carlo vs closed form",
             ok, f"{n} replicates in {elapsed:.1f} s; " + "; ".join(details))


def test_criterion_4_implicit_solution(capsys):
    worst = 0.0
    for t in np.linspace(0.1, 5.0, 20):
        tp = PARAMS.at(float(t))
        for s in np.linspace(0.0, 1.0 - 1e-6, 20):
            worst = max(worst, abs(check_implicit_solution(PARAMS, tp, float(s))))
    ok = worst < 1e-10
    _verdict(capsys, "implicit characterisation",
             ok, f"max |residual|={worst:.2e} on 20x20 grid")


def test_criterion_5_limit_convergence_rate(capsys):
    lim = limit_law(PARAMS)
    tvs, ratios = [], []
    for target in (1e-1, 1e-2, 1e-3):
        t = math.log(target) / PARAMS.malthusian_rate
        tp = PARAMS.at(t)
        tv = tv_distance(conditional_law_at(PARAMS, tp), lim)
        tvs.append(tv)
        ratios.append(tv / tp.mean)
    decreasing = tvs[0] > tvs[1] > tvs[2]
    spread = max(ratios) / min(ratios)
    ok = decreasing and spread < 3.0
    _verdict(capsys, "first-order limit approach",
             ok, f"TV={tvs[0]:.2e},{tvs[1]:.2e},{tvs[2]:.2e}; "
                 f"TV/mean={ratios[0]:.4f},{ratios[1]:.4f},{ratios[2]:.4f} "
                 f"(spread {spread:.3f})")


def _raw_pgf(params, mean, s):
    # plain power form, independent of the expm1/log1p implementation
    a = params.alpha
    return 1.0 - ((1 - a) / a) * (((1 - a * s) / (1 - a)) ** mean - 1.0)


def _nth_derivative(f, s, n, h):
    def diff(step):
        total = 0.0
        for k in range(n + 1):
            total += (-1) ** k * math.comb(n, k) * f(s + (n / 2 - k) * step)
        return total / step ** n

    return (4.0 * diff(h / 2) - diff(h)) / 3.0


def test_criterion_6_factorial_moments(capsys):
    worst_fd = 0.0
    worst_split = 0.0
    for t in (0.5, 1.0, 2.0):
        tp = PARAMS.at(t)
        for n in range(1, 5):
            exact = factorial_moment(PARAMS, tp, n)
            approx = _nth_derivative(lambda s: _raw_pgf(PARAMS, tp.mean, s),
                                     1.0, n, h=0.05)
            worst_fd = max(worst_fd, abs(approx - exact) / exact)
            recombined = (conditional_family(PARAMS, tp).factorial_moment(n)
                          * survival_prob(PARAMS, tp))
            worst_split = max(worst_split, abs(recombined - exact) / exact)
    ok = worst_fd < 1e-4 and worst_split < 1e-12
    _verdict(capsys, "factorial moments",
             ok, f"vs finite differences rel={worst_fd:.2e}, "
                 f"conditional decomposition rel={worst_split:.2e}")


def test_criterion_7_mechanism_table(capsys):
    tic = time.perf_counter()
    results = table1_suite()
    elapsed = time.perf_counter() - tic
    worst = max(r.residual for r in results)
    ok = all(r.passed for r in results) and elapsed < 30.0
    _verdict(capsys, "conditional limits across mechanisms",
             ok, f"{len(results)} mechanisms, max gap={worst:.2e}, "
                 f"{elapsed:.2f} s")


def test_criterion_8_conditional_family(capsys):
    rng = np.random.default_rng(731)
    worst = 0.0
    for _ in range(100):
        params = ModelParams(alpha=rng.uniform(0.05, 0.76), rate=1.0)
        tp = params.at(rng.uniform(0.1, 5.0))
        family = ExtendedSibuya(gamma=tp.mean, b=params.alpha)
        s = rng.uniform(0.0, 1.0)
        # conditional pgf from F: 1 - (1 - F(t, s)) / P(X(t) > 0)
        from_f = 1.0 - pgf_complement(params, tp, s) / survival_prob(params, tp)
        gap = abs(from_f - family.pgf(s))
        worst = max(worst, gap)
    ok = worst <= 1e-12
    _verdict(capsys, "conditional law family",
             ok, f"max |pgf gap|={worst:.2e} over 100 random (alpha, t, s)")


def test_criterion_9_semigroup(capsys):
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        t, u = rng.uniform(0.01, 5.0, size=2)
        s = rng.uniform(0.0, 1.0)
        one_step = pgf_at(PARAMS, PARAMS.at(t + u), s)
        two_step = pgf_at(PARAMS, PARAMS.at(t), pgf_at(PARAMS, PARAMS.at(u), s))
        worst = max(worst, abs(one_step - two_step))
    ok = worst < 1e-12
    _verdict(capsys, "semigroup property",
             ok, f"max |gap|={worst:.2e} over 100 random (t, u, s)")
