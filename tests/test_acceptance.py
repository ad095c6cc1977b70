"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (visible even under normal pytest
capture) so the whole gate can be audited at a glance. Seven of the nine
headline guarantees are ``logbranch verify`` rows, printed from the same
CheckResult list the CLI renders; the other two are gates on time or on a
million-replicate simulation:

1. the critical offspring weight is located in under 1 ms, to 6 digits
   (``test_criterion_1_critical_threshold``);
2. RK4 reproduces the closed-form generating function to 1e-8 and converges
   at fourth order over five step halvings, with the ode suite under 5 s:
   ``rk4_vs_closed_form``, ``rk4_convergence_order``;
3. a million-replicate exact simulation matches the closed-form law
   (goodness of fit, extinction mass, mean) within sampling error
   (``test_criterion_3_monte_carlo``);
4. the implicit characterisation of the generating function holds to 1e-10
   on a 20x20 (t, s) grid: ``implicit_solution_identity``;
5. the conditional law approaches its limit law at the first-order rate in
   the decaying mean M, exactly as TV = alpha M/2 + alpha A M^2/12 + O(M^4):
   ``tv_to_limit_decreasing``, ``tv_rate_consistency``,
   ``tv_first_order_rate``;
6. the factorial moments, survival times the conditional family's, agree
   with numerical derivatives of the generating function and with the
   direct falling-factorial product:
   ``factorial_moment_derivatives``, ``conditional_moment_decomposition``;
7. every reproduction mechanism's numeric conditional limit matches its
   closed form to 1e-4, with the table1 suite under 30 s: ``limit_law_*``;
8. the conditional law's generating function is the two-parameter
   power-series family it is claimed to be: ``extended_sibuya_bridge``;
9. the generating function satisfies the semigroup property to 1e-12:
   ``semigroup_composition``.

The remaining rows are checked here too, so every row of ``verify --suite
all`` is named below, and a row that disappears fails.
"""

import math
import time

import pytest

from logbranch import (
    conditional_family,
    critical_alpha,
    extinction_prob,
    pmf,
    survival_prob,
)
from logbranch.verify import run_suite

SUITE_ROWS = {
    "closed-form": (
        "semigroup_composition",
        "defining_power_identity",
        "backward_equation_fd",
        "forward_equation_fd",
        "implicit_solution_identity",
        "pmf_normalization",
        "pmf_positive_through_200",
        "factorial_moment_derivatives",
        "conditional_moment_decomposition",
    ),
    "ode": ("rk4_vs_closed_form", "rk4_convergence_order"),
    "table1": (
        "limit_law_log-mixture",
        "limit_law_geometric",
        "limit_law_binary",
        "limit_law_linear",
    ),
    "limit": (
        "tv_to_limit_decreasing",
        "tv_rate_consistency",
        "tv_first_order_rate",
        "extended_sibuya_bridge",
        "conditional_moments_to_limit",
    ),
}

# wall-time gates of criteria 2 and 7, in seconds per suite
SUITE_BUDGET_S = {"ode": 5.0, "table1": 30.0}


def _verdict(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def verify_rows():
    """Every suite run once through ``run_suite`` and timed; maps each row
    name to (suite, CheckResult, suite seconds)."""
    rows = {}
    for suite, names in SUITE_ROWS.items():
        tic = time.perf_counter()
        results = run_suite(suite)
        elapsed = time.perf_counter() - tic
        assert tuple(r.name for r in results) == names
        rows.update((r.name, (suite, r, elapsed)) for r in results)
    return rows


@pytest.mark.parametrize("name", [name for names in SUITE_ROWS.values() for name in names])
def test_verify_row(capsys, verify_rows, name):
    suite, result, elapsed = verify_rows[name]
    budget = SUITE_BUDGET_S.get(suite, math.inf)
    ok = result.passed and elapsed < budget
    timing = f"{suite} suite {elapsed:.2f} s"
    if suite in SUITE_BUDGET_S:
        timing += f" (budget {budget:g} s)"
    _verdict(capsys, name,
             ok, f"residual={result.residual:.3e}, tolerance={result.tolerance:g}, {timing}")


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
        z_ext = abs(law.prob(0) - q) / math.sqrt(q * (1 - q) / n)

        second = survival_prob(cfg.params, tp) * conditional_family(cfg.params, tp).factorial_moment(2)
        var = second + tp.mean - tp.mean ** 2
        z_mean = abs(law.mean() - tp.mean) / math.sqrt(var / n)

        ok = ok and p_full > 1e-3 and p_cond > 1e-3 and z_ext < 4 and z_mean < 4
        details.append(f"t={law.time}: p={p_full:.3f}, p_cond={p_cond:.3f}, "
                       f"z_ext={z_ext:.2f}, z_mean={z_mean:.2f}")
    _verdict(capsys, "monte carlo vs closed form",
             ok, f"{n} replicates in {elapsed:.1f} s; " + "; ".join(details))
