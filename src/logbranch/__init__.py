"""Subcritical Markov branching process with logarithmic-mixture reproduction.

The time-t population law has a fully closed form; this package computes it,
cross-checks it against direct integration of the backward equation and
against exact event-driven simulation, and exposes the two heavy-tailed
discrete laws that are its conditional law given survival
(``ExtendedSibuya(M(t), alpha)``) and its long-time conditional limit
(``LogSeries(alpha)``).
"""

from .closed_form import (
    DiscreteLaw,
    conditional_family,
    conditional_law_at,
    conditional_pmf,
    extinction_prob,
    law_at,
    limit_law,
    limit_law_factorial_moment,
    limit_law_pmf,
    pgf_at,
    pgf_complement,
    pmf,
    survival_prob,
    tv_distance,
)
from .distributions import (
    ExtendedSibuya,
    InverseCdfSampler,
    LogSeries,
    offspring_sampler,
    stream,
    streams,
)
from .errors import (
    DomainError,
    NumericalDivergence,
    PopulationCapExceeded,
    PrecisionLoss,
)
from .model import (
    ALPHA_CRITICAL,
    ModelParams,
    TimePoint,
    critical_alpha,
    infinitesimal_gen,
    offspring_pmf,
)
from .simulate import (
    EmpiricalLaw,
    SimConfig,
    estimate_law,
    simulate_counts,
)
from .verify import (
    CheckResult,
    Mechanism,
    check_implicit_solution,
    closed_form_suite,
    integrate_backward,
    integrate_complement,
    limit_suite,
    log_mixture_mechanism,
    numeric_conditional_limit,
    ode_suite,
    run_suite,
    standard_mechanisms,
    table1_suite,
)

__version__ = "0.1.0"
