"""Subcritical Markov branching process with logarithmic-mixture reproduction.

The time-t population law has a fully closed form; this package computes it,
cross-checks it against direct integration of the backward equation and
against exact event-driven simulation, and exposes the two heavy-tailed
discrete laws that are its conditional law given survival
(``ExtendedSibuya(M(t), alpha)``) and its long-time conditional limit
(``LogSeries(alpha)``).

The closed form needs only ``math``.  numpy, slower to import than the rest
of a start-up, is loaded only by the calls that use it (the simulator's
streams and arrays, ``InverseCdfSampler.draw_many``) and by the check
harness, which is imported from ``logbranch.verify`` itself.  So
``import logbranch``, the closed-form laws and a sampler never load numpy.
"""

import types

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
    stream,
)

# every name imported above except the modules
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]

__version__ = "0.1.0"
