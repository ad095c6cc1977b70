"""Subcritical Markov branching process with logarithmic-mixture reproduction.

The time-t population law has a fully closed form; this package computes it,
cross-checks it against direct integration of the backward equation and
against exact event-driven simulation, and exposes the two heavy-tailed
discrete laws that are its conditional law given survival
(``ExtendedSibuya(M(t), alpha)``) and its long-time conditional limit
(``LogSeries(alpha)``).

The closed form needs only ``math``; numpy is needed by the simulator (its
Philox streams) and the ODE harness (its grids and seeded check points), and
importing numpy costs more than the rest of a start-up.  So the names of
``simulate`` are resolved on first access (PEP 562), and the check harness
is imported from ``logbranch.verify`` itself: ``import logbranch``, the
closed-form laws and building a sampler never load numpy.
"""

import importlib
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

# the names of ``simulate``, resolved on first access
_LATE = ("EmpiricalLaw", "SimConfig", "estimate_law", "simulate_counts",
         "stream", "streams")

# every name imported above except the modules, then the late names
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
__all__ += _LATE

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import ``simulate`` for a late name, and keep the value here so that
    later lookups are plain attribute reads."""
    if name not in _LATE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(".simulate", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_LATE})
