import time

import mpmath
import numpy as np
import pytest
from hypothesis import settings

from logbranch import ModelParams, SimConfig, estimate_law

# every @given test draws the same examples on every run, so two runs of the
# same commit pass or fail together
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

BIG_SIM_SEED = 20240817
BIG_SIM_REPLICATES = 1_000_000
BIG_SIM_HORIZONS = (0.5, 1.0, 2.0)


def chi_square_pvalue(data, pmf, start, nbins):
    """Goodness-of-fit p-value with bins {start..start+nbins-1, rest}: the
    chi-square statistic's upper tail at nbins degrees of freedom.

    ``data`` is either an array of draws or a {value: count} histogram.
    """
    if isinstance(data, dict):
        items = data.items()
        total = sum(data.values())
    else:
        values, counts = np.unique(data, return_counts=True)
        items = zip(values.tolist(), counts.tolist())
        total = len(data)
    observed = np.zeros(nbins + 1)
    for value, count in items:
        index = value - start
        if index < 0:
            raise ValueError(f"draw {value} below support start {start}")
        observed[index if index < nbins else nbins] += count
    head = np.array([pmf(n) for n in range(start, start + nbins)])
    # the rest mass is 1 - sum(head), which rounding can leave a few ulps
    # either side of a true value far below an ulp; an empty cell with no
    # expected mass adds nothing to the statistic, where 0/0 would add NaN
    expected = np.append(head, max(0.0, 1.0 - head.sum())) * total
    cells = (observed > 0) | (expected > 0)
    statistic = float(((observed[cells] - expected[cells]) ** 2 / expected[cells]).sum())
    return float(mpmath.gammainc(nbins / 2, statistic / 2, regularized=True))


@pytest.fixture(scope="session")
def gof_pvalue():
    return chi_square_pvalue


@pytest.fixture(scope="session")
def params_half():
    return ModelParams(0.5, 1.0)


@pytest.fixture(scope="session")
def big_sim(params_half):
    """One million replicates at three horizons, shared by the Monte Carlo
    acceptance gate and the three-way agreement checks.  Returns
    (config, laws-per-horizon, wall seconds)."""
    cfg = SimConfig(params_half, BIG_SIM_HORIZONS, BIG_SIM_REPLICATES, BIG_SIM_SEED)
    start = time.perf_counter()
    laws = estimate_law(cfg)
    elapsed = time.perf_counter() - start
    return cfg, laws, elapsed
