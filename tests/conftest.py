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
    """Goodness-of-fit p-value of ``data`` against ``pmf`` on {start, ...}.

    One cell per value from ``start`` upward, at most ``nbins`` of them,
    while the cell's expected count and that of everything past it are both
    at least 5, and one cell for the rest; the p-value is the chi-square
    statistic's upper tail at (cells - 1) degrees of freedom.  With expected
    counts far below 1 the chi-square law is no approximation to the
    statistic's, and a sound sampler fails the gate far more often than
    its nominal level.

    ``data`` is either an array of draws or a {value: count} histogram.
    """
    if isinstance(data, dict):
        histogram = data
    else:
        values, counts = np.unique(data, return_counts=True)
        histogram = dict(zip(values.tolist(), counts.tolist()))
    if min(histogram, default=start) < start:
        raise ValueError(f"draw {min(histogram)} below support start {start}")
    total = sum(histogram.values())
    expected, observed = [], []
    rest = 1.0
    while len(expected) < nbins:
        p = pmf(start + len(expected))
        if total * p < 5.0 or total * (rest - p) < 5.0:
            break
        expected.append(total * p)
        observed.append(histogram.get(start + len(observed), 0))
        rest -= p
    if not expected:
        raise ValueError("no cell expects 5 draws with 5 more past it")
    expected.append(total * rest)
    observed.append(total - sum(observed))
    statistic = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    return float(mpmath.gammainc((len(expected) - 1) / 2, statistic / 2, regularized=True))


def rekeyed_streams(seed):
    """A function of i that re-keys one reused Philox in place to (seed, i),
    with a fresh counter and an empty buffer, and returns its Generator:
    ``stream(seed, i)``, without building a new Philox for each i, for the
    tests that run many thousands of single replicates.  The returned
    Generator is valid only until the next call.  The reused state holds
    plain ints rather than the uint64 arrays ``bitgen.state`` returns, since
    the setter reads them element by element and an array would make a
    numpy scalar of each on every re-key.
    """
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    fresh = bitgen.state
    fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    key = fresh["state"]["key"]
    rng = np.random.Generator(bitgen)

    def rekeyed(index):
        key[1] = index
        bitgen.state = fresh
        return rng

    return rekeyed


@pytest.fixture(scope="session")
def gof_pvalue():
    return chi_square_pvalue


@pytest.fixture(scope="session")
def rekeyer():
    return rekeyed_streams


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
