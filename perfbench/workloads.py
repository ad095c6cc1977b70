"""The four benchmark workloads.

Each workload turns the workload seed into a stream of decks, a deck being a
list of CLI operations (argv lists) that is always run whole, and checks the
output of every operation against the 50-digit reference in ``oracle``.

Every workload is a closed loop with one client: the next operation is sent
when the previous one has returned.
"""

import csv
import io
import json
import math
import random
from dataclasses import dataclass

import oracle

MIN_NORMAL = 2.2250738585072014e-308
FLOAT_MAX = 1.7976931348623157e308
# CSV floats carry 10 significant digits: half a unit in the last one.
CSV_REL = 5e-10
# A fit or extinction test with a p-value below this fails the operation.
# Each run makes at most a few hundred such tests, so a correct simulator
# trips one about once in 10^4 runs.
P_MIN = 1e-7
# Tail rows (1 - fsum of the rows) against the exact mass past nmax.
TAIL_ABS = 1e-11


def json_rel_bound(n: int) -> float:
    """Relative error allowed for a JSON pmf row at size n.

    The package sums about n logarithms per term, so its error grows with n;
    the measured worst case is about 2e-14 n.  Fixed here, not tuned per run.
    """
    return 1e-13 * (n + 20)


class CheckFailed(Exception):
    """An operation's output disagrees with the reference."""


@dataclass
class Op:
    """One CLI invocation and the parameters it was built from."""

    args: list
    spec: dict


@dataclass
class Outcome:
    """What checking one operation's output found.

    ``work`` counts the operation's units (replicates, probability rows or
    checks); ``rel_err`` is the worst relative error of its JSON pmf rows;
    ``margin`` the worst residual/tolerance of its verify checks; ``tallies``
    the simulate histograms, one Counter-like dict per horizon.
    """

    ok: bool
    work: int = 0
    reason: str = ""
    rel_err: float = None
    margin: float = None
    tallies: list = None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_value(value: float, exact: float, bound: float, what: str):
    """Relative error of ``value`` against ``exact``, or None where the
    reference is below the normal range and only an absolute check applies."""
    if exact >= 2.0 * MIN_NORMAL:
        err = abs(value - exact) / exact
        _require(err <= bound, f"{what}: {value!r} vs {exact!r} (rel {err:.3g} > {bound:.3g})")
        return err
    _require(abs(value - exact) <= MIN_NORMAL, f"{what}: {value!r} vs {exact!r}")
    return None


def _check_moment(value, exact, bound, what):
    if value is None or exact is None:
        present = exact if value is None else value
        _require(present is None or present > FLOAT_MAX * (1.0 - 1e-9),
                 f"{what}: {value!r} vs {exact!r}")
        return
    _check_value(value, exact, bound, what)


def _csv_rows(stdout: str) -> list:
    return list(csv.reader(io.StringIO(stdout)))


def _binomial_two_sided(k: int, n: int, q: float) -> float:
    """Two-sided p-value of k successes in n Binomial(n, q) trials: twice the
    smaller tail.  Exact (summed pmf) when the smaller expected count is
    below 25, the normal approximation otherwise."""
    if q > 0.5:
        return _binomial_two_sided(n - k, n, 1.0 - q)
    mean = n * q
    if mean >= 25.0:
        return math.erfc(abs(k - mean) / math.sqrt(2.0 * mean * (1.0 - q)))
    log_norm = math.lgamma(n + 1.0)

    def pmf(j):
        return math.exp(log_norm - math.lgamma(j + 1.0) - math.lgamma(n - j + 1.0)
                        + j * math.log(q) + (n - j) * math.log1p(-q))

    lower = math.fsum(pmf(j) for j in range(k + 1))
    upper = math.fsum(pmf(j) for j in range(k, min(n, k + 400) + 1))
    return min(1.0, 2.0 * min(lower, upper))


def _gof(tally: dict, probs: list, total: int):
    """Chi-square p-value of a histogram against a pmf, with cells of expected
    count >= 5 from 0 upward and one cell for the rest; and the extinction
    z-score with its exact two-sided binomial p-value (at long horizons only
    a handful of replicates survive, where the normal approximation fails)."""
    expected, observed = [], []
    rest = 1.0
    n = 0
    while n < len(probs) and total * probs[n] >= 5.0 and total * (rest - probs[n]) >= 5.0:
        expected.append(total * probs[n])
        observed.append(tally.get(n, 0))
        rest -= probs[n]
        n += 1
    expected.append(total * rest)
    observed.append(total - sum(observed))
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    p_value = oracle.chi2_sf(stat, len(observed) - 1) if len(observed) > 1 else 1.0
    p0 = probs[0]
    z = (tally.get(0, 0) - total * p0) / math.sqrt(total * p0 * (1.0 - p0))
    return p_value, z, _binomial_two_sided(total - tally.get(0, 0), total, 1.0 - p0)


class Simulate:
    """``logbranch simulate`` at fixed parameters; only the per-operation RNG
    seed comes from the workload seed."""

    unit = "replicates"
    COLUMNS = ["time", "n", "count", "empirical_prob", "model_prob",
               "empirical_mean", "model_mean", "empirical_extinction",
               "model_extinction"]

    def __init__(self, name, alpha, times, replicates, workers, deck_size):
        self.name = name
        self.alpha = alpha
        self.times = times
        self.replicates = replicates
        self.workers = workers
        self.deck_size = deck_size
        self._laws = {}

    def decks(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        replicates = max(self.replicates // 50, 8 * self.workers) if tiny else self.replicates
        while True:
            yield [self._op(rng.getrandbits(63), replicates) for _ in range(self.deck_size)]

    def _op(self, seed: int, replicates: int) -> Op:
        spec = {"alpha": self.alpha, "times": self.times, "replicates": replicates,
                "workers": self.workers, "seed": seed}
        args = ["simulate", "--alpha", repr(self.alpha), "--k", "1",
                "--times", ",".join(format(t, "g") for t in self.times),
                "--replicates", str(replicates), "--workers", str(self.workers),
                "--seed", str(seed)]
        return Op(args, spec)

    def _law(self, t: float, nmax: int) -> list:
        """Reference P(X(t) = n) for n = 0..nmax at least, computed once per horizon."""
        probs = self._laws.get(t)
        if probs is None or len(probs) <= nmax:
            probs, _ = oracle.pmf_table(self.alpha, 1.0, t, max(nmax, 400), False)
            self._laws[t] = probs
        return probs

    def check(self, op: Op, exit_code: int, stdout: str) -> Outcome:
        _require(exit_code == 0, f"exit code {exit_code}")
        rows = _csv_rows(stdout)
        _require(rows and rows[0] == self.COLUMNS, "bad header")
        total = op.spec["replicates"]
        blocks = {}
        for row in rows[1:]:
            _require(len(row) == len(self.COLUMNS), f"bad row {row!r}")
            blocks.setdefault(float(row[0]), []).append(row)
        _require(list(blocks) == list(op.spec["times"]), f"horizons {list(blocks)!r}")
        tallies = []
        for t, block in blocks.items():
            tally = {int(r[1]): int(r[2]) for r in block}
            _require(len(tally) == len(block) and sum(tally.values()) == total,
                     f"t={t}: histogram does not hold {total} replicates")
            probs = self._law(t, max(tally))
            model_mean = oracle.mean_at(self.alpha, 1.0, t)
            mean = math.fsum(n * c for n, c in tally.items()) / total
            extinct = tally.get(0, 0) / total
            for r in block:
                n, count = int(r[1]), int(r[2])
                what = f"t={t} n={n}"
                _check_value(float(r[3]), count / total, CSV_REL, what + " empirical_prob")
                _check_value(float(r[4]), probs[n], CSV_REL + json_rel_bound(n),
                             what + " model_prob")
                _check_value(float(r[5]), mean, CSV_REL, what + " empirical_mean")
                _check_value(float(r[6]), model_mean, CSV_REL + 1e-14, what + " model_mean")
                _require(abs(float(r[7]) - extinct) <= CSV_REL, what + " empirical_extinction")
                _check_value(float(r[8]), probs[0], CSV_REL + 1e-12, what + " model_extinction")
            p_value, z, p_extinct = _gof(tally, probs, total)
            _require(p_value >= P_MIN, f"t={t}: chi-square p={p_value:.3g}")
            _require(p_extinct >= P_MIN, f"t={t}: extinction z={z:.3g}, p={p_extinct:.3g}")
            tallies.append(tally)
        return Outcome(True, work=total, tallies=tallies)

    def pooled(self, outcomes: list) -> str:
        """The fit tests again on the histograms of all operations summed, a far
        sharper test than any one operation; returns a failure reason or ''."""
        merged = [{} for _ in self.times]
        total = 0
        for outcome in outcomes:
            if outcome.tallies is None:
                continue
            total += outcome.work
            for into, tally in zip(merged, outcome.tallies):
                for n, c in tally.items():
                    into[n] = into.get(n, 0) + c
        if total == 0:
            return ""
        for t, tally in zip(self.times, merged):
            p_value, z, p_extinct = _gof(tally, self._law(t, max(tally)), total)
            if min(p_value, p_extinct) < P_MIN:
                return (f"pooled t={t}: chi-square p={p_value:.3g}, "
                        f"extinction z={z:.3g}, p={p_extinct:.3g}")
        return ""


class Tables:
    """A seeded mix of ``pmf`` and ``limit`` requests.

    Four in five requests are ``pmf`` and one in five is ``limit``; ``alpha``
    is uniform on [0.05, 0.75] and ``t`` log-uniform on [0.01, 50].  Half the
    ``pmf`` requests are conditional and the format is csv or json evenly.

    ``nmax`` is log-uniform on [20, 4000] in the sense of a fixed grid: a deck
    holds one ``pmf`` request at the midpoint of each of 8 equal-probability
    strata of that law, and one ``limit`` request at each of 2; the
    (conditional, format) pairs cycle along the grid.  An O(n^2) table makes
    the largest requests dominate and a csv or json body costs differently,
    so a random mix would let the seed, not the program, set the run's cost.
    The seed draws ``alpha``, ``t`` and the order of each deck.
    """

    unit = "probability rows"
    PMF_STRATA = 8
    LIMIT_STRATA = 2
    VARIANTS = ((False, "csv"), (True, "json"), (False, "json"), (True, "csv"))
    NMAX = (20, 4000)
    TINY_NMAX = (20, 60)
    ALPHA = (0.05, 0.75)
    T = (0.01, 50.0)

    def __init__(self, name):
        self.name = name

    def decks(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        lo, hi = self.TINY_NMAX if tiny else self.NMAX

        def grid(strata):
            return [round(lo * (hi / lo) ** ((i + 0.5) / strata)) for i in range(strata)]

        while True:
            deck = []
            for i, nmax in enumerate(grid(self.PMF_STRATA)):
                conditional, fmt = self.VARIANTS[i % len(self.VARIANTS)]
                deck.append(self._op(rng, "pmf", nmax, conditional, fmt))
            for i, nmax in enumerate(grid(self.LIMIT_STRATA)):
                deck.append(self._op(rng, "limit", nmax, False, "json" if i % 2 else "csv"))
            rng.shuffle(deck)
            yield deck

    def _op(self, rng, kind, nmax, conditional, fmt) -> Op:
        alpha = rng.uniform(*self.ALPHA)
        t = math.exp(rng.uniform(math.log(self.T[0]), math.log(self.T[1])))
        spec = {"kind": kind, "alpha": alpha, "t": t, "nmax": nmax,
                "conditional": conditional, "format": fmt}
        if kind == "pmf":
            args = ["pmf", "--alpha", repr(alpha), "--k", "1", "--t", repr(t),
                    "--nmax", str(nmax), "--format", fmt]
            if conditional:
                args.append("--conditional")
        else:
            args = ["limit", "--alpha", repr(alpha), "--nmax", str(nmax), "--format", fmt]
        return Op(args, spec)

    def check(self, op: Op, exit_code: int, stdout: str) -> Outcome:
        _require(exit_code == 0, f"exit code {exit_code}")
        spec = op.spec
        is_json = spec["format"] == "json"
        if spec["kind"] == "pmf":
            start = 1 if spec["conditional"] else 0
            exact, exact_tail = oracle.pmf_table(spec["alpha"], 1.0, spec["t"],
                                                 spec["nmax"], spec["conditional"])
            exact_moments = None
            columns = ["n", "probability"]
        else:
            start = 1
            exact, exact_moments, exact_tail = oracle.limit_table(spec["alpha"], spec["nmax"])
            columns = ["n", "probability", "factorial_moment"]
        if is_json:
            record = json.loads(stdout)
            _require(record["command"] == spec["kind"] and record["columns"] == columns,
                     "bad record header")
            rows, tail = record["rows"], record["tail_mass"]
        else:
            table = _csv_rows(stdout)
            _require(table and table[0] == columns and table[-1][0] == "tail",
                     "bad CSV header or tail row")
            tail = float(table[-1][1])
            rows = [[int(r[0]), float(r[1])] + ([float(r[2]) if r[2] else None]
                                               if exact_moments is not None else [])
                    for r in table[1:-1]]
        _require(len(rows) == len(exact), f"{len(rows)} rows, expected {len(exact)}")
        worst = 0.0
        for i, row in enumerate(rows):
            n = start + i
            _require(row[0] == n and len(row) == len(columns), f"bad row {row!r}")
            bound = json_rel_bound(n) + (0.0 if is_json else CSV_REL)
            err = _check_value(row[1], exact[i], bound, f"n={n}")
            if err is not None:
                worst = max(worst, err)
            if exact_moments is not None:
                _check_moment(row[2], exact_moments[i], bound, f"n={n} moment")
        _require(abs(tail - exact_tail) <= TAIL_ABS + (0.0 if is_json else CSV_REL * tail),
                 f"tail {tail!r} vs {exact_tail!r}")
        return Outcome(True, work=len(rows), rel_err=worst if is_json else None)

    def pooled(self, outcomes: list) -> str:
        return ""


class Verify:
    """``logbranch verify --suite all --format json``: no inputs, so the seed
    changes nothing but is recorded."""

    unit = "checks"
    ARGS = ["verify", "--suite", "all", "--format", "json"]

    def __init__(self, name):
        self.name = name

    def decks(self, seed: int, tiny: bool = False):
        while True:
            yield [Op(list(self.ARGS), {"suite": "all"})]

    def check(self, op: Op, exit_code: int, stdout: str) -> Outcome:
        _require(exit_code == 0, f"exit code {exit_code}")
        record = json.loads(stdout)
        _require(record["columns"] == ["check", "residual", "tolerance", "passed"],
                 "bad columns")
        rows = record["rows"]
        _require(len(rows) > 0, "no checks")
        _require(len({r[0] for r in rows}) == len(rows), "duplicate check names")
        margin = 0.0
        for name, residual, tolerance, passed in rows:
            _require(passed is True and math.isfinite(residual) and residual <= tolerance,
                     f"check {name} failed: {residual!r} > {tolerance!r}")
            if tolerance > 0:
                margin = max(margin, residual / tolerance)
        return Outcome(True, work=len(rows), margin=margin)

    def pooled(self, outcomes: list) -> str:
        return ""


WORKLOADS = {
    w.name: w for w in (
        Simulate("simulate", 0.5, (0.5, 1.0, 2.0), 10_000, 1, deck_size=2),
        Simulate("simulate_long", 0.75, (1.0, 4.0, 16.0, 32.0), 50_000, 2, deck_size=1),
        Tables("tables"),
        Verify("verify"),
    )
}


def check(workload, op: Op, exit_code: int, stdout: str) -> Outcome:
    """Check one operation; any disagreement or unreadable output is a failure."""
    try:
        return workload.check(op, exit_code, stdout)
    except (CheckFailed, csv.Error, ValueError, KeyError, IndexError, TypeError) as exc:
        return Outcome(False, reason=f"{type(exc).__name__}: {exc}")
