"""Spans, replays and micro-loops for the traced run.

The CLI is never instrumented.  After each traced CLI operation the
benchmark replays the same work through the package's public functions, with
spans around each call, and counts work through public arguments: events
through the ``sampler=`` argument of ``simulate_counts``, RK4 steps through
the solutions ``integrate_backward`` and ``integrate_complement`` return.
"""

import itertools
import statistics
from contextlib import contextmanager
from time import perf_counter

# Spans of library calls that redo the CLI's own work, so that the operation
# time minus their sum is the CLI's parsing and rendering.
MIRRORED = {
    "simulate.estimate_law", "closed_form.columns", "closed_form.pmf",
    "closed_form.limit", "verify.closed_form_suite", "verify.ode_suite",
    "verify.table1_suite", "verify.limit_suite",
}
SUITES = (("verify.closed_form_suite", "closed_form_suite"),
          ("verify.ode_suite", "ode_suite"),
          ("verify.table1_suite", "table1_suite"),
          ("verify.limit_suite", "limit_suite"))
# Replicates per operation that get their own stream and simulate_counts spans;
# the rest run under the parent span and are only counted.
REPLICATE_SPANS = 500
# The offspring sampler tabulates its head to this cumulative mass (the
# InverseCdfSampler default); a draw past the head takes the tail path.
HEAD_MASS = 0.99


class Tracer:
    """Spans kept in memory as [name, start, end, parent, op id, count].

    ``count`` is the number of calls or units of work the span covers.
    """

    def __init__(self):
        self.spans = []
        self.op_id = -1
        self._open = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [name, perf_counter(), None, parent, self.op_id, 1]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def per_op(self, names) -> dict:
        """Total duration of the named spans within each operation."""
        totals = {}
        for s in self.spans:
            if s[0] in names:
                totals[s[4]] = totals.get(s[4], 0.0) + s[2] - s[1]
        return totals

    def counts_per_op(self, names) -> dict:
        totals = {}
        for s in self.spans:
            if s[0] in names:
                totals[s[4]] = totals.get(s[4], 0) + s[5]
        return totals

    def self_times(self) -> dict:
        """Per span name: total duration minus the time its child spans cover
        (children run one after another, so their sum)."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        totals = {}
        for s, child in zip(self.spans, covered):
            totals[s[0]] = totals.get(s[0], 0.0) + (s[2] - s[1]) - child
        return totals


class CountingSampler:
    """Passes draws through to an offspring sampler and counts them; in the
    event loop one draw is one event."""

    def __init__(self, sampler, head_end: int):
        self._sampler = sampler
        self._head_end = head_end
        self.draws = 0
        self.tail_draws = 0

    def draw(self, rng) -> int:
        k = self._sampler.draw(rng)
        self.draws += 1
        if k > self._head_end:
            self.tail_draws += 1
        return k


def head_end(lb, params) -> int:
    """Largest offspring count in the sampler's tabulated head."""
    total, n = 0.0, 0
    while True:
        total += lb.offspring_pmf(params, n)
        if total >= HEAD_MASS and n >= 2:
            return n
        n += 1


class SimulateStats:
    """Counts from the per-replicate replays of one run."""

    def __init__(self):
        self.replicates = 0
        self.events_max = 0
        self.draws = 0
        self.tail_draws = 0
        self.mismatches = 0
        self.efficiency = []


def replay_simulate(tracer, lb, spec, stats) -> None:
    params = lb.ModelParams(spec["alpha"], 1.0)
    horizons = spec["times"]
    cfg = lb.SimConfig(params, horizons, spec["replicates"], spec["seed"])
    with tracer.span("simulate.estimate_law") as parallel:
        laws = lb.estimate_law(cfg, workers=spec["workers"])
    with tracer.span("closed_form.columns") as columns:
        for law in laws:
            tp = params.at(law.time)
            lb.extinction_prob(params, tp)
            for n in sorted(law.counts):
                lb.pmf(params, tp, n)
        columns[5] = sum(len(law.counts) for law in laws)
    if spec["workers"] > 1:
        with tracer.span("simulate.estimate_law_serial") as serial:
            lb.estimate_law(cfg, workers=1)
        stats.efficiency.append((serial[2] - serial[1])
                                / (spec["workers"] * (parallel[2] - parallel[1])))
    sampler = CountingSampler(lb.offspring_sampler(params), head_end(lb, params))
    tallies = [{} for _ in horizons]
    with tracer.span("simulate.replicates") as replicates:
        for index in range(spec["replicates"]):
            before = sampler.draws
            if index < REPLICATE_SPANS:
                with tracer.span("distributions.stream"):
                    rng = lb.stream(spec["seed"], index)
                with tracer.span("simulate.simulate_counts"):
                    counts = lb.simulate_counts(params, horizons, rng, sampler=sampler)
            else:
                rng = lb.stream(spec["seed"], index)
                counts = lb.simulate_counts(params, horizons, rng, sampler=sampler)
            events = sampler.draws - before
            stats.events_max = max(stats.events_max, events)
            for tally, c in zip(tallies, counts):
                tally[int(c)] = tally.get(int(c), 0) + 1
        replicates[5] = spec["replicates"]
    stats.replicates += spec["replicates"]
    stats.draws += sampler.draws
    stats.tail_draws += sampler.tail_draws
    if tallies != [dict(law.counts) for law in laws]:
        stats.mismatches += 1


def replay_tables(tracer, lb, spec) -> None:
    params = lb.ModelParams(spec["alpha"], 1.0)
    if spec["kind"] == "pmf":
        tp = params.at(spec["t"])
        start = 1 if spec["conditional"] else 0
        term = lb.conditional_pmf if spec["conditional"] else lb.pmf
        with tracer.span("closed_form.pmf") as span:
            for n in range(start, spec["nmax"] + 1):
                term(params, tp, n)
            span[5] = spec["nmax"] + 1 - start
    else:
        with tracer.span("closed_form.limit") as span:
            for n in range(1, spec["nmax"] + 1):
                lb.limit_law_pmf(params, n)
                try:
                    lb.limit_law_factorial_moment(params, n)
                except OverflowError:
                    pass
            span[5] = spec["nmax"]


@contextmanager
def counting_rk4(tracer, verify):
    """Route the verify module's two public integrators through spans whose
    count is the number of RK4 steps taken; restored on exit."""
    originals = {name: getattr(verify, name)
                 for name in ("integrate_backward", "integrate_complement")}

    def traced(name, integrate):
        def call(*args, **kwargs):
            with tracer.span("verify." + name) as span:
                solution = integrate(*args, **kwargs)
                span[5] = len(solution.times) - 1
            return solution
        return call

    try:
        for name, integrate in originals.items():
            setattr(verify, name, traced(name, integrate))
        yield
    finally:
        for name, integrate in originals.items():
            setattr(verify, name, integrate)


def replay_verify(tracer, verify) -> None:
    with counting_rk4(tracer, verify):
        for span_name, suite in SUITES:
            with tracer.span(span_name):
                getattr(verify, suite)()


def _per_call(fn, calls: int, repeats: int = 5):
    """Median over ``repeats`` batches of the seconds per call of ``fn()``."""
    batches = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            fn()
        batches.append((perf_counter() - start) / calls)
    return statistics.median(batches), repeats


def micro_loops(lb, verify) -> dict:
    """Per-call costs of single layers at fixed inputs (alpha 0.5, rate 1,
    t 1), as (value in the metric's unit, sample count)."""
    params = lb.ModelParams(0.5, 1.0)
    tp = params.at(1.0)
    sampler = lb.offspring_sampler(params)
    rng = lb.stream(7, 0)
    index = itertools.count()
    mech = verify.log_mixture_mechanism(params)

    def scaled(result, factor):
        return result[0] * factor, result[1]

    rk4_steps = len(verify.integrate_backward(mech, 0.5, 1.0, 1e-3).times) - 1
    return {
        "model.params_us": scaled(_per_call(lambda: lb.ModelParams(0.5, 1.0).at(1.0), 20_000), 1e6),
        "distributions.stream_us": scaled(_per_call(lambda: lb.stream(7, next(index)), 5_000), 1e6),
        "distributions.draw_us": scaled(_per_call(lambda: sampler.draw(rng), 50_000), 1e6),
        "distributions.draw_many_ns": scaled(
            _per_call(lambda: sampler.draw_many(rng, 100_000), 10), 1e9 / 100_000),
        "closed_form.pmf_us_n10": scaled(_per_call(lambda: lb.pmf(params, tp, 10), 20_000), 1e6),
        "closed_form.pmf_us_n1000": scaled(_per_call(lambda: lb.pmf(params, tp, 1000), 300), 1e6),
        "closed_form.pgf_us": scaled(_per_call(lambda: lb.pgf_at(params, tp, 0.5), 50_000), 1e6),
        "closed_form.law_table_ms": scaled(_per_call(lambda: lb.law_at(params, tp), 20), 1e3),
        "verify.rk4_step_us": scaled(_per_call(
            lambda: verify.integrate_backward(mech, 0.5, 1.0, 1e-3), 10), 1e6 / rk4_steps),
    }
