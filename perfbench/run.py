"""Benchmark of the logbranch command line.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the package is imported from
./src, never from an installed copy, and the run fails with exit code 2 when
./src/logbranch is missing.  Workloads: simulate, simulate_long, tables,
verify (see perfbench/README.md and workloads.py).

Every operation is one in-process ``CliRunner`` call to the ``logbranch``
command, timed alone and then checked against a 50-digit reference.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
operation both bare and inside a span, replays it through the public library
functions, and reports the per-layer metrics.  The last line
of standard output is the result for the caller; the line before it is the
full report with provenance and sample counts, and a traced run also writes
its spans to perfbench/out/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans as tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_SLOTS = 3
PASSES = 5

# The set-up a user pays before the first command can run: a fresh
# interpreter, the package import (which locates ALPHA_CRITICAL by
# bisection), the CLI import, parameters and the offspring-sampler table.
SETUP_CODE = r"""
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import logbranch
imported = time.perf_counter()
import logbranch.cli
params = logbranch.ModelParams(0.5, 1.0)
params.at(1.0)
built = time.perf_counter()
logbranch.offspring_sampler(params)
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "sampler_build_s": done - built}), flush=True)
"""

END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "model.import_s": ("s", "lower"),
    "model.params_us": ("us", "lower"),
    "distributions.sampler_build_ms": ("ms", "lower"),
    "distributions.stream_us": ("us", "lower"),
    "distributions.draw_us": ("us", "lower"),
    "distributions.draw_many_ns": ("ns", "lower"),
    "distributions.tail_share": ("ratio", "lower"),
    "simulate.replicate_us": ("us", "lower"),
    "simulate.events_per_replicate": ("count", "lower"),
    "simulate.events_per_replicate_max": ("count", "lower"),
    "simulate.estimate_law_s": ("s", "lower"),
    "simulate.parallel_efficiency": ("ratio", "higher"),
    "closed_form.pmf_us_n10": ("us", "lower"),
    "closed_form.pmf_us_n1000": ("us", "lower"),
    "closed_form.pmf_calls": ("count", "lower"),
    "closed_form.law_table_ms": ("ms", "lower"),
    "closed_form.columns_ms": ("ms", "lower"),
    "closed_form.pgf_us": ("us", "lower"),
    "verify.closed_form_suite_s": ("s", "lower"),
    "verify.ode_suite_s": ("s", "lower"),
    "verify.table1_suite_s": ("s", "lower"),
    "verify.limit_suite_s": ("s", "lower"),
    "verify.rk4_step_us": ("us", "lower"),
    "verify.rk4_steps": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.overhead_op_p50_s": ("s", "lower"),
}


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_program():
    """Import logbranch and its CLI from ./src of this checkout."""
    if not (SRC / "logbranch" / "__init__.py").is_file():
        raise BenchError(f"no logbranch sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import logbranch
    import logbranch.cli
    import logbranch.verify

    if Path(logbranch.__file__).resolve().parent != SRC / "logbranch":
        raise BenchError(f"imported logbranch from {logbranch.__file__}, not {SRC}")
    return logbranch, logbranch.cli.cli, logbranch.verify


class Setup:
    """Set-up time in a few slots.  At every sampling point each slot spawns
    a fresh interpreter once and keeps its fastest wall time, from spawn to
    the child reporting set-up done; the children's own stage times are kept
    too.  The sampling points are spread over the run, for the reason an
    operation's passes are."""

    def __init__(self):
        self.best = [math.inf] * SETUP_SLOTS
        self.stages = []

    def sample(self) -> None:
        for slot in range(len(self.best)):
            start = time.perf_counter()
            with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)],
                                  stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
                line = child.stdout.readline()
                wall = time.perf_counter() - start
                child.stdout.read()
                code = child.wait(timeout=120)
            if code != 0 or not line:
                raise BenchError(f"set-up child exited with code {code}")
            self.best[slot] = min(self.best[slot], wall)
            self.stages.append(json.loads(line))


class Loop:
    """Per-operation best times, work and check results of one measured loop.
    ``traced_times`` is filled by a traced loop only."""

    def __init__(self):
        self.times = []
        self.traced_times = []
        self.work = 0
        self.failed = 0
        self.reasons = []
        self.outcomes = []
        self.output_bytes = 0
        self.peak_rss_mb = 0.0

    @property
    def attempted(self) -> int:
        return len(self.times)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest ended
    child, which on simulate_long is a simulator worker: the workers run
    alongside the process that hosts the CLI, and a worker's growth counts."""
    return sum(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def run_loop(workload, seed, seconds, runner, cli, setup=None, tracer=None, replay=None,
             tiny=False) -> Loop:
    """Run the workload's operations PASSES times over and keep, for each, its
    fastest pass.

    The first pass runs whole decks while the operation time of the next
    one, judged by the last, still fits in a PASSES-th of ``seconds``, and
    checks each output as it comes; so ``seconds`` 0 runs one deck.  The
    later passes repeat those operations in order, pass k starting no earlier
    than (k - 1) PASSES-ths of ``seconds`` into the loop.  The host's CPU
    runs in slow spells lasting seconds, and an operation's passes are at
    least a PASSES-th of the run apart, so a spell rarely covers all of them.
    Every pass must print the same bytes.

    A traced loop runs each operation twice in every pass, bare and then
    inside a span, so that the two times are taken moments apart, and
    replays it once, right after its last traced run.  ``setup``, when
    given, is sampled after every pass; the first sample comes after the
    peak memory is read, so that set-up children do not count in it.
    """
    loop = Loop()
    stream = workload.decks(seed, tiny)
    ops, digests = [], []

    def execute(index, op, last):
        """(bare time, traced time or None, outputs)"""
        began = time.perf_counter()
        result = runner.invoke(cli, op.args)
        bare = time.perf_counter() - began
        if tracer is None:
            return bare, None, [result]
        tracer.op_id = index
        with tracer.span("op"):
            with tracer.span("cli.invoke") as span:
                traced = runner.invoke(cli, op.args)
            if last:
                with tracer.span("replay"):
                    replay(op)
        return bare, span[2] - span[1], [result, traced]

    budget = seconds / PASSES
    start = time.perf_counter()
    spent = deck_time = 0.0
    done = 0
    while done == 0 or spent + deck_time <= budget:
        deck_time = 0.0
        for op in next(stream):
            bare, traced, results = execute(len(ops), op, PASSES == 1)
            deck_time += bare + (traced or 0.0)
            result = results[0]
            outcome = wl.check(workload, op, result.exit_code, result.stdout)
            if not isinstance(result.exception, (SystemExit, type(None))):
                outcome.reason += f" ({result.exception!r})"
            digest = hashlib.sha256(result.stdout_bytes).digest()
            if any(hashlib.sha256(r.stdout_bytes).digest() != digest for r in results):
                outcome = wl.Outcome(False, reason="traced output differs from bare output")
            ops.append(op)
            digests.append(digest)
            loop.times.append(bare)
            if traced is not None:
                loop.traced_times.append(traced)
            loop.outcomes.append(outcome)
            loop.output_bytes += len(result.stdout_bytes)
        spent += deck_time
        if done == 0:
            # Resident memory grows by about 0.4 MB per tables deck served
            # in-process, so the peak is read at a fixed point: after the
            # imports, the warm-up and one deck.
            loop.peak_rss_mb = peak_rss_mb()
        done += 1
    if setup is not None:
        setup.sample()
    for number in range(2, PASSES + 1):
        time.sleep(max(0.0, start + (number - 1) * budget - time.perf_counter()))
        for index, op in enumerate(ops):
            bare, traced, results = execute(index, op, number == PASSES)
            loop.times[index] = min(loop.times[index], bare)
            if traced is not None:
                loop.traced_times[index] = min(loop.traced_times[index], traced)
            if any(hashlib.sha256(r.stdout_bytes).digest() != digests[index] for r in results):
                loop.outcomes[index] = wl.Outcome(False, reason="output differs between passes")
        if setup is not None:
            setup.sample()
    for op, outcome in zip(ops, loop.outcomes):
        if outcome.ok:
            loop.work += outcome.work
        else:
            loop.failed += 1
            loop.reasons.append(f"{' '.join(op.args)}: {outcome.reason}")
    pooled = workload.pooled(loop.outcomes)
    if pooled:
        loop.reasons.append(pooled)
    return loop


def end_to_end(loop: Loop, setup: Setup) -> dict:
    """name -> (value, samples)."""
    busy = sum(loop.times)
    return {
        "setup_s": (statistics.median(setup.best), len(setup.stages)),
        "op_p50_s": (statistics.median(loop.times), loop.attempted),
        "work_per_s": (loop.work / busy, loop.attempted),
        "peak_rss_mb": (loop.peak_rss_mb, 1),
    }


def workload_metrics(workload, loop: Loop, e2e: dict) -> dict:
    """The workload's own names for its figures: name -> (value, unit, samples).
    p90 needs ten operations beyond it, so it appears from 100 operations on."""
    out = {"failed_ratio": (loop.failed / loop.attempted, "ratio", loop.attempted)}
    if loop.attempted >= 100:
        out["op_p90_s"] = (statistics.quantiles(loop.times, n=10)[8], "s", loop.attempted)
    rate = e2e["work_per_s"][0]
    if workload.unit == "replicates":
        out["replicates_per_s"] = (rate, "1/s", loop.attempted)
    elif workload.unit == "probability rows":
        out["terms_per_s"] = (rate, "1/s", loop.attempted)
        errs = [o.rel_err for o in loop.outcomes if o.rel_err is not None]
        out["pmf_rel_err_max"] = (max(errs, default=0.0), "ratio", len(errs))
    else:
        out["checks_per_s"] = (rate, "1/s", loop.attempted)
        margins = [o.margin for o in loop.outcomes if o.margin is not None]
        out["verify_margin_max"] = (max(margins, default=0.0), "ratio", len(margins))
    return out


def per_layer(stages, micro, tracer, stats, traced: Loop) -> dict:
    """name -> (value, samples).  A layer the workload does not reach reads 0
    with 0 samples."""

    def median_of(values, scale=1.0):
        values = list(values)
        return (statistics.median(values) * scale if values else 0.0, len(values))

    def mean_of(values):
        values = list(values)
        return (sum(values) / len(values) if values else 0.0, len(values))

    ops = range(traced.attempted)
    # The replay follows the last pass at once, so compare it with that pass.
    last_pass = {s[4]: s[2] - s[1] for s in tracer.spans if s[0] == "cli.invoke"}
    mirrored = tracer.per_op(tracing.MIRRORED)
    pmf_calls = tracer.counts_per_op({"closed_form.pmf", "closed_form.columns"})
    rk4 = tracer.counts_per_op({"verify.integrate_backward", "verify.integrate_complement"})
    draws = stats.draws
    metrics = {
        "model.import_s": median_of(s["import_s"] for s in stages),
        "distributions.sampler_build_ms": median_of((s["sampler_build_s"] for s in stages), 1e3),
        "distributions.tail_share": (stats.tail_draws / draws if draws else 0.0, draws),
        "simulate.replicate_us": median_of(tracer.durations("simulate.simulate_counts"), 1e6),
        "simulate.events_per_replicate": (
            draws / stats.replicates if stats.replicates else 0.0, stats.replicates),
        "simulate.events_per_replicate_max": (stats.events_max, stats.replicates),
        "simulate.estimate_law_s": median_of(tracer.durations("simulate.estimate_law")),
        "simulate.parallel_efficiency": median_of(stats.efficiency),
        "closed_form.pmf_calls": mean_of(pmf_calls.get(i, 0) for i in ops) if pmf_calls else (0.0, 0),
        "closed_form.columns_ms": median_of(tracer.durations("closed_form.columns"), 1e3),
        "verify.closed_form_suite_s": median_of(tracer.durations("verify.closed_form_suite")),
        "verify.ode_suite_s": median_of(tracer.durations("verify.ode_suite")),
        "verify.table1_suite_s": median_of(tracer.durations("verify.table1_suite")),
        "verify.limit_suite_s": median_of(tracer.durations("verify.limit_suite")),
        "verify.rk4_steps": mean_of(rk4.values()),
        "cli.self_s": median_of(last_pass[i] - mirrored.get(i, 0.0) for i in ops),
        "cli.output_bytes": (traced.output_bytes / traced.attempted, traced.attempted),
        "trace.overhead_op_p50_s": median_of(
            t - b for b, t in zip(traced.times, traced.traced_times)),
    }
    metrics.update(micro)
    return metrics


def git_sha():
    """Commit of the checkout, read from .git without running git; None
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(lb, args) -> dict:
    import numpy

    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "mpmath": metadata.version("mpmath"),
        "logbranch": lb.__version__,
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args) -> tuple:
    """One benchmark run; returns (report, result)."""
    from click.testing import CliRunner

    lb, cli, verify = load_program()
    workload = wl.WORKLOADS[args.workload]
    runner = CliRunner()
    setup = Setup()
    # Fill the package's caches and finish lazy imports before timing.
    run_loop(workload, args.seed + 1, 0, runner, cli, tiny=True)
    report = {"provenance": provenance(lb, args)}
    if not args.trace:
        loop = run_loop(workload, args.seed, args.seconds, runner, cli, setup, tiny=args.tiny)
        values = end_to_end(loop, setup)
        registry = END_TO_END
        report["workload_metrics"] = {
            name: {"value": v, "unit": u, "samples": n}
            for name, (v, u, n) in workload_metrics(workload, loop, values).items()}
    else:
        micro = tracing.micro_loops(lb, verify)
        tracer = tracing.Tracer()
        stats = tracing.SimulateStats()
        replays = {
            "replicates": lambda op: tracing.replay_simulate(tracer, lb, op.spec, stats),
            "probability rows": lambda op: tracing.replay_tables(tracer, lb, op.spec),
            "checks": lambda op: tracing.replay_verify(tracer, verify),
        }
        loop = run_loop(workload, args.seed, args.seconds, runner, cli, setup, tracer=tracer,
                        replay=replays[workload.unit], tiny=args.tiny)
        if stats.mismatches:
            loop.reasons.append(f"{stats.mismatches} simulate replays tallied other "
                                "histograms than the CLI printed")
        values = per_layer(setup.stages, micro, tracer, stats, loop)
        registry = PER_LAYER
        report["replay_mismatches"] = stats.mismatches
        report["self_times_s"] = tracer.self_times()
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "provenance": report["provenance"],
            "span_fields": ["name", "start", "end", "parent", "op", "count"],
            "spans": tracer.spans,
            "self_times_s": report["self_times_s"],
        }))
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    report["metrics"] = {name: {"value": values[name][0], "unit": unit, "better": better,
                                "samples": values[name][1]}
                         for name, (unit, better) in registry.items()}
    report["failures"] = loop.reasons[:20]
    result = {
        "correct": not loop.reasons,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name][0], "unit": unit}
                    for name, (unit, _) in registry.items()},
    }
    return report, result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for smoke checks")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        report, result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
