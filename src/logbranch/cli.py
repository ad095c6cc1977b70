"""Command-line front end.

Four subcommands: ``pmf`` (closed-form law at a time), ``limit`` (the
long-time conditional law), ``simulate`` (Monte Carlo with closed-form
columns alongside), and ``verify`` (numerical cross-check suites).

Output is CSV by default (RFC 4180, floats at 10 significant digits) or JSON
with ``--format json`` (``json.dumps``, which writes each float as the
shortest repr that round-trips exactly).  Exit codes: 0 success, 1 a
verification check failed, 2 usage or domain error, 3 population cap
exceeded.
"""

import csv
import io
import json
import math
import sys

import click

from . import closed_form
from .distributions import LogSeries
from .errors import (
    DomainError,
    NumericalDivergence,
    PopulationCapExceeded,
    PrecisionLoss,
)
from .model import ModelParams
from .simulate import SimConfig, estimate_law
from .verify import run_suite

SCHEMA_VERSION = "2"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".10g")
    if value is None:
        return ""
    return str(value)


def _render_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue()


def _emit(record, columns, rows, fmt) -> None:
    if fmt == "json":
        click.echo(json.dumps(record, indent=2))
    else:
        click.echo(_render_csv(columns, rows), nl=False)


def _make_params(alpha: float, rate: float) -> ModelParams:
    try:
        return ModelParams(alpha, rate)
    except DomainError as exc:
        raise click.UsageError(str(exc))


_FORMAT = click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
    show_default=True, help="output format",
)


@click.group()
def cli():
    """Subcritical branching process with logarithmic-mixture reproduction:
    closed-form laws, ODE cross-checks, and exact simulation."""


@cli.command()
@click.option("--alpha", type=float, required=True, help="offspring mixture weight")
@click.option("--k", "rate", type=float, required=True, help="per-particle event rate")
@click.option("--t", "time_", type=float, required=True, help="observation time")
@click.option("--nmax", type=int, required=True, help="largest size to tabulate")
@click.option("--conditional", is_flag=True, help="condition on survival")
@_FORMAT
def pmf(alpha, rate, time_, nmax, conditional, fmt):
    """Closed-form law of the population size at time t."""
    params = _make_params(alpha, rate)
    try:
        tp = params.at(time_)
        start = 1 if conditional else 0
        if nmax < start:
            raise DomainError(f"nmax must be at least {start}, got {nmax!r}")
        if conditional:
            term = closed_form.conditional_family(params, tp).pmf
            values = [term(n) for n in range(start, nmax + 1)]
        else:
            values = [closed_form.pmf(params, tp, n)
                      for n in range(start, nmax + 1)]
    except DomainError as exc:
        raise click.UsageError(str(exc))
    tail = max(0.0, 1.0 - math.fsum(values))
    rows = [[n, p] for n, p in zip(range(start, nmax + 1), values)]
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "pmf",
        "params": {"alpha": alpha, "k": rate, "t": time_, "nmax": nmax,
                   "conditional": conditional},
        "columns": ["n", "probability"],
        "rows": rows,
        "tail_mass": tail,
    }
    _emit(record, ["n", "probability"], rows + [["tail", tail]], fmt)


@cli.command()
@click.option("--alpha", type=float, required=True, help="offspring mixture weight")
@click.option("--nmax", type=int, required=True, help="largest size to tabulate")
@_FORMAT
def limit(alpha, nmax, fmt):
    """Long-time law conditioned on survival (logarithmic series), with its
    factorial moments; moments past float range are left empty."""
    law = LogSeries(_make_params(alpha, 1.0).alpha)
    if nmax < 1:
        raise click.UsageError(f"nmax must be at least 1, got {nmax!r}")
    rows = []
    values = []
    for n in range(1, nmax + 1):
        p = law.pmf(n)
        values.append(p)
        try:
            moment = law.factorial_moment(n)
        except OverflowError:
            moment = None
        rows.append([n, p, moment])
    tail = max(0.0, 1.0 - math.fsum(values))
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "limit",
        "params": {"alpha": alpha, "nmax": nmax},
        "columns": ["n", "probability", "factorial_moment"],
        "rows": rows,
        "tail_mass": tail,
    }
    _emit(record, ["n", "probability", "factorial_moment"],
          rows + [["tail", tail, None]], fmt)


@cli.command()
@click.option("--alpha", type=float, required=True, help="offspring mixture weight")
@click.option("--k", "rate", type=float, required=True, help="per-particle event rate")
@click.option("--times", required=True,
              help="comma-separated increasing horizons, e.g. 0.5,1,2")
@click.option("--replicates", type=int, required=True, help="number of trajectories")
@click.option("--seed", type=int, default=202508, envvar="LOGBRANCH_SEED",
              show_default=True, show_envvar=True, help="RNG seed")
@click.option("--workers", type=int, default=1, show_default=True,
              help="parallel worker processes")
@click.option("--max-population", type=int, default=10_000_000, show_default=True,
              help="abort when any replicate exceeds this size")
@_FORMAT
def simulate(alpha, rate, times, replicates, seed, workers, max_population, fmt):
    """Monte Carlo histograms at each horizon, next to the closed-form law."""
    params = _make_params(alpha, rate)
    try:
        horizons = tuple(float(x) for x in times.split(","))
    except ValueError:
        raise click.UsageError(f"cannot parse horizon list {times!r}")
    try:
        cfg = SimConfig(params, horizons, replicates, seed, max_population)
        tps = [params.at(t) for t in horizons]
        laws = estimate_law(cfg, workers=workers)
    except DomainError as exc:
        raise click.UsageError(str(exc))
    except PopulationCapExceeded as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    columns = ["time", "n", "count", "empirical_prob", "model_prob",
               "empirical_mean", "model_mean", "empirical_extinction",
               "model_extinction"]
    rows = []
    horizon_blocks = []
    for law, tp in zip(laws, tps):
        model_mean = tp.mean
        model_ext = closed_form.extinction_prob(params, tp)
        emp_mean = law.mean()
        emp_ext = law.extinction_freq()
        block_rows = []
        for n in sorted(law.counts):
            emp_p = law.prob(n)
            model_p = closed_form.pmf(params, tp, n)
            rows.append([law.time, n, law.counts[n], emp_p, model_p,
                         emp_mean, model_mean, emp_ext, model_ext])
            block_rows.append([n, law.counts[n], emp_p, model_p])
        horizon_blocks.append({
            "time": law.time,
            "empirical_mean": emp_mean,
            "model_mean": model_mean,
            "empirical_extinction": emp_ext,
            "model_extinction": model_ext,
            "columns": ["n", "count", "empirical_prob", "model_prob"],
            "rows": block_rows,
        })
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "params": {"alpha": alpha, "k": rate, "times": list(horizons),
                   "replicates": replicates, "seed": seed, "workers": workers,
                   "max_population": max_population},
        "horizons": horizon_blocks,
    }
    _emit(record, columns, rows, fmt)


@cli.command()
@click.option("--suite", type=click.Choice(["closed-form", "ode", "table1",
                                            "limit", "all"]),
              default="all", show_default=True, help="which check suite to run")
@_FORMAT
def verify(suite, fmt):
    """Numerical cross-checks; exits 1 if any residual exceeds its tolerance."""
    try:
        results = run_suite(suite)
    except (NumericalDivergence, PrecisionLoss) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    columns = ["check", "residual", "tolerance", "passed"]
    rows = [[r.name, r.residual, r.tolerance, r.passed] for r in results]
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "params": {"suite": suite},
        "columns": columns,
        "rows": rows,
    }
    _emit(record, columns, rows, fmt)
    if not all(r.passed for r in results):
        sys.exit(1)


def main():
    cli(prog_name="logbranch")


if __name__ == "__main__":
    main()
