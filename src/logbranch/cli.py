"""Command-line front end.

Four subcommands: ``pmf`` (closed-form law at a time), ``limit`` (the
long-time conditional law), ``simulate`` (Monte Carlo with closed-form
columns alongside), and ``verify`` (numerical cross-check suites).

Output is CSV by default (RFC 4180, floats at 10 significant digits) or JSON
with ``--format json``: ``json.dumps(record)`` on one line (each float as the
shortest repr that round-trips exactly).  CSV is written a column at a time: a
Python call per cell cost more than the tables themselves, so each column of
one type becomes text in one ``map``.  Every command writes one record: the
schema version, the command name and its params, then its own fields.

Exit codes: 0 success, 1 a verification check failed or the harness failed
numerically (``NumericalDivergence``, ``PrecisionLoss``, with ``error: ...``
on stderr), 2 usage or domain error, 3 population cap exceeded.  One command
class, ``_Command``, maps the typed errors to these codes; the command bodies
only raise them.

The ``simulate`` and ``verify`` commands import their modules when they run:
those load numpy, which takes longer to import than the rest of a start-up,
and ``pmf``, ``limit`` and ``--help`` need none of it.
"""

import csv
import io
import json
import math
import sys
from itertools import repeat

import click

from . import closed_form
from .distributions import LogSeries
from .errors import (
    DomainError,
    NumericalDivergence,
    PopulationCapExceeded,
    PrecisionLoss,
)
from .model import _MAX_POPULATION, ModelParams

SCHEMA_VERSION = "2"
# the names of ``verify._SUITES``, in its order, for ``--suite``'s choices
_SUITE_NAMES = ("closed-form", "ode", "table1", "limit")


def _csv_text(value) -> str:
    """One CSV cell: bools as true/false, floats at 10 significant digits,
    None empty."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".10g")
    if value is None:
        return ""
    return str(value)


def _column_text(column):
    """The cells of one column as CSV text: one ``map`` over plain ints or
    plain floats, a conversion per cell in any other column."""
    kinds = set(map(type, column))
    if kinds == {int}:
        return map(int.__repr__, column)
    if kinds == {float}:
        return map(format, column, repeat(".10g"))
    return map(_csv_text, column)


def _cells(rows):
    """The rows of a table of equal-length rows as tuples of CSV cell text,
    converted column by column."""
    columns = [_column_text(column) for column in zip(*rows)]
    return zip(*columns) if columns else [()] * len(rows)


def _render(record, fmt, columns, *tables) -> str:
    """A command's output: ``record`` as JSON, or the header ``columns`` and
    then the rows of each table as CSV."""
    if fmt == "json":
        return json.dumps(record) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for rows in tables:
        writer.writerows(_cells(rows))
    return buf.getvalue()


class _Command(click.Command):
    """A subcommand whose typed errors become the exit codes listed above;
    a ``DomainError``'s usage line names the subcommand."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except DomainError as exc:
            raise click.UsageError(str(exc), ctx) from exc
        except (PopulationCapExceeded, NumericalDivergence, PrecisionLoss) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(3 if isinstance(exc, PopulationCapExceeded) else 1)


def _echo_record(command, params, fmt, header, *tables, **fields):
    """Write one command's record (schema version, command name, params, then
    ``fields``) as JSON, or the CSV ``header`` and then ``tables``."""
    record = {"schema_version": SCHEMA_VERSION, "command": command,
              "params": params, **fields}
    click.echo(_render(record, fmt, header, *tables), nl=False)


def _sizes(start: int, nmax: int) -> range:
    if nmax < start:
        raise DomainError(f"nmax must be at least {start}, got {nmax!r}")
    return range(start, nmax + 1)


def _echo_law(command, params, fmt, columns, sizes, values, *extra):
    """A law's table: a row per size (``extra`` adds columns), then a
    ``tail`` row holding the mass 1 - sum(values) past the last size."""
    rows = list(zip(sizes, values, *extra))
    tail = max(0.0, 1.0 - math.fsum(values))
    tail_row = ["tail", tail, *[None] * len(extra)]
    _echo_record(command, params, fmt, columns, rows, [tail_row],
                 columns=columns, rows=rows, tail_mass=tail)


_FORMAT = click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
    show_default=True, help="output format",
)


@click.group()
def cli():
    """Subcritical branching process with logarithmic-mixture reproduction:
    closed-form laws, ODE cross-checks, and exact simulation."""


@cli.command(cls=_Command)
@click.option("--alpha", type=float, required=True, help="offspring mixture weight")
@click.option("--k", "rate", type=float, required=True, help="per-particle event rate")
@click.option("--t", "time_", type=float, required=True, help="observation time")
@click.option("--nmax", type=int, required=True, help="largest size to tabulate")
@click.option("--conditional", is_flag=True, help="condition on survival")
@_FORMAT
def pmf(alpha, rate, time_, nmax, conditional, fmt):
    """Closed-form law of the population size at time t."""
    params = ModelParams(alpha, rate)
    tp = params.at(time_)
    sizes = _sizes(1 if conditional else 0, nmax)
    if conditional:
        term = closed_form.conditional_family(params, tp).pmf
    else:
        term = closed_form._pmf_term(params, tp)
    _echo_law("pmf", {"alpha": alpha, "k": rate, "t": time_, "nmax": nmax,
                      "conditional": conditional},
              fmt, ["n", "probability"], sizes, list(map(term, sizes)))


@cli.command(cls=_Command)
@click.option("--alpha", type=float, required=True, help="offspring mixture weight")
@click.option("--nmax", type=int, required=True, help="largest size to tabulate")
@_FORMAT
def limit(alpha, nmax, fmt):
    """Long-time law conditioned on survival (logarithmic series), with its
    factorial moments; moments past float range are left empty."""
    law = LogSeries(ModelParams(alpha, 1.0).alpha)
    sizes = _sizes(1, nmax)
    moments = []
    for n in sizes:
        try:
            moments.append(law.factorial_moment(n))
        except OverflowError:
            # log E[[N]_n] stays below log 4.4 while n <= (1 - alpha)/alpha
            # and rises by log(n alpha/(1 - alpha)) > 0 a step after that, so
            # once a moment overflows every later one does too
            break
    moments += [None] * (nmax - len(moments))
    _echo_law("limit", {"alpha": alpha, "nmax": nmax}, fmt,
              ["n", "probability", "factorial_moment"], sizes,
              list(map(law.pmf, sizes)), moments)


_HORIZON_COLUMNS = ["n", "count", "empirical_prob", "model_prob"]
_HORIZON_SUMMARY = ["empirical_mean", "model_mean", "empirical_extinction",
                    "model_extinction"]


@cli.command(cls=_Command)
@click.option("--alpha", type=float, required=True, help="offspring mixture weight")
@click.option("--k", "rate", type=float, required=True, help="per-particle event rate")
@click.option("--times", required=True,
              help="comma-separated increasing horizons, e.g. 0.5,1,2")
@click.option("--replicates", type=int, required=True, help="number of trajectories")
@click.option("--seed", type=int, default=202508, envvar="LOGBRANCH_SEED",
              show_default=True, show_envvar=True, help="RNG seed")
@click.option("--workers", type=int, default=1, show_default=True,
              help="parallel worker processes, capped at the CPU count")
@click.option("--max-population", type=int, default=_MAX_POPULATION, show_default=True,
              help="abort when any replicate exceeds this size")
@_FORMAT
def simulate(alpha, rate, times, replicates, seed, workers, max_population, fmt):
    """Monte Carlo histograms at each horizon, next to the closed-form law."""
    from .simulate import SimConfig, estimate_law

    params = ModelParams(alpha, rate)
    try:
        horizons = tuple(float(x) for x in times.split(","))
    except ValueError:
        raise DomainError(f"cannot parse horizon list {times!r}") from None
    cfg = SimConfig(params, horizons, replicates, seed, max_population)
    tps = [params.at(t) for t in horizons]
    laws = estimate_law(cfg, workers=workers)
    blocks = []
    for law, tp in zip(laws, tps):
        model_pmf = closed_form._pmf_term(params, tp)
        blocks.append({
            "time": law.time,
            "empirical_mean": law.mean(),
            "model_mean": tp.mean,
            "empirical_extinction": law.extinction_freq(),
            "model_extinction": closed_form.extinction_prob(params, tp),
            "columns": _HORIZON_COLUMNS,
            "rows": [[n, law.counts[n], law.prob(n), model_pmf(n)]
                     for n in sorted(law.counts)],
        })
    # one CSV row per (horizon, n): the block's row between its time and summary
    rows = [[block["time"], *row, *(block[key] for key in _HORIZON_SUMMARY)]
            for block in blocks for row in block["rows"]]
    _echo_record("simulate",
                 {"alpha": alpha, "k": rate, "times": list(horizons),
                  "replicates": replicates, "seed": seed, "workers": workers,
                  "max_population": max_population},
                 fmt, ["time", *_HORIZON_COLUMNS, *_HORIZON_SUMMARY], rows,
                 horizons=blocks)


@cli.command(cls=_Command)
@click.option("--suite", type=click.Choice([*_SUITE_NAMES, "all"]),
              default="all", show_default=True, help="which check suite to run")
@_FORMAT
def verify(suite, fmt):
    """Numerical cross-checks; exits 1 if any residual exceeds its tolerance."""
    from .verify import run_suite

    results = run_suite(suite)
    columns = ["check", "residual", "tolerance", "passed"]
    rows = [[r.name, r.residual, r.tolerance, r.passed] for r in results]
    _echo_record("verify", {"suite": suite}, fmt, columns, rows,
                 columns=columns, rows=rows)
    if not all(r.passed for r in results):
        sys.exit(1)


def main():
    cli(prog_name="logbranch")


if __name__ == "__main__":
    main()
