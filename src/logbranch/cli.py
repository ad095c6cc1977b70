"""Command-line front end.

Four subcommands: ``pmf`` (closed-form law at a time), ``limit`` (the
long-time conditional law), ``simulate`` (Monte Carlo with closed-form
columns alongside), and ``verify`` (numerical cross-check suites).

Output is CSV by default (RFC 4180, floats at 10 significant digits) or JSON
with ``--format json``, byte for byte what ``json.dumps(record, indent=2)``
writes (each float as the shortest repr that round-trips exactly).  Both are
written a column at a time: CPython skips its C JSON encoder whenever
``indent`` is set, and a Python call per cell cost more than the tables
themselves, so each column of one type becomes text in one ``map``.  Every
command writes one record: the schema version, the command name and its
params, then its own fields.

Exit codes: 0 success, 1 a verification check failed or the harness failed
numerically (``NumericalDivergence``, ``PrecisionLoss``, with ``error: ...``
on stderr), 2 usage or domain error, 3 population cap exceeded.  One command
class, ``_Command``, maps the typed errors to these codes; the command bodies
only raise them.
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
from .model import ModelParams
from .simulate import _MAX_POPULATION, SimConfig, estimate_law
from .verify import _SUITES, run_suite

SCHEMA_VERSION = "2"


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


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` for a value nested at ``indent``, with
    string keys; a list of equal-length lists is written column by column."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{json.dumps(key)}: {_json_text(item, inner)}"
                 for key, item in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if (set(map(type, value)) <= {list, tuple}
                and len(set(map(len, value))) == 1 and value[0]):
            cell = "\n" + inner + "  %s"
            row = "\n" + inner + "[" + ",".join([cell] * len(value[0])) + "\n" + inner + "]"
            cells = _cells(value, "json", inner + "  ")
            return "[" + ",".join(map(row.__mod__, cells)) + "\n" + indent + "]"
        items = [inner + _json_text(item, inner) for item in value]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    if value is None:
        return "null"
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _column_text(column, fmt: str, indent: str):
    """The cells of one column as text: one ``map`` over plain ints or plain
    floats (in JSON only finite ones, and a sum is finite only if every term
    is), a conversion per cell in any other column."""
    kinds = set(map(type, column))
    if kinds == {int}:
        return map(int.__repr__, column)
    if kinds == {float}:
        if fmt == "csv":
            return map(format, column, repeat(".10g"))
        if math.isfinite(sum(column)):
            return map(float.__repr__, column)
    if fmt == "csv":
        return map(_csv_text, column)
    return map(_json_text, column, repeat(indent))


def _cells(rows, fmt: str, indent: str = ""):
    """The rows of a table of equal-length rows as tuples of cell text,
    converted column by column."""
    columns = [_column_text(column, fmt, indent) for column in zip(*rows)]
    return zip(*columns) if columns else [()] * len(rows)


def _render(record, fmt, columns, *tables) -> str:
    """A command's output: ``record`` as JSON, or the header ``columns`` and
    then the rows of each table as CSV."""
    if fmt == "json":
        return _json_text(record) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for rows in tables:
        writer.writerows(_cells(rows, "csv"))
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
              help="parallel worker processes")
@click.option("--max-population", type=int, default=_MAX_POPULATION, show_default=True,
              help="abort when any replicate exceeds this size")
@_FORMAT
def simulate(alpha, rate, times, replicates, seed, workers, max_population, fmt):
    """Monte Carlo histograms at each horizon, next to the closed-form law."""
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
@click.option("--suite", type=click.Choice([*_SUITES, "all"]),
              default="all", show_default=True, help="which check suite to run")
@_FORMAT
def verify(suite, fmt):
    """Numerical cross-checks; exits 1 if any residual exceeds its tolerance."""
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
