"""Command-line front end.

Four subcommands: ``pmf`` (closed-form law at a time), ``limit`` (the
long-time conditional law), ``simulate`` (Monte Carlo with closed-form
columns alongside), and ``verify`` (numerical cross-check suites).

Output is CSV by default (RFC 4180, floats at 10 significant digits) or JSON
with ``--format json``: ``json.dumps(record)`` on one line (each float as the
shortest repr that round-trips exactly).  CSV is the bytes ``csv.writer``
writes, but each row is one ``%`` through a template built per table from
its columns' types: a Python call per cell cost more than the tables
themselves.  Every command writes one record: the schema version, the
command name and its params, then its own fields.

``pmf`` and ``limit`` evaluate their terms up to nmax or the first exact
0.0 at n >= 1, and their ``tail`` row sums the terms past the last one
evaluated through ``distributions._certified_terms`` with ratio alpha: an
exact 0.0 after a 0.0 term.  Both rest on the terms being nonincreasing
from n = 1 on: the ExtendedSibuya ratio b (n - gamma)/(n + 1) and the
LogSeries ratio alpha n/(n + 1) are below alpha < ``ALPHA_CRITICAL`` ≈
0.7726, and the survival factor keeps the order.  The log-terms fall by at
least |log 0.7726| ≈ 0.26 a step, far more than the rounding error of a
computed term, so after one term underflows to 0.0 so does every later one.
Their rows are built only until every column holds its stop value:
probability 0.0, and a moment past float range, or 0.0 where
nmax alpha/(1 - alpha) <= ``ALPHA_CRITICAL`` makes the moments fall as fast
as the probabilities.  The rest of the table is written as one string per
format, one ``%`` a row and no row built, so a large ``--nmax`` costs little
more than the text it writes.

Exit codes: 0 success, 1 a verification check failed or the harness failed
numerically (``NumericalDivergence``, ``PrecisionLoss``, with ``error: ...``
on stderr), 2 usage or domain error, 3 population cap exceeded.  One command
class, ``_Command``, maps the typed errors to these codes; the command bodies
only raise them.

The ``verify`` command imports the check harness when it runs: the harness
loads numpy, slower to import than the rest of a start-up, and is the largest
module, and no other command or ``--help`` needs it.
"""

import json
import math
import sys

import click

from . import closed_form
from .distributions import LogSeries, _certified_terms
from .errors import (
    DomainError,
    NumericalDivergence,
    PopulationCapExceeded,
    PrecisionLoss,
)
from .model import ALPHA_CRITICAL, ModelParams
from .simulate import _MAX_POPULATION, SimConfig, estimate_law

SCHEMA_VERSION = "2"
# the names of ``verify._SUITES``, in its order, for ``--suite``'s choices
_SUITE_NAMES = ("closed-form", "ode", "table1", "limit")
# a JSON row no record holds, standing for where ``_render`` writes a run
_RUN_MARK = "\x00run"


def _csv_cell(value) -> str:
    """One CSV cell as ``csv.writer``'s excel dialect writes it: bools as
    true/false, floats at 10 significant digits, None empty, anything else
    as ``str``, quoted with its quotes doubled where it holds a comma, a
    quote or a line break."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".10g")
    if value is None:
        return ""
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"%s"' % text.replace('"', '""')
    return text


def _csv_rows(rows) -> str:
    """A table of equal-length rows of two or more cells as CSV, each row
    through one %-template built from its columns' types: ``%d`` for plain
    ints and ``%.10g`` for plain floats (what ``_csv_cell`` writes for them),
    ``%s`` over the ``_csv_cell`` of each cell of any other column."""
    columns = list(zip(*rows))
    formats = []
    for i, column in enumerate(columns):
        kinds = set(map(type, column))
        if kinds == {int}:
            formats.append("%d")
        elif kinds == {float}:
            formats.append("%.10g")
        else:
            formats.append("%s")
            columns[i] = [_csv_cell(value) for value in column]
    template = ",".join(formats) + "\r\n"
    return "".join(map(template.__mod__, zip(*columns)))


def _render(record, fmt, columns, *tables, run=(range(0), ())) -> str:
    """A command's output: ``record`` as JSON, or the header ``columns`` and
    then the rows of each table as CSV.

    ``run``, a ``(sizes, stops)`` pair, stands for the rows ``(n, *stops)``
    for n in ``sizes`` (numbers or None as stops), after ``record["rows"]``
    in JSON and after the first table in CSV: a law's rows past the point
    where every column holds its stop value.  They are never built; each
    format writes them through one %-template over ``sizes``.
    """
    sizes, stops = run
    if fmt == "json":
        if not sizes:
            return json.dumps(record) + "\n"
        template = ", [%s]" % ", ".join(["%d", *map(json.dumps, stops)])
        # a marker row after the built rows, which the run's text replaces
        text = json.dumps({**record, "rows": [*record["rows"], _RUN_MARK]})
        return text.replace(", " + json.dumps(_RUN_MARK),
                            "".join(map(template.__mod__, sizes)), 1) + "\n"
    parts = [_csv_rows([columns]), *map(_csv_rows, tables)]
    if sizes:
        template = ",".join(["%d", *map(_csv_cell, stops)]) + "\r\n"
        parts.insert(2, "".join(map(template.__mod__, sizes)))
    return "".join(parts)


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


def _echo_record(command, params, fmt, header, *tables, run=(range(0), ()),
                 **fields):
    """Write one command's record (schema version, command name, params, then
    ``fields``) as JSON, or the CSV ``header`` and then ``tables``; ``run`` as
    in ``_render``."""
    record = {"schema_version": SCHEMA_VERSION, "command": command,
              "params": params, **fields}
    click.echo(_render(record, fmt, header, *tables, run=run), nl=False)


def _sizes(start: int, nmax: int) -> range:
    if nmax < start:
        raise DomainError(f"nmax must be at least {start}, got {nmax!r}")
    return range(start, nmax + 1)


def _column(term, sizes, stop) -> list:
    """``term(n)`` for each n in ``sizes``, evaluated in order up to and
    including the first n >= 1 where it returns ``stop``; the caller writes
    ``stop`` in every later row.

    That is exact only where ``stop`` at some n >= 1 stays ``stop`` from
    there on: a probability or, where they fall as fast, a factorial moment
    that underflows to 0.0 (the terms are nonincreasing from n = 1, their
    logs falling by at least 0.26 a step; see the module docstring), or a
    factorial moment past float range, given as None.  The guard is n >= 1
    because at t = 0, P(X = 0) is 0 and P(X = 1) is 1.
    """
    values = []
    for n in sizes:
        value = term(n)
        values.append(value)
        if value == stop and n >= 1:
            break
    return values


def _echo_law(command, params, fmt, columns, sizes, term, ratio, *extra):
    """A law's table: a row per size of ``term(n)`` and of each ``(term,
    stop)`` column in ``extra``, both through ``_column``, then a ``tail``
    row: the sum of ``term(n)`` past the last one evaluated, through
    ``_certified_terms`` at ratio ``ratio`` (after a 0.0, an exact 0.0).

    Rows are built only up to the size where every column has reached its
    stop value (probability 0.0, moment None or 0.0); the rest go to
    ``_render`` as a run.
    """
    stops = (0.0, *(stop for _, stop in extra))
    evaluated = [_column(term, sizes, 0.0),
                 *(_column(other, sizes, stop) for other, stop in extra)]
    built = max(map(len, evaluated))
    rows = list(zip(sizes[:built], *(values + [stop] * (built - len(values))
                                     for values, stop in zip(evaluated, stops))))
    end = sizes.start + len(evaluated[0])
    tail = math.fsum(_certified_terms(term, end, end, ratio, 0.0))
    tail_row = ["tail", tail, *[None] * len(extra)]
    _echo_record(command, params, fmt, columns, rows, [tail_row],
                 run=(sizes[built:], stops),
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
              fmt, ["n", "probability"], sizes, term, params.alpha)


@cli.command(cls=_Command)
@click.option("--alpha", type=float, required=True, help="offspring mixture weight")
@click.option("--nmax", type=int, required=True, help="largest size to tabulate")
@_FORMAT
def limit(alpha, nmax, fmt):
    """Long-time law conditioned on survival (logarithmic series), with its
    factorial moments; moments past float range are left empty."""
    law = LogSeries(ModelParams(alpha, 1.0).alpha)
    # at nmax alpha/(1 - alpha) <= ALPHA_CRITICAL every row's moment ratio
    # n alpha/(1 - alpha) is below 0.7726, so the log-moments fall by 0.26 a
    # step or more, as the probabilities do: none overflows, and a 0.0 stays
    moment_stop = 0.0 if nmax * alpha / (1.0 - alpha) <= ALPHA_CRITICAL else None

    def moment(n):
        # log E[[N]_n] stays below log 4.4 while n <= (1 - alpha)/alpha and
        # rises by log(n alpha/(1 - alpha)) > 0 a step after that, so once a
        # moment overflows every later one does too
        try:
            return law.factorial_moment(n)
        except OverflowError:
            return None

    _echo_law("limit", {"alpha": alpha, "nmax": nmax}, fmt,
              ["n", "probability", "factorial_moment"], _sizes(1, nmax),
              law.pmf, law.alpha, (moment, moment_stop))


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
            "empirical_extinction": law.prob(0),
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
