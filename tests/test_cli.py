import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given
from hypothesis import strategies as st

from logbranch import (
    ALPHA_CRITICAL,
    ExtendedSibuya,
    LogSeries,
    ModelParams,
    conditional_family,
    pmf,
)
from logbranch.cli import _render, cli
from logbranch.errors import DomainError, NumericalDivergence, PrecisionLoss
from logbranch.verify import CheckResult


@pytest.fixture()
def runner():
    return CliRunner()


def _rows(output):
    reader = csv.reader(io.StringIO(output))
    header = next(reader)
    return header, list(reader)


# the pmf and limit tables cross their first exact-zero term before
# _CUT_NMAX at each of these; 5e-324 and 1e-300 leave M = 1 at every t, and
# 1e-200 and 1e-160 take LogSeries.pmf's rescaled branch
_CUT_ALPHAS = [5e-324, 1e-300, 1e-200, 1e-160, 1e-20, 1e-3, 0.05, 0.5,
               math.nextafter(ALPHA_CRITICAL, 0.0)]
_CUT_NMAX = 3000


class TestPmfCommand:
    def test_csv_matches_library(self, runner, params_half):
        result = runner.invoke(cli, ["pmf", "--alpha", "0.5", "--k", "1",
                                     "--t", "1", "--nmax", "20"])
        assert result.exit_code == 0
        header, rows = _rows(result.output)
        assert header == ["n", "probability"]
        assert len(rows) == 22
        assert rows[-1][0] == "tail"
        tp = params_half.at(1.0)
        for row in rows[:-1]:
            n = int(row[0])
            assert float(row[1]) == pytest.approx(pmf(params_half, tp, n), rel=1e-9)
        total = math.fsum(float(r[1]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_csv_uses_crlf(self, runner):
        # Result.output normalizes line endings; check the raw bytes.
        result = runner.invoke(cli, ["pmf", "--alpha", "0.5", "--k", "1",
                                     "--t", "1", "--nmax", "3"])
        assert b"\r\n" in result.stdout_bytes

    def test_conditional_starts_at_one(self, runner, params_half):
        result = runner.invoke(cli, ["pmf", "--alpha", "0.5", "--k", "1",
                                     "--t", "1", "--nmax", "10", "--conditional"])
        assert result.exit_code == 0
        _, rows = _rows(result.output)
        assert rows[0][0] == "1"
        tp = params_half.at(1.0)
        assert float(rows[0][1]) == pytest.approx(
            conditional_family(params_half, tp).pmf(1), rel=1e-9)

    def test_time_zero_is_degenerate(self, runner):
        result = runner.invoke(cli, ["pmf", "--alpha", "0.5", "--k", "1",
                                     "--t", "0", "--nmax", "3"])
        assert result.exit_code == 0
        _, rows = _rows(result.output)
        assert [r[1] for r in rows[:4]] == ["0", "1", "0", "0"]

    def test_json_round_trips(self, runner, params_half):
        result = runner.invoke(cli, ["pmf", "--alpha", "0.5", "--k", "1",
                                     "--t", "1", "--nmax", "5", "--format", "json"])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["schema_version"] == "2"
        assert record["command"] == "pmf"
        assert isinstance(record["params"]["k"], float)
        assert record["params"]["k"] == 1.0
        tp = params_half.at(1.0)
        for n, p in record["rows"]:
            # a float's shortest repr parses back to the same double
            assert p == pmf(params_half, tp, n)
        assert record["tail_mass"] >= 0.0

    def test_rejects_supercritical_weight(self, runner):
        result = runner.invoke(cli, ["pmf", "--alpha", "0.9", "--k", "1",
                                     "--t", "1", "--nmax", "5"])
        assert result.exit_code == 2
        assert "0.7726" in result.output

    def test_rejects_negative_time(self, runner):
        result = runner.invoke(cli, ["pmf", "--alpha", "0.5", "--k", "1",
                                     "--t", "-1", "--nmax", "5"])
        assert result.exit_code == 2

    def test_conditional_requires_positive_time(self, runner):
        result = runner.invoke(cli, ["pmf", "--alpha", "0.5", "--k", "1",
                                     "--t", "0", "--nmax", "5", "--conditional"])
        assert result.exit_code == 2


class TestLimitCommand:
    def test_values(self, runner, params_half):
        result = runner.invoke(cli, ["limit", "--alpha", "0.5", "--nmax", "10"])
        assert result.exit_code == 0
        header, rows = _rows(result.output)
        assert header == ["n", "probability", "factorial_moment"]
        law = LogSeries(params_half.alpha)
        for row in rows[:-1]:
            n = int(row[0])
            assert float(row[1]) == pytest.approx(law.pmf(n), rel=1e-9)
        # first factorial moment is (alpha/(1-alpha))/A
        expected = 1.0 / params_half.log_norm
        assert float(rows[0][2]) == pytest.approx(expected, rel=1e-9)

    def test_overflowing_moments_left_empty(self, runner):
        result = runner.invoke(cli, ["limit", "--alpha", "0.5", "--nmax", "200"])
        assert result.exit_code == 0
        _, rows = _rows(result.output)
        assert rows[199 - 1][2] == ""
        record = json.loads(runner.invoke(
            cli, ["limit", "--alpha", "0.5", "--nmax", "200", "--format", "json"]
        ).output)
        assert record["rows"][198][2] is None

    @pytest.mark.parametrize("alpha", [*_CUT_ALPHAS, 0.77])
    def test_rows_past_overflow_match_each_row_tried(self, runner, alpha):
        # the table stops calling factorial_moment at its first overflow and
        # pmf at its first exact zero; every row, and the tail, must still be
        # what a try per row gives
        law = LogSeries(alpha)
        expected = [[n, law.pmf(n), _moment_or_none(law, n)]
                    for n in range(1, _CUT_NMAX + 1)]
        assert expected[0][2] is not None and expected[-1][1] == 0.0
        if alpha >= 0.05:
            # below that the moments stay finite up to _CUT_NMAX
            assert expected[-1][2] is None
        _assert_law_output(runner, ["limit", "--alpha", repr(alpha),
                                    "--nmax", str(_CUT_NMAX)], expected)

    def test_rejects_bad_nmax(self, runner):
        result = runner.invoke(cli, ["limit", "--alpha", "0.5", "--nmax", "0"])
        assert result.exit_code == 2


def _moment_or_none(law, n):
    try:
        return law.factorial_moment(n)
    except OverflowError:
        return None


def _cut_times(params):
    """t = 0, a t > 0 where M rounds to 1, the t where M = 1/2 and the last
    t before ``ModelParams.at`` rejects M; the last two only where M reaches
    1/2 at a finite t (at alpha 5e-324, c = -rate alpha is within a few
    subnormal steps of 0)."""
    times = [0.0, 1e-300]
    if params.malthusian_rate < 0.0 and math.log(0.5) / params.malthusian_rate < math.inf:
        times.append(math.log(0.5) / params.malthusian_rate)
        floor = sys.float_info.min / min(1.0, params.log_norm)
        t = math.log(floor) / params.malthusian_rate
        for _ in range(1000):
            try:
                params.at(t)
                break
            except DomainError:
                t = math.nextafter(t, 0.0)
        with pytest.raises(DomainError):
            params.at(math.nextafter(t, math.inf))
        times.append(t)
    assert params.at(1e-300).mean == 1.0
    return times


def _json_record(runner, args):
    result = runner.invoke(cli, [*args, "--format", "json"])
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def _assert_law_output(runner, args, expected):
    """The table ``args`` print is the rows ``expected`` and then the tail
    summed over them, in both formats: the JSON record, and the CSV bytes
    that the cell rules give one cell at a time."""
    tail = max(0.0, 1.0 - math.fsum(row[1] for row in expected))
    record = _json_record(runner, args)
    assert record["rows"] == expected
    assert record["tail_mass"] == tail
    result = runner.invoke(cli, args)
    assert result.exit_code == 0, result.output
    tail_row = ["tail", tail, *[None] * (len(record["columns"]) - 2)]
    assert result.stdout_bytes == _csv_reference(
        record["columns"], expected, [tail_row]).encode()


class TestZeroCut:
    # the tables stop evaluating at their first exact-zero probability; every
    # row, and the tail, must still be what evaluating every row gives
    @pytest.mark.parametrize("alpha", _CUT_ALPHAS)
    @pytest.mark.parametrize("rate", [1e-3, 1.0, 1e3])
    def test_pmf_rows_match_each_term(self, runner, alpha, rate):
        params = ModelParams(alpha, rate)
        for t in _cut_times(params):
            tp = params.at(t)
            laws = [(False, partial(pmf, params, tp), range(_CUT_NMAX + 1))]
            if t > 0.0:
                laws.append((True, conditional_family(params, tp).pmf,
                             range(1, _CUT_NMAX + 1)))
            for conditional, term, sizes in laws:
                args = ["pmf", "--alpha", repr(alpha), "--k", repr(rate),
                        "--t", repr(t), "--nmax", str(_CUT_NMAX)]
                probs = [term(n) for n in sizes]
                assert probs[-1] == 0.0
                _assert_law_output(runner, args + ["--conditional"] * conditional,
                                   [[n, p] for n, p in zip(sizes, probs)])

    @pytest.mark.parametrize("args, column, first_stop", [
        # the probabilities reach 0.0 at n = 1058
        (["pmf", "--alpha", "0.5", "--k", "1", "--t", "1"], 1, 1058),
        (["pmf", "--alpha", "0.5", "--k", "1", "--t", "1", "--conditional"], 1, 1058),
        # the probabilities reach 0.0 at n = 248 and the moments overflow at
        # 364, so the run of stop values starts only after 364
        (["limit", "--alpha", "0.05"], 1, 248),
        (["limit", "--alpha", "0.05"], 2, 364),
    ])
    @pytest.mark.parametrize("offset", [-1, 0, 1, 2])
    def test_nmax_at_first_stop(self, runner, args, column, first_stop, offset):
        # nmax a row short of a column's first stop value, on it (no run of
        # stop values after the evaluated rows at 1058 and 364) and past it
        last = first_stop + 2
        if args[0] == "limit":
            law = LogSeries(0.05)
            rows = [[n, law.pmf(n), _moment_or_none(law, n)] for n in range(1, last + 1)]
        else:
            params = ModelParams(0.5, 1.0)
            tp = params.at(1.0)
            if "--conditional" in args:
                term, sizes = conditional_family(params, tp).pmf, range(1, last + 1)
            else:
                term, sizes = partial(pmf, params, tp), range(last + 1)
            rows = [[n, term(n)] for n in sizes]
        values = {row[0]: row[column] for row in rows}
        assert values[first_stop - 1] not in (0.0, None)
        assert values[first_stop] in (0.0, None)
        nmax = first_stop + offset
        _assert_law_output(runner, [*args, "--nmax", str(nmax)],
                           [row for row in rows if row[0] <= nmax])

    @pytest.mark.parametrize("args", [
        ["pmf", "--k", "1", "--t", "1"],
        ["pmf", "--k", "1", "--t", "1", "--conditional"],
        ["limit"],
    ])
    def test_rows_past_first_zero_cost_no_term(self, runner, monkeypatch, args):
        # at alpha 0.05 the terms reach 0.0 near n = 250
        calls = []
        for family in (ExtendedSibuya, LogSeries):
            monkeypatch.setattr(family, "pmf", _counted(family.pmf, calls))
        result = runner.invoke(cli, [args[0], "--alpha", "0.05", *args[1:],
                                     "--nmax", "100000"])
        assert result.exit_code == 0
        assert 0 < len(calls) < 300
        _, rows = _rows(result.output)
        assert rows[-2][:2] == ["100000", "0"]

    @pytest.mark.parametrize("alpha", ["1e-300", "1e-7"])
    def test_vanishing_moments_cost_few_terms(self, runner, monkeypatch, alpha):
        # nmax alpha/(1 - alpha) <= ALPHA_CRITICAL here, so the moments fall
        # as the probabilities do and stop at their first 0.0
        calls = []
        monkeypatch.setattr(LogSeries, "factorial_moment",
                            _counted(LogSeries.factorial_moment, calls))
        result = runner.invoke(cli, ["limit", "--alpha", alpha, "--nmax", "1000000"])
        assert result.exit_code == 0
        assert 0 < len(calls) < 100
        # the last two rows only: parsing all 1e6 rows costs far more than
        # the command
        rows = list(csv.reader(result.output.rstrip("\n").rsplit("\n", 2)[1:]))
        assert rows[-2] == ["1000000", "0", "0"]

    @pytest.mark.parametrize("nmax", [7725, 7726])
    def test_moment_stop_at_its_bound(self, runner, nmax):
        # at alpha 1e-4, nmax alpha/(1 - alpha) is just below ALPHA_CRITICAL
        # at 7725 and just above at 7726: the moments stop at their first 0.0
        # on one side and are tried to the end on the other, to the same table
        law = LogSeries(1e-4)
        expected = [[n, law.pmf(n), _moment_or_none(law, n)] for n in range(1, nmax + 1)]
        assert expected[-1][1:] == [0.0, 0.0]
        _assert_law_output(runner, ["limit", "--alpha", "1e-4", "--nmax", str(nmax)],
                           expected)


def _counted(method, calls):
    def counted(self, n):
        calls.append(n)
        return method(self, n)
    return counted


class TestSimulateCommand:
    ARGS = ["simulate", "--alpha", "0.5", "--k", "1", "--times", "0.5,1",
            "--replicates", "2000", "--seed", "42"]

    def test_deterministic_output(self, runner):
        first = runner.invoke(cli, self.ARGS)
        second = runner.invoke(cli, self.ARGS)
        assert first.exit_code == 0
        assert first.output == second.output

    def test_environment_seed(self, runner):
        explicit = runner.invoke(cli, self.ARGS)
        args = [a for a in self.ARGS if a not in ("--seed", "42")]
        from_env = runner.invoke(cli, args, env={"LOGBRANCH_SEED": "42"})
        assert from_env.output == explicit.output

    def test_mean_tracks_model(self, runner, params_half):
        result = runner.invoke(cli, ["simulate", "--alpha", "0.5", "--k", "1",
                                     "--times", "1", "--replicates", "200000",
                                     "--seed", "202508"])
        assert result.exit_code == 0
        header, rows = _rows(result.output)
        emp = float(rows[0][header.index("empirical_mean")])
        model = float(rows[0][header.index("model_mean")])
        assert model == pytest.approx(params_half.at(1.0).mean, rel=1e-9)
        assert abs(emp - model) / model < 0.01

    def test_underflowing_square_weight_decays(self, runner):
        # alpha^2 underflows at alpha 1e-300, but rate alpha^2/A is 1 at rate
        # 1e300: M(1) = e^-1 and P(X(1) = 0) = 1 - e^-1, about 0.632
        result = runner.invoke(cli, ["simulate", "--alpha", "1e-300", "--k", "1e300",
                                     "--times", "1", "--replicates", "20000",
                                     "--seed", "5", "--format", "json"])
        assert result.exit_code == 0
        horizon = json.loads(result.output)["horizons"][0]
        assert horizon["model_mean"] == pytest.approx(math.exp(-1.0), rel=4 * 2**-52)
        p0 = horizon["model_extinction"]
        assert p0 == pytest.approx(-math.expm1(-1.0), rel=1e-12)
        # two-sided binomial p-value of the empirical extinction, normal approximation
        z = (horizon["empirical_extinction"] - p0) / math.sqrt(p0 * (1.0 - p0) / 20000)
        assert math.erfc(abs(z) / math.sqrt(2.0)) > 1e-3

    def test_json_shape(self, runner):
        result = runner.invoke(cli, self.ARGS + ["--format", "json"])
        record = json.loads(result.output)
        assert record["schema_version"] == "2"
        assert [h["time"] for h in record["horizons"]] == [0.5, 1.0]
        head = record["horizons"][0]
        assert sum(r[1] for r in head["rows"]) == 2000

    def test_rejects_zero_replicates(self, runner):
        result = runner.invoke(cli, ["simulate", "--alpha", "0.5", "--k", "1",
                                     "--times", "1", "--replicates", "0"])
        assert result.exit_code == 2

    def test_rejects_underflowing_horizon(self, runner):
        result = runner.invoke(cli, ["simulate", "--alpha", "0.5", "--k", "1",
                                     "--times", "1,2100", "--replicates", "10"])
        assert result.exit_code == 2
        assert "t=2100.0" in result.output

    def test_rejects_runaway_event_count(self, runner):
        # a replicate takes 1 - e^-1 count-changing events here, and costs one
        # more unit for its stream; 1e11 of them would run for days, and the
        # budget stops the run before any draw
        result = runner.invoke(cli, ["simulate", "--alpha", "1e-300", "--k", "1",
                                     "--times", "1e300", "--replicates", "100000000000"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "past the budget" in result.output

    def test_rejects_zero_workers(self, runner):
        result = runner.invoke(cli, ["simulate", "--alpha", "0.5", "--k", "1",
                                     "--times", "1", "--replicates", "10",
                                     "--workers", "0"])
        assert result.exit_code == 2
        assert "workers must be positive" in result.output

    def test_rejects_malformed_times(self, runner):
        result = runner.invoke(cli, ["simulate", "--alpha", "0.5", "--k", "1",
                                     "--times", "1;2", "--replicates", "10"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("alpha", ["1e-310", "5e-324"])
    def test_subnormal_weight_keeps_one_particle(self, runner, alpha):
        # P(eta = 1) rounds to 1 and M(t) is exactly 1, so every replicate
        # holds the one particle it started with
        result = runner.invoke(cli, ["simulate", "--alpha", alpha, "--k", "1",
                                     "--times", "1", "--replicates", "5", "--seed", "1"])
        assert result.exit_code == 0
        _, rows = _rows(result.output)
        assert [row[1:3] for row in rows] == [["1", "5"]]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_pinned_stream_counts(self, runner, workers):
        # the (time, n, count) rows recorded when replicate i drew exactly
        # what stream(9, i) draws; a change of draw order changes them
        result = runner.invoke(cli, ["simulate", "--alpha", "0.75", "--k", "1",
                                     "--times", "1,4,16", "--replicates", "5000",
                                     "--seed", "9", "--workers", workers])
        assert result.exit_code == 0
        header, rows = _rows(result.output)
        assert header[:3] == ["time", "n", "count"]
        triples = [(float(t), int(n), int(c)) for t, n, c, *_ in rows]
        assert triples == [
            (1.0, 0, 2508), (1.0, 1, 2044), (1.0, 2, 256), (1.0, 3, 97),
            (1.0, 4, 47), (1.0, 5, 16), (1.0, 6, 17), (1.0, 7, 7), (1.0, 8, 3),
            (1.0, 9, 4), (1.0, 10, 1),
            (4.0, 0, 4451), (4.0, 1, 338), (4.0, 2, 101), (4.0, 3, 53),
            (4.0, 4, 27), (4.0, 5, 6), (4.0, 6, 11), (4.0, 7, 3), (4.0, 8, 4),
            (4.0, 9, 2), (4.0, 11, 2), (4.0, 13, 1), (4.0, 14, 1),
            (16.0, 0, 4997), (16.0, 1, 1), (16.0, 2, 2),
        ]


class TestVerifyCommand:
    def test_ode_suite_passes(self, runner):
        result = runner.invoke(cli, ["verify", "--suite", "ode"])
        assert result.exit_code == 0
        header, rows = _rows(result.output)
        assert header == ["check", "residual", "tolerance", "passed"]
        assert all(row[3] == "true" for row in rows)

    def test_json_verdicts(self, runner):
        result = runner.invoke(cli, ["verify", "--suite", "limit",
                                     "--format", "json"])
        record = json.loads(result.output)
        assert {row[0] for row in record["rows"]} >= {"extended_sibuya_bridge"}
        assert all(row[3] is True for row in record["rows"])

    def test_failure_exits_one(self, runner, monkeypatch):
        fake = [CheckResult("rigged", 1.0, 0.5, False)]
        monkeypatch.setattr("logbranch.verify.run_suite", lambda name: fake)
        result = runner.invoke(cli, ["verify", "--suite", "ode"])
        assert result.exit_code == 1
        assert "rigged" in result.output

    def test_unknown_suite_rejected(self, runner):
        result = runner.invoke(cli, ["verify", "--suite", "nope"])
        assert result.exit_code == 2

    def test_help_lists_every_suite(self, runner):
        result = runner.invoke(cli, ["verify", "--help"])
        assert "--suite [closed-form|ode|table1|limit|all]" in result.output


@pytest.fixture()
def split_runner():
    try:
        # click before 8.2 mixes stderr into stdout unless told not to
        return CliRunner(mix_stderr=False)
    except TypeError:
        return CliRunner()


def _raise(exc_type):
    def run_suite(name):
        raise exc_type("rigged")
    return run_suite


_CAPPED = ["simulate", "--alpha", "0.5", "--k", "1", "--times", "10",
           "--replicates", "500", "--seed", "23", "--max-population", "3"]


@pytest.mark.parametrize("args, fault, code, stderr", [
    (["verify"], NumericalDivergence, 1, r"error: rigged\n"),
    (["verify"], PrecisionLoss, 1, r"error: rigged\n"),
    (["pmf", "--alpha", "0.5", "--k", "1", "--t", "-1", "--nmax", "5"], None, 2,
     r"Usage: logbranch pmf \[OPTIONS\]\n.*Error: time must be nonnegative"),
    (["limit", "--alpha", "0.5", "--nmax", "0"], None, 2,
     r"Usage: logbranch limit \[OPTIONS\]\n.*Error: nmax must be at least 1"),
    (["simulate", "--alpha", "0.5", "--k", "1", "--times", "1,x", "--replicates", "5"],
     None, 2, r"Usage: logbranch simulate \[OPTIONS\]\n.*Error: cannot parse"),
    ([*_CAPPED, "--workers", "1"], None, 3, r"error: population \d+ exceeded cap 3\n"),
    ([*_CAPPED, "--workers", "2"], None, 3, r"error: population \d+ exceeded cap 3\n"),
], ids=["verify-divergence", "verify-precision-loss", "pmf-domain", "limit-domain",
        "simulate-domain", "cap-workers-1", "cap-workers-2"])
def test_exit_code_map(split_runner, monkeypatch, args, fault, code, stderr):
    # each typed error becomes its exit code, with nothing on stdout
    if fault is not None:
        monkeypatch.setattr("logbranch.verify.run_suite", _raise(fault))
    result = split_runner.invoke(cli, args, prog_name="logbranch")
    assert result.exit_code == code
    assert result.stdout == ""
    assert re.match(stderr, result.stderr, re.S)


# the exact CSV and JSON bytes, so that a change to any digit or to the
# layout fails; a long output is pinned by the sha256 of its bytes
_PINNED_TEXT = {
    "pmf": (
        ["pmf", "--alpha", "0.5", "--k", "1", "--t", "1", "--nmax", "5"],
        b"n,probability\r\n0,0.3786377957\r\n1,0.5652120673\r\n"
        b"2,0.04278564663\r\n3,0.009290144307\r\n4,0.002674160586\r\n"
        b"5,0.0008832200421\r\ntail,0.0005169655238\r\n",
    ),
    "pmf-conditional": (
        ["pmf", "--alpha", "0.5", "--k", "1", "--t", "1", "--nmax", "5",
         "--conditional"],
        b"n,probability\r\n1,0.9096338067\r\n2,0.06885781969\r\n"
        b"3,0.01495125426\r\n4,0.004303706545\r\n5,0.001421425436\r\n"
        b"tail,0.0008319873983\r\n",
    ),
    "pmf-conditional-unit-atom": (
        ["pmf", "--alpha", "0.5", "--k", "1", "--t", "1e-18", "--nmax", "3",
         "--conditional"],
        b"n,probability\r\n1,1\r\n2,0\r\n3,0\r\ntail,0\r\n",
    ),
    "limit": (
        ["limit", "--alpha", "0.5", "--nmax", "5"],
        b"n,probability,factorial_moment\r\n1,0.7213475204,1.442695041\r\n"
        b"2,0.1803368801,1.442695041\r\n3,0.06011229337,2.885390082\r\n"
        b"4,0.02254211001,8.656170245\r\n5,0.009016844006,34.62468098\r\n"
        b"tail,0.006644352055,\r\n",
    ),
    "pmf-json": (
        ["pmf", "--alpha", "0.5", "--k", "1", "--t", "1", "--nmax", "5",
         "--format", "json"],
        b'{"schema_version": "2", "command": "pmf", "params": {"alpha": 0.5, '
        b'"k": 1.0, "t": 1.0, "nmax": 5, "conditional": false}, "columns": ["n", '
        b'"probability"], "rows": [[0, 0.3786377956594842], [1, '
        b'0.5652120672506878], [2, 0.0427856466314245], [3, 0.0092901443066996], '
        b'[4, 0.0026741605858567733], [5, 0.0008832200420646227]], '
        b'"tail_mass": 0.0005169655237824422}\n',
    ),
    "pmf-conditional-json": (
        ["pmf", "--alpha", "0.5", "--k", "1", "--t", "1", "--nmax", "5",
         "--conditional", "--format", "json"],
        b'{"schema_version": "2", "command": "pmf", "params": {"alpha": 0.5, '
        b'"k": 1.0, "t": 1.0, "nmax": 5, "conditional": true}, "columns": ["n", '
        b'"probability"], "rows": [[1, 0.9096338066628576], [2, '
        b'0.06885781969444882], [3, 0.014951254263299962], [4, '
        b'0.004303706545355458], [5, 0.0014214254357521317]], '
        b'"tail_mass": 0.0008319873982859383}\n',
    ),
    "pmf-conditional-unit-atom-json": (
        ["pmf", "--alpha", "0.5", "--k", "1", "--t", "1e-18", "--nmax", "3",
         "--conditional", "--format", "json"],
        b'{"schema_version": "2", "command": "pmf", "params": {"alpha": 0.5, '
        b'"k": 1.0, "t": 1e-18, "nmax": 3, "conditional": true}, "columns": ["n", '
        b'"probability"], "rows": [[1, 1.0], [2, 0.0], [3, 0.0]], '
        b'"tail_mass": 0.0}\n',
    ),
    "limit-json": (
        ["limit", "--alpha", "0.5", "--nmax", "5", "--format", "json"],
        b'{"schema_version": "2", "command": "limit", "params": {"alpha": 0.5, '
        b'"nmax": 5}, "columns": ["n", "probability", "factorial_moment"], '
        b'"rows": [[1, 0.7213475204444817, 1.4426950408889634], [2, '
        b'0.18033688011112042, 1.4426950408889634], [3, 0.06011229337037348, '
        b'2.885390081777926], [4, 0.022542110013890053, 8.656170245333785], [5, '
        b'0.00901684400555602, 34.624680981335096]], '
        b'"tail_mass": 0.006644352054578362}\n',
    ),
    # 140 rows; the moments of the last two are past float range
    "limit-overflow-json": (
        ["limit", "--alpha", "0.77", "--nmax", "140", "--format", "json"],
        "66a5babeae9c95a441af6a9d80a6d9264cf3bed938b4fd672c3f66b3257919bb",
    ),
}


@pytest.mark.parametrize("name", _PINNED_TEXT)
def test_pinned_text(runner, name):
    args, expected = _PINNED_TEXT[name]
    result = runner.invoke(cli, args)
    assert result.exit_code == 0
    got = result.stdout_bytes
    if isinstance(expected, str):
        got = hashlib.sha256(got).hexdigest()
    assert got == expected


@pytest.mark.parametrize("args", [
    ["pmf", "--alpha", "0.5", "--k", "1", "--t", "1", "--nmax", "50"],
    ["limit", "--alpha", "0.5", "--nmax", "200"],
    ["simulate", "--alpha", "0.5", "--k", "1", "--times", "0.5,1",
     "--replicates", "2000", "--seed", "42"],
    ["verify", "--suite", "all"],
])
def test_json_is_compact_dumps(runner, args):
    out = runner.invoke(cli, args + ["--format", "json"]).output
    assert json.dumps(json.loads(out)) + "\n" == out


_CSV_CELL_RULES = {bool: lambda v: "true" if v else "false",
                   float: lambda v: format(v, ".10g"),
                   type(None): lambda v: ""}


def _csv_reference(columns, *tables):
    """The CSV cell rules applied one cell at a time, through csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for rows in tables:
        for row in rows:
            writer.writerow([_CSV_CELL_RULES.get(type(v), str)(v) for v in row])
    return buf.getvalue()


_EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7e308])
_SCALAR_KINDS = (
    st.integers(min_value=-2**70, max_value=2**70), st.floats(), _EDGE_FLOATS,
    st.none(), st.booleans(),
    st.text(st.sampled_from(["a", " ", ",", '"', "\n", "\r", "\\", "é", "→", "\U0001f600"]),
            max_size=4),
)
_SCALARS = st.one_of(*_SCALAR_KINDS)
# a column of one kind of scalar, of any floats, or of anything
_COLUMN_KINDS = st.sampled_from([
    *_SCALAR_KINDS,
    st.floats() | _EDGE_FLOATS,
    _SCALARS,
])


@st.composite
def _tables(draw):
    # every table a command writes has two or more columns
    kinds = draw(st.lists(_COLUMN_KINDS, min_size=2, max_size=4))
    return draw(st.lists(st.tuples(*kinds).map(list), max_size=6))


@given(rows=_tables(), footer=_tables())
# empty cells beside others: csv leaves them unquoted
@example(rows=[["", None], [None, ""]], footer=[["", ""]])
# cells that csv quotes, with their quotes doubled
@example(rows=[["a,b", 'say "hi"', "\r", "\n"], ['"', ",", "\r\n", "a b"]],
         footer=[['""', None, "", 0.5]])
# bools in an int-looking column, and ints past 64 bits
@example(rows=[[1, True], [False, 0]], footer=[[True, 2]])
@example(rows=[[2**63, -2**64 - 1], [2**70, 0]], footer=[[-2**63 - 1, 2**200]])
def test_writer_matches_stdlib(rows, footer):
    # CSV ignores the record
    columns = ["c%d" % i for i in range(len(rows[0]) if rows else 2)]
    assert _render({}, "csv", columns, rows, footer) == _csv_reference(
        columns, rows, footer)


def test_runs_as_module():
    # without a __main__ guard, ``-m`` only imports the module: no output,
    # exit 0, which looks like success
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "logbranch.cli", "pmf", "--alpha", "0.5",
         "--k", "1", "--t", "1", "--nmax", "3"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    header, rows = _rows(proc.stdout)
    assert header == ["n", "probability"]
    assert [row[0] for row in rows] == ["0", "1", "2", "3", "tail"]
