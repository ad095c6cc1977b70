import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from logbranch import ModelParams, conditional_pmf, limit_law_pmf, pmf
from logbranch.cli import cli
from logbranch.verify import CheckResult


@pytest.fixture()
def runner():
    return CliRunner()


def _rows(output):
    reader = csv.reader(io.StringIO(output))
    header = next(reader)
    return header, list(reader)


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
            conditional_pmf(params_half, tp, 1), rel=1e-9)

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
        for row in rows[:-1]:
            n = int(row[0])
            assert float(row[1]) == pytest.approx(limit_law_pmf(params_half, n), rel=1e-9)
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

    def test_rejects_bad_nmax(self, runner):
        result = runner.invoke(cli, ["limit", "--alpha", "0.5", "--nmax", "0"])
        assert result.exit_code == 2


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

    def test_population_cap_exit_code(self, runner):
        for workers in ("1", "2"):
            result = runner.invoke(cli, ["simulate", "--alpha", "0.5", "--k", "1",
                                         "--times", "10", "--replicates", "500",
                                         "--seed", "23", "--max-population", "3",
                                         "--workers", workers])
            assert result.exit_code == 3

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
            (1.0, 0, 2448), (1.0, 1, 2107), (1.0, 2, 256), (1.0, 3, 95),
            (1.0, 4, 40), (1.0, 5, 14), (1.0, 6, 18), (1.0, 7, 5), (1.0, 8, 9),
            (1.0, 9, 2), (1.0, 10, 3), (1.0, 11, 2), (1.0, 12, 1),
            (4.0, 0, 4467), (4.0, 1, 334), (4.0, 2, 102), (4.0, 3, 29),
            (4.0, 4, 26), (4.0, 5, 12), (4.0, 6, 9), (4.0, 7, 8), (4.0, 8, 3),
            (4.0, 9, 4), (4.0, 10, 3), (4.0, 12, 1), (4.0, 15, 2),
            (16.0, 0, 4993), (16.0, 1, 6), (16.0, 11, 1),
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
        monkeypatch.setattr("logbranch.cli.run_suite", lambda name: fake)
        result = runner.invoke(cli, ["verify", "--suite", "ode"])
        assert result.exit_code == 1
        assert "rigged" in result.output

    def test_unknown_suite_rejected(self, runner):
        result = runner.invoke(cli, ["verify", "--suite", "nope"])
        assert result.exit_code == 2


# the exact CSV bytes, so that a change to any digit or to the layout fails
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
}


@pytest.mark.parametrize("name", _PINNED_TEXT)
def test_pinned_text(runner, name):
    args, expected = _PINNED_TEXT[name]
    result = runner.invoke(cli, args)
    assert result.exit_code == 0
    assert result.stdout_bytes == expected


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
