"""The closed-form path starts without numpy, and the names that need it
still resolve from ``logbranch`` on first access."""

import subprocess
import sys
from pathlib import Path

import pytest

import logbranch
from logbranch import cli, verify

SRC = Path(__file__).resolve().parents[1] / "src"

# the benchmark's set-up sequence, then the closed-form commands and --help;
# numpy must stay unloaded through all of them, and simulate and verify must
# still run once it is loaded by them
_CHILD = r"""
import sys
sys.path.insert(0, sys.argv[1])
import logbranch
import logbranch.cli
params = logbranch.ModelParams(0.5, 1.0)
params.at(1.0)
logbranch.offspring_sampler(params)
from click.testing import CliRunner
runner = CliRunner()
for args in (["pmf", "--alpha", "0.5", "--k", "1", "--t", "1", "--nmax", "20"],
             ["pmf", "--alpha", "0.5", "--k", "1", "--t", "1", "--nmax", "20",
              "--conditional"],
             ["limit", "--alpha", "0.5", "--nmax", "50"],
             ["--help"]):
    result = runner.invoke(logbranch.cli.cli, args)
    assert result.exit_code == 0, (args, result.output)
assert "numpy" not in sys.modules, "numpy loaded on the closed-form path"
for args in (["simulate", "--alpha", "0.5", "--k", "1", "--times", "1",
              "--replicates", "50"],
             ["verify", "--suite", "limit"]):
    result = runner.invoke(logbranch.cli.cli, args)
    assert result.exit_code == 0, (args, result.output)
assert "numpy" in sys.modules
"""


def test_closed_form_path_starts_without_numpy():
    subprocess.run([sys.executable, "-c", _CHILD, str(SRC)], check=True, timeout=120)


def test_every_public_name_resolves():
    listed = set(dir(logbranch))
    for name in logbranch.__all__:
        assert getattr(logbranch, name) is not None
        assert name in listed
    assert len(set(logbranch.__all__)) == len(logbranch.__all__)


def test_unknown_name_raises_attribute_error():
    assert not hasattr(logbranch, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        logbranch.no_such_name


def test_suite_choices_match_verify():
    assert cli._SUITE_NAMES == tuple(verify._SUITES)
