"""The package imports the simulator with everything else, the closed-form
path starts without numpy or the process pool, and the check harness is
served from ``logbranch.verify`` only."""

import importlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

import logbranch
from logbranch import cli, verify

SRC = Path(__file__).resolve().parents[1] / "src"

# the benchmark's set-up sequence, then the closed-form commands and --help;
# numpy and the process pool must stay unloaded through all of them though
# the simulator is imported, and simulate and verify must still run once
# they load numpy
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
assert "concurrent.futures" not in sys.modules, "process pool loaded at start-up"
assert "logbranch.simulate" in sys.modules, "simulator not imported with the package"
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
    submodules = [importlib.import_module(f"logbranch.{name}")
                  for name in ("closed_form", "distributions", "errors", "model", "simulate")]
    for name in logbranch.__all__:
        value = getattr(logbranch, name)
        assert value is not None
        assert name in listed
        # the derived list holds no module and nothing that __init__ imports
        # for itself: every entry is defined by one of the package's modules
        assert not isinstance(value, types.ModuleType), name
        assert any(vars(module).get(name) is value for module in submodules), name
    assert len(set(logbranch.__all__)) == len(logbranch.__all__)


def test_check_harness_only_in_verify():
    # the harness is imported from logbranch.verify, not from the package
    for name in ("run_suite", "integrate_backward", "CheckResult", "Mechanism"):
        assert hasattr(verify, name)
        assert name not in logbranch.__all__
        assert not hasattr(logbranch, name)


def test_unknown_name_raises_attribute_error():
    assert not hasattr(logbranch, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        logbranch.no_such_name


def test_suite_choices_match_verify():
    assert cli._SUITE_NAMES == tuple(verify._SUITES)
