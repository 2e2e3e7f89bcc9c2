"""The package root's lazy namespace, and the modules each entry point loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matteroptics
from matteroptics import propagate

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh interpreter: after each step, the package modules and
# the named standard-library modules that are loaded, as one JSON line.
_PROBE = """
import contextlib, io, json, sys

params, out = sys.argv[1:]

def loaded():
    names = sorted(n for n in sys.modules if n.split(".")[0] == "matteroptics")
    stdlib = [n for n in ("logging", "csv", "concurrent.futures", "argparse") if n in sys.modules]
    print(json.dumps([names, stdlib]))

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    assert code == 0, argv
    loaded()

import matteroptics
loaded()
from matteroptics.units import read_param_file
loaded()
from matteroptics.cli import main
loaded()
run("bloch", "--detuning", "0.1", "--drive-re", "1", "--dt", "0.01", "--steps", "2")
run("sweep", "--params", params, "--axis", "rho_0", "--values", "0,1e15",
    "--paths", "analytic", "--q-max", "2", "--threads", "1")
run("optics", "--params", params)
run("validity", "--params", params, "--saturation", "1")
run("diffract", "--params", params, "--q-max", "3")
run("propagate", "--params", params, "--out", out, "--steps", "4", "--q-max", "2")
run("-h")
"""


def test_each_entry_point_loads_only_what_it_uses(params_file, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, params_file, str(tmp_path / "run")],
        env=env, capture_output=True, text=True, check=True,
    )
    steps = [json.loads(line) for line in proc.stdout.splitlines()]
    root, read_file, cli, bloch, sweep, *commands, usage = [
        (set(names), stdlib) for names, stdlib in steps
    ]
    assert root == ({"matteroptics"}, [])
    assert read_file == ({"matteroptics", "matteroptics.units", "matteroptics.errors"}, [])
    names, stdlib = cli
    assert {"matteroptics.cli", "matteroptics.propagate"} <= names
    assert not {"matteroptics.bloch", "matteroptics.sweep"} & names
    assert stdlib == []
    names, stdlib = bloch
    assert "matteroptics.bloch" in names and "matteroptics.sweep" not in names
    assert stdlib == []
    names, stdlib = sweep
    assert "matteroptics.sweep" in names
    # one worker runs in the calling thread: no pool, so no threading or
    # logging; serialize.csv_cell writes the table, so no csv module
    assert stdlib == []
    # argparse reads only the lines the exact path declines, so a line
    # of whole flags never pays its import; -h shows the probe can see it
    assert len(commands) == 4
    assert all("argparse" not in stdlib for _, stdlib in commands)
    assert "argparse" in usage[1]


def test_every_export_is_its_home_modules_object():
    homes = matteroptics._EXPORTS
    assert sum(map(len, homes.values())) == len(matteroptics._HOME)  # each name under one module
    for module, names in homes.items():
        home = importlib.import_module(f"matteroptics.{module}")
        for name in names:
            assert getattr(matteroptics, name) is getattr(home, name), name
    assert set(matteroptics.__all__) == {"__version__", *matteroptics._HOME}


def test_a_name_is_read_from_its_module_at_every_access(monkeypatch):
    # nothing is stored in the package globals, so a function rebound in
    # its module (a tracer installed, then removed) is what the root hands out
    original = matteroptics.step
    assert "step" not in vars(matteroptics)
    monkeypatch.setattr(propagate, "step", "rebound")
    assert matteroptics.step == "rebound"
    monkeypatch.undo()
    assert matteroptics.step is original


def test_dir_lists_every_export():
    assert set(matteroptics.__all__) <= set(dir(matteroptics))


def test_an_unknown_name_is_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        matteroptics.no_such_name  # noqa: B018


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from matteroptics import *", namespace)
    assert set(matteroptics.__all__) <= set(namespace)
    assert namespace["run_sweep"] is matteroptics.run_sweep
