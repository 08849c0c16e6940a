"""Every exported name exists, and SciPy loads only when a Gaussian copula is built.

The test process has imported SciPy already (``test_normal.py`` does), so the
import boundary is checked in a fresh interpreter.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mktp2

GOLDEN = Path(__file__).resolve().parent / "golden" / "classify_gaussian_rho0.5.json"

SCRIPT = """
import contextlib, io, json, sys
import mktp2, mktp2.cli, mktp2.registry

def loaded():
    return ["scipy" in sys.modules, "mktp2.normal" in sys.modules]

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = mktp2.cli.main(argv)
    return [code, out.getvalue(), loaded()]

report = {"import": loaded(), "runs": [run(argv) for argv in json.loads(sys.argv[1])]}
print(json.dumps(report))
"""


def _run_fresh(runs):
    src = str(Path(mktp2.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(runs)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    return json.loads(proc.stdout)


MODULES = ["mktp2", *(f"mktp2.{info.name}" for info in pkgutil.iter_modules(mktp2.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})


def test_scipy_loads_only_for_a_gaussian_copula(tmp_path):
    grid = ["--grid", "16"]
    runs = [
        ["classify", "--family", "fgm", "--param", "theta=0.5", *grid],
        ["classify", "--family", "gumbel", "--param", "alpha=2", *grid],
        ["classify", "--family", "mo", "--param", "alpha=0.5,beta=1", *grid],
        ["check", "--family", "evc-log", "--property", "mktp2", "--rect", "0.9,0.95,0.5,0.6"],
        ["sample", "--family", "gumbel", "--n", "10", "--out", str(tmp_path / "s.csv")],
        ["sample", "--family", "mo", "--param", "alpha=0.5,beta=1", "--n", "10", "--out", str(tmp_path / "s.csv")],
        ["sample", "--family", "fgm", "--param", "theta=0.5", "--n", "10", "--out", str(tmp_path / "s.csv")],
        ["classify", "--family", "nosuch"],
        ["classify", "--family", "gaussian", "--param", "rho=0.5", "--grid", "64"],
    ]
    report = _run_fresh(runs)
    assert report["import"] == [False, False]
    *others, gaussian = report["runs"]
    assert [code for code, _, _ in others] == [0, 0, 0, 0, 0, 0, 0, 2]
    assert all(state == [False, False] for _, _, state in others)
    code, out, state = gaussian
    assert code == 0
    assert state == [True, True]
    assert out == GOLDEN.read_text()
