"""Snapshot tests: `classify --grid 64` reports, `witness --grid 48` reports of
the EVC MK-TP2 witnesses, `sample` and `grid-export` CSV digests, and boundary
values of every built-in family's quantities.

The files under ``tests/golden/`` pin verdicts, witnesses and report bytes;
``sample_digests.json`` the sha256 of the ``sample --n 5000 --seed 7`` CSV of
each family; ``grid_digests.json`` the sha256 of the ``grid-export --grid 64``
CSV of each family's cdf, kernel, density (where present) and FA (EVC only),
uniform and logit; and ``boundary_values.json`` the hex bits (or the error
text) of each family's cdf, kernel and density at every (u, v) with u, v in
:data:`BOUNDARY`, called once per point and once on the whole 6 x 6 grid.
So neither the sampler, the grid layer, a family's per-axis form nor the CSV
writer can change a bit unnoticed.  Regenerate them only when a change to a
report, a sample or a value is intended, and say which and why in the change
log.  One command rewrites them all:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import ALL_FAMILIES
from mktp2.cli import main
from mktp2.core import as_form
from mktp2.properties import PROPERTIES, _grid_eval
from mktp2.registry import build

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GRID = "64"
WITNESS_GRID = "48"
# the EVC families whose MK-TP2 witness the Pickands tree builds or its grid scan finds
WITNESS_FAMILIES = [
    ("mo", {"alpha": 0.5, "beta": 0.5}),
    ("tawn-sym", {"theta": 0.2}),
    ("evc-jump", None),
    ("evc-log", None),
]
SAMPLE_DIGESTS = GOLDEN_DIR / "sample_digests.json"
SAMPLE_ARGS = ("--n", "5000", "--seed", "7")
GRID_DIGESTS = GOLDEN_DIR / "grid_digests.json"
BOUNDARY_VALUES = GOLDEN_DIR / "boundary_values.json"
BOUNDARY = np.array([0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0])
QUANTITIES = ("cdf", "kernel", "density")


def _param_text(params):
    return ",".join(f"{k}={v!r}" for k, v in (params or {}).items())


def _family_key(name, params):
    return name + "".join(f"_{k}{v!r}" for k, v in (params or {}).items())


def _golden_path(name, params):
    return GOLDEN_DIR / f"classify_{_family_key(name, params)}.json"


def _witness_argv(name, params):
    argv = ["witness", "--family", name, "--param", _param_text(params)]
    return [*argv, "--property", "mktp2", "--grid", WITNESS_GRID]


def _witness_path(name, params):
    return GOLDEN_DIR / f"witness_mktp2_{_family_key(name, params)}.json"


def _sample_digest(name, params, path):
    argv = ["sample", "--family", name, "--param", _param_text(params), *SAMPLE_ARGS, "--out", str(path)]
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _grid_exports(name, params):
    """``(key, argv)`` of every ``grid-export`` the digests pin for one family."""
    entry, _, copula = build(name, params)
    quantities = [q for q in QUANTITIES if getattr(copula, q) is not None]
    quantities += ["FA"] if entry.kind == "evc" else []
    for quantity in quantities:
        for spacing in ("uniform", "logit"):
            argv = ["grid-export", "--family", name, "--param", _param_text(params), "--grid", GRID]
            yield f"{_family_key(name, params)}/{quantity}/{spacing}", [
                *argv, "--quantity", quantity, "--spacing", spacing
            ]


def _grid_digest(argv, path):
    with contextlib.redirect_stderr(io.StringIO()):
        assert main([*argv, "--out", str(path)]) == 0
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _hexes(call):
    """The hex bits of ``call()``'s values in row-major order, or the text of the error it raises."""
    try:
        values = np.asarray(call(), dtype=float)
    except Exception as exc:  # the error text is pinned as a value
        return f"{type(exc).__name__}: {exc}"
    return [float(x).hex() for x in values.ravel().tolist()]


def _boundary_values(fn):
    uu, vv = np.meshgrid(BOUNDARY, BOUNDARY, indexing="ij")
    scalar = [_hexes(lambda: fn(u, v)) for u, v in zip(uu.ravel().tolist(), vv.ravel().tolist())]
    return {"scalar": [s if isinstance(s, str) else s[0] for s in scalar], "array": _hexes(lambda: fn(uu, vv))}


def _quantities(name, params):
    """``(key, fn)`` of each quantity of one family that the boundary values pin."""
    copula = build(name, params)[2]
    for quantity in QUANTITIES:
        fn = getattr(copula, quantity)
        if fn is not None:
            yield f"{_family_key(name, params)}/{quantity}", fn


def _stdout(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def _family_ids(fp):
    return f"{fp[0]}-{_param_text(fp[1])}"


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=_family_ids)
def test_classify_matches_golden_report(capsys, family):
    name, params = family
    out = _stdout(capsys, "classify", "--family", name, "--param", _param_text(params), "--grid", GRID)
    assert out == _golden_path(name, params).read_text()


@pytest.mark.parametrize("family", WITNESS_FAMILIES, ids=_family_ids)
def test_evc_witness_matches_golden_report(capsys, family):
    assert _stdout(capsys, *_witness_argv(*family)) == _witness_path(*family).read_text()


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=_family_ids)
def test_check_agrees_with_classify(capsys, family):
    name, params = family
    common = ("--family", name, "--param", _param_text(params), "--grid", GRID)
    classified = {e["property"]: e for e in json.loads(_stdout(capsys, "classify", *common))["results"]}
    for prop in PROPERTIES:
        checked = json.loads(_stdout(capsys, "check", *common, "--property", prop))["results"]
        assert checked == [classified[prop]], prop


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=_family_ids)
def test_sample_csv_matches_golden_digest(tmp_path, family):
    name, params = family
    digests = json.loads(SAMPLE_DIGESTS.read_text())
    assert _sample_digest(name, params, tmp_path / "sample.csv") == digests[_family_key(name, params)]


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=_family_ids)
def test_grid_export_csv_matches_golden_digest(tmp_path, family):
    digests = json.loads(GRID_DIGESTS.read_text())
    for key, argv in _grid_exports(*family):
        assert _grid_digest(argv, tmp_path / "grid.csv") == digests[key], key


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=_family_ids)
def test_boundary_values_match_golden(family):
    golden = json.loads(BOUNDARY_VALUES.read_text())
    for case, fn in _quantities(*family):
        want = golden[case]
        assert _boundary_values(fn) == want, case
        # the grid layer preps each axis once and combines per row block
        assert _hexes(lambda: _grid_eval(fn, BOUNDARY, BOUNDARY)) == want["array"], case
        # the sampler preps u once and v at each bisection step, on flat arrays
        form = as_form(fn)
        uu, vv = (a.ravel() for a in np.meshgrid(BOUNDARY, BOUNDARY, indexing="ij"))
        assert _hexes(lambda: form.combine(form.prep_u(uu), form.prep_v(vv))) == want["array"], case


def _write_lines(path, data):
    """JSON with one top-level entry per line, so a change shows as the lines it touches."""
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in data.items())
    path.write_text("{\n" + body + "\n}\n")


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    digests = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, params in ALL_FAMILIES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(["classify", "--family", name, "--param", _param_text(params), "--grid", GRID]) == 0
            _golden_path(name, params).write_text(buf.getvalue())
            digests[_family_key(name, params)] = _sample_digest(name, params, Path(scratch) / "sample.csv")
        for name, params in WITNESS_FAMILIES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                assert main(_witness_argv(name, params)) == 0
            _witness_path(name, params).write_text(buf.getvalue())
        grid_digests = {
            key: _grid_digest(argv, Path(scratch) / "grid.csv")
            for family in ALL_FAMILIES
            for key, argv in _grid_exports(*family)
        }
    SAMPLE_DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    GRID_DIGESTS.write_text(json.dumps(grid_digests, indent=2) + "\n")
    with np.errstate(all="ignore"):
        values = {case: _boundary_values(fn) for family in ALL_FAMILIES for case, fn in _quantities(*family)}
        _write_lines(BOUNDARY_VALUES, values)
