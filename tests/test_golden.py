"""Snapshot tests: `classify --grid 64` reports for every built-in family.

The files under ``tests/golden/`` pin verdicts, witnesses and report bytes.
Regenerate one only when a change to a report is intended, and say which
and why in the change log:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from conftest import ALL_FAMILIES
from mktp2.cli import main
from mktp2.properties import PROPERTIES

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GRID = "64"


def _param_text(params):
    return ",".join(f"{k}={v!r}" for k, v in (params or {}).items())


def _golden_path(name, params):
    suffix = "".join(f"_{k}{v!r}" for k, v in (params or {}).items())
    return GOLDEN_DIR / f"classify_{name}{suffix}.json"


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


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=_family_ids)
def test_check_agrees_with_classify(capsys, family):
    name, params = family
    common = ("--family", name, "--param", _param_text(params), "--grid", GRID)
    classified = {e["property"]: e for e in json.loads(_stdout(capsys, "classify", *common))["results"]}
    for prop in PROPERTIES:
        checked = json.loads(_stdout(capsys, "check", *common, "--property", prop))["results"]
        assert checked == [classified[prop]], prop


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, params in ALL_FAMILIES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["classify", "--family", name, "--param", _param_text(params), "--grid", GRID]) == 0
        _golden_path(name, params).write_text(buf.getvalue())
