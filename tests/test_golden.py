"""Snapshot tests: `classify --grid 64` reports and `sample` CSV digests for every built-in family.

The files under ``tests/golden/`` pin verdicts, witnesses and report bytes,
and ``sample_digests.json`` the sha256 of the ``sample --n 5000 --seed 7``
CSV of each family, so neither the sampler nor the CSV writer can change a
byte unnoticed.  Regenerate them only when a change to a report or a sample
is intended, and say which and why in the change log.  One command rewrites
the classify reports and the sample digests:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from conftest import ALL_FAMILIES
from mktp2.cli import main
from mktp2.properties import PROPERTIES

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GRID = "64"
SAMPLE_DIGESTS = GOLDEN_DIR / "sample_digests.json"
SAMPLE_ARGS = ("--n", "5000", "--seed", "7")


def _param_text(params):
    return ",".join(f"{k}={v!r}" for k, v in (params or {}).items())


def _family_key(name, params):
    return name + "".join(f"_{k}{v!r}" for k, v in (params or {}).items())


def _golden_path(name, params):
    return GOLDEN_DIR / f"classify_{_family_key(name, params)}.json"


def _sample_digest(name, params, path):
    argv = ["sample", "--family", name, "--param", _param_text(params), *SAMPLE_ARGS, "--out", str(path)]
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=_family_ids)
def test_sample_csv_matches_golden_digest(tmp_path, family):
    name, params = family
    digests = json.loads(SAMPLE_DIGESTS.read_text())
    assert _sample_digest(name, params, tmp_path / "sample.csv") == digests[_family_key(name, params)]


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
    SAMPLE_DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
