"""Snapshot tests: `classify --grid 64` reports (and those of the edge settings
on their own grids), `witness --grid 48` reports of
the EVC MK-TP2 witnesses, the outcomes of every analytic setting's
`witness --grid 48` and of every grid-routed setting's `witness --grid 64`,
`sample` and `grid-export` CSV digests, boundary values of every
built-in family's quantities, and the generator-level verdicts of
user-built generators.

The files under ``tests/golden/`` pin verdicts, witnesses and report bytes;
``sample_digests.json`` the sha256 of the ``sample --n 5000 --seed 7`` CSV of
each family, and of sample sizes around the sampler's 2^14-draw chunks;
``witness_outcomes.json`` the exit code and the blake2b digest of stdout of
``witness --grid 48`` for each generator- and Pickands-level setting and
property, so a change of route shows as the entries it changes;
``witness_grid_outcomes.json`` the same of ``witness --grid 64`` for each
grid-routed setting of the classify goldens, whose witness the search
ladder finds; ``witness_edge_outcomes.json`` the same of each setting of
:data:`EDGE_SETTINGS` on its own grid, whose classify reports are pinned too;
``grid_digests.json`` the sha256 of the ``grid-export --grid 64``
CSV of each family's cdf, kernel, density (where present) and FA (EVC only),
uniform and logit; and ``boundary_values.json`` the hex bits (or the error
text) of each family's cdf, kernel and density at every (u, v) with u, v in
:data:`BOUNDARY`, called once per point and once on the whole 6 x 6 grid;
``user_generators.json`` the ``describe()`` table of
``archimedean.property_verdicts`` at grid 64 for each generator of
:data:`USER_GENERATORS`, built with ``make_generator`` from psi or phi alone.
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
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import ALL_FAMILIES, ANALYTIC_FAMILIES, GRID_FAMILIES, REGISTRY_FAMILIES, frank_psi, kinked_exp
from mktp2.archimedean import make_generator, property_verdicts
from mktp2.cli import main
from mktp2.core import as_form
from mktp2.grids import GridConfig
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
# Pickands settings at the edges of the D+A(0) tree, each with its grid:
# Marshall-Olkin with D+A(0) = -beta within 1e-9 of -1 and a cap of 5e-10
# below its jump, and evc-jump on a grid too coarse for branch 3c (its cap
# plateau is 1/8 long, under the 1/N the rule needs), so that branch 3e runs
EDGE_SETTINGS = [
    ("mo", {"alpha": 0.5, "beta": 1.0 - 5e-10}, GRID),
    ("mo", {"alpha": 0.5, "beta": 1.0 - 5e-10}, "4"),
    ("evc-jump", None, "4"),
]
SAMPLE_DIGESTS = GOLDEN_DIR / "sample_digests.json"
SAMPLE_N = 5000
SAMPLE_SEED = "7"
# 3 * 2^14 + 5 draws take four sampler chunks, the last one partial; n = 1 and
# either side of one chunk's end run on a Gaussian and a Marshall-Olkin kernel
CHUNKS_N = 3 * 2**14 + 5
EDGE_NS = (1, 2**14, 2**14 + 1)
EDGE_FAMILIES = ("gaussian", "mo")
GRID_DIGESTS = GOLDEN_DIR / "grid_digests.json"
BOUNDARY_VALUES = GOLDEN_DIR / "boundary_values.json"
BOUNDARY = np.array([0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0])
QUANTITIES = ("cdf", "kernel", "density")
USER_GENERATORS_PATH = GOLDEN_DIR / "user_generators.json"


def _clayton_psi(theta):
    """Clayton's psi and its declared D-psi."""
    psi = lambda x: np.power(1.0 + theta * np.asarray(x, dtype=float), -1.0 / theta)
    d_minus_psi = lambda x: -np.power(1.0 + theta * np.asarray(x, dtype=float), -1.0 / theta - 1.0)
    label = f"clayton-psi({theta:g})"
    return make_generator(psi=psi, d_minus_psi=d_minus_psi, phi_at_zero=np.inf, strict=True, label=label)


def _clayton_phi(theta):
    """Clayton's phi alone: psi is bisected, D-psi is 1 / phi'(psi)."""
    phi = lambda t: (np.power(np.asarray(t, dtype=float), -theta) - 1.0) / theta
    return make_generator(phi=phi, label=f"clayton-phi({theta:g})")


USER_GENERATORS = {
    "clayton-psi_theta2": lambda: _clayton_psi(2.0),
    "frank-psi_theta1": lambda: frank_psi(1.0),
    "frank-psi_theta4": lambda: frank_psi(4.0),
    "clayton-phi_theta1": lambda: _clayton_phi(1.0),
    "kinked-exp_x1": lambda: kinked_exp(1.0),
}


def _param_text(params):
    return ",".join(f"{k}={v!r}" for k, v in (params or {}).items())


def _family_key(name, params):
    return name + "".join(f"_{k}{v!r}" for k, v in (params or {}).items())


def _edge_key(name, params, grid):
    return _family_key(name, params) + ("" if grid == GRID else f"_grid{grid}")


def _golden_path(name, params, grid=GRID):
    return GOLDEN_DIR / f"classify_{_edge_key(name, params, grid)}.json"


def _classify_argv(name, params, grid=GRID):
    return ["classify", "--family", name, "--param", _param_text(params), "--grid", grid]


def _witness_argv(name, params):
    argv = ["witness", "--family", name, "--param", _param_text(params)]
    return [*argv, "--property", "mktp2", "--grid", WITNESS_GRID]


def _witness_path(name, params):
    return GOLDEN_DIR / f"witness_mktp2_{_family_key(name, params)}.json"


WITNESS_OUTCOMES = GOLDEN_DIR / "witness_outcomes.json"
WITNESS_GRID_OUTCOMES = GOLDEN_DIR / "witness_grid_outcomes.json"
WITNESS_EDGE_OUTCOMES = GOLDEN_DIR / "witness_edge_outcomes.json"


def _witness_outcomes(families=ANALYTIC_FAMILIES, grid=WITNESS_GRID):
    """``{family/property: [exit code, stdout digest]}`` of ``witness --grid grid`` on each of ``families``."""
    outcomes = {}
    for name, params in families:
        for prop in PROPERTIES:
            argv = ["witness", "--family", name, "--param", _param_text(params), "--property", prop]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = main([*argv, "--grid", grid])
            digest = hashlib.blake2b(buf.getvalue().encode(), digest_size=16).hexdigest()
            outcomes[f"{_family_key(name, params)}/{prop}"] = [code, digest]
    return outcomes


def _edge_outcomes():
    """The witness outcomes of each setting of :data:`EDGE_SETTINGS` on its own grid."""
    outcomes = {}
    for name, params, grid in EDGE_SETTINGS:
        for key, outcome in _witness_outcomes([(name, params)], grid).items():
            outcomes[f"{_edge_key(name, params, grid)}/{key.rpartition('/')[2]}"] = outcome
    return outcomes


def _sample_key(name, params, n):
    return _family_key(name, params) + ("" if n == SAMPLE_N else f"/n{n}")


def _sample_digest(name, params, path, n=SAMPLE_N):
    argv = ["sample", "--family", name, "--param", _param_text(params), "--n", str(n), "--seed", SAMPLE_SEED]
    argv += ["--out", str(path)]
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


def _user_generator_tables():
    """``{key: {property: Verdict.describe()}}`` of each generator of :data:`USER_GENERATORS`."""
    grid = GridConfig(int(GRID), int(GRID))
    tables = {}
    for key, make in USER_GENERATORS.items():
        table = property_verdicts(make(), grid)
        tables[key] = {prop: verdict.describe() for prop, verdict in table.items()}
    return tables


def _stdout(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def _family_ids(fp):
    return f"{fp[0]}-{_param_text(fp[1])}"


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=_family_ids)
def test_classify_matches_golden_report(capsys, family):
    assert _stdout(capsys, *_classify_argv(*family)) == _golden_path(*family).read_text()


@pytest.mark.parametrize("setting", EDGE_SETTINGS, ids=lambda s: f"{_family_ids(s[:2])}-grid{s[2]}")
def test_edge_classify_matches_golden_report(capsys, setting):
    assert _stdout(capsys, *_classify_argv(*setting)) == _golden_path(*setting).read_text()


@pytest.mark.parametrize("family", WITNESS_FAMILIES, ids=_family_ids)
def test_evc_witness_matches_golden_report(capsys, family):
    assert _stdout(capsys, *_witness_argv(*family)) == _witness_path(*family).read_text()


def test_witness_outcomes_match_golden():
    assert _witness_outcomes() == json.loads(WITNESS_OUTCOMES.read_text())


def test_grid_witness_outcomes_match_golden():
    assert _witness_outcomes(GRID_FAMILIES, GRID) == json.loads(WITNESS_GRID_OUTCOMES.read_text())


def test_edge_witness_outcomes_match_golden():
    assert _edge_outcomes() == json.loads(WITNESS_EDGE_OUTCOMES.read_text())


def test_user_generator_verdicts_match_golden():
    assert _user_generator_tables() == json.loads(USER_GENERATORS_PATH.read_text())


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


# (name, params, n) of the digests at the sampler's chunk boundaries
CHUNK_SAMPLES = [(*f, CHUNKS_N) for f in REGISTRY_FAMILIES]
CHUNK_SAMPLES += [(*f, n) for f in ALL_FAMILIES if f[0] in EDGE_FAMILIES for n in EDGE_NS]


@pytest.mark.parametrize("case", CHUNK_SAMPLES, ids=lambda c: f"{_family_ids(c[:2])}-n{c[2]}")
def test_sample_chunk_boundaries_match_golden_digest(tmp_path, case):
    digests = json.loads(SAMPLE_DIGESTS.read_text())
    assert _sample_digest(*case[:2], tmp_path / "sample.csv", case[2]) == digests[_sample_key(*case)]


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


@pytest.mark.parametrize("family", REGISTRY_FAMILIES, ids=_family_ids)
def test_chunked_calls_match_one_combine(family):
    # a call on more than 2^14 points combines them 2^14 at a time
    rng = np.random.default_rng(17)
    edges = [a.ravel() for a in np.meshgrid(BOUNDARY, BOUNDARY, indexing="ij")]
    scattered = [np.concatenate([rng.uniform(size=3 * 2**14 + 5), edge]) for edge in edges]
    crossed = [rng.uniform(size=(200, 1)), np.append(rng.uniform(size=244), BOUNDARY)[None, :]]
    for case, fn in _quantities(*family):
        form = as_form(fn)
        for u, v in (scattered, crossed):
            uu, vv = np.broadcast_arrays(u, v)
            want = _hexes(lambda: form.combine(form.prep_u(uu), form.prep_v(vv)))
            assert _hexes(lambda: fn(u, v)) == want, case


EVC_DENSITIES = [f for f in REGISTRY_FAMILIES if (b := build(*f))[0].kind == "evc" and b[2].density is not None]


@pytest.mark.parametrize("family", EVC_DENSITIES, ids=_family_ids)
def test_evc_density_is_quiet_on_the_boundary(family):
    density = build(*family)[2].density
    uu, vv = np.meshgrid(BOUNDARY, BOUNDARY, indexing="ij")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        density(uu, vv)
        _grid_eval(density, BOUNDARY, BOUNDARY)
        for u, v in zip(uu.ravel().tolist(), vv.ravel().tolist()):
            density(u, v)


def _write_lines(path, data):
    """JSON with one top-level entry per line, so a change shows as the lines it touches."""
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in data.items())
    path.write_text("{\n" + body + "\n}\n")


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    digests = {}
    with tempfile.TemporaryDirectory() as scratch:
        for setting in [(*family, GRID) for family in ALL_FAMILIES] + EDGE_SETTINGS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(_classify_argv(*setting)) == 0
            _golden_path(*setting).write_text(buf.getvalue())
        for name, params in ALL_FAMILIES:
            digests[_family_key(name, params)] = _sample_digest(name, params, Path(scratch) / "sample.csv")
        for name, params, n in CHUNK_SAMPLES:
            digests[_sample_key(name, params, n)] = _sample_digest(name, params, Path(scratch) / "sample.csv", n)
        for name, params in WITNESS_FAMILIES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                assert main(_witness_argv(name, params)) == 0
            _witness_path(name, params).write_text(buf.getvalue())
        _write_lines(WITNESS_OUTCOMES, _witness_outcomes())
        _write_lines(WITNESS_GRID_OUTCOMES, _witness_outcomes(GRID_FAMILIES, GRID))
        _write_lines(WITNESS_EDGE_OUTCOMES, _edge_outcomes())
        _write_lines(USER_GENERATORS_PATH, _user_generator_tables())
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
