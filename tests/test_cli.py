import json
import re
import warnings
from pathlib import Path

import pytest

from conftest import ALL_FAMILIES
from mktp2 import cli, extreme_value
from mktp2.cli import main
from mktp2.errors import NumericalError, SearchFailed
from mktp2.grids import GridConfig
from mktp2.properties import PROPERTIES, Status
from mktp2.registry import REGISTRY, build

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "report.schema.json"


@pytest.fixture(scope="module")
def validator():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    return lambda doc: jsonschema.validate(doc, schema)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, validator, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    validator(report)
    return report


def result_map(report):
    return {entry["property"]: entry for entry in report["results"]}


def test_classify_marshall_olkin_beta_one(capsys, validator):
    report = run_report(capsys, validator, "classify", "--family", "mo", "--param", "alpha=0.5,beta=1")
    entry = result_map(report)["mktp2"]
    assert entry["status"] == "holds"
    assert entry["method"] == "analytic"


def test_classify_tawn_mix_boundary_sum(capsys, validator):
    report = run_report(
        capsys, validator, "classify", "--family", "tawn-mix", "--param", "theta=1.25,kappa=-0.25"
    )
    assert result_map(report)["mktp2"]["status"] == "holds"


def test_classify_frechet_pqd_fails(capsys, validator):
    report = run_report(
        capsys, validator, "classify", "--family", "frechet", "--param", "alpha=0.3,beta=0.1"
    )
    assert result_map(report)["pqd"]["status"] == "fails"


def test_check_single_property_analytic(capsys, validator):
    report = run_report(
        capsys, validator, "check", "--family", "gumbel", "--param", "alpha=2", "--property", "mktp2"
    )
    entry = result_map(report)["mktp2"]
    assert entry["status"] == "holds"
    assert entry["method"] == "analytic"


def test_witness_evc_log_rectangle(capsys, validator):
    report = run_report(capsys, validator, "witness", "--family", "evc-log", "--property", "mktp2")
    entry = result_map(report)["mktp2"]
    assert entry["status"] == "fails"
    u1, u2, v1, v2 = entry["witness"]["points"]
    assert 0.85 <= u1 <= u2 < 1.0
    assert 0.0 < v1 <= v2 < 1.0
    assert entry["witness"]["defect"] > 1e-9


def test_witness_round_trip_through_check(capsys, validator):
    report = run_report(capsys, validator, "witness", "--family", "evc-log", "--property", "mktp2")
    entry = result_map(report)["mktp2"]
    u1, u2, v1, v2 = entry["witness"]["points"]
    defect = entry["witness"]["defect"]
    rect_arg = f"{u1!r},{u2!r},{v1!r},{v2!r}"
    second = run_report(
        capsys,
        validator,
        "check",
        "--family",
        "evc-log",
        "--property",
        "mktp2",
        "--rect",
        rect_arg,
    )
    redo = result_map(second)["mktp2"]
    assert redo["status"] == "fails"
    assert abs(redo["witness"]["defect"] - defect) <= 1e-12


def test_witness_not_applicable_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "witness", "--family", "gumbel", "--param", "alpha=2", "--property", "mktp2"
    )
    assert code == 3
    assert out == ""
    assert "no witness: mktp2 holds by analytic:neg-dminus-psi-log-convexity for gumbel(alpha=2)" in err


def test_witness_of_a_property_that_does_not_apply_exits_three(capsys):
    code, out, err = run_cli(capsys, "witness", "--family", "w", "--property", "dtp2")
    assert code == 3
    assert out == ""
    assert "no witness: dtp2 not-applicable by search:dtp2 for W: W exposes no density" in err


# every generator- and Pickands-level registry setting the tests build
ANALYTIC_FAMILIES = [f for f in ALL_FAMILIES if REGISTRY[f[0]].kind != "core"] + [("arch-pi", None)]


def _no_search(*args, **kwargs):
    raise AssertionError("counterexample_search ran")


@pytest.mark.parametrize("family", ANALYTIC_FAMILIES, ids=lambda fp: f"{fp[0]}-{fp[1]}")
def test_witness_exits_three_without_a_search_where_the_family_verdict_settles(capsys, monkeypatch, family):
    name, params = family
    param = ",".join(f"{k}={v!r}" for k, v in (params or {}).items())
    entry, obj, copula = build(name, params)
    grid = GridConfig(n_u=48, n_v=48)
    table = cli._verdicts(entry, obj, copula, grid, PROPERTIES)
    monkeypatch.setattr(cli, "counterexample_search", _no_search)
    settled = [p for p in PROPERTIES if table[p].status in (Status.HOLDS, Status.NOT_APPLICABLE)]
    assert settled
    for prop in settled:
        argv = ("--family", name, "--param", param, "--property", prop, "--grid", "48")
        code, out, err = run_cli(capsys, "witness", *argv)
        assert (code, out) == (3, ""), prop
        status, method = table[prop].status.value, table[prop].certificate["method"]
        assert err.startswith(f"no witness: {prop} {status} by {method} for {copula.label}"), err


@pytest.mark.parametrize("prop", ["pqd", "ltd"])
def test_witness_of_a_gumbel_whose_phi_overflows_reads_the_generator_verdict(capsys, prop):
    # phi(u) overflows at interior u for alpha = 1e3, so C reads 0 there and a
    # grid search would report a false violation; the generator scans hold
    argv = ("--family", "gumbel", "--param", "alpha=1e3", "--property", prop)
    code, out, err = run_cli(capsys, "witness", *argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"no witness: {prop} holds by analytic:")


@pytest.mark.parametrize("family", ["gumbel", "evc-gumbel"])
@pytest.mark.parametrize("alpha", ["100", "199", "1e6"])
def test_large_gumbel_alpha_gives_verdicts_or_a_numerical_failure(capsys, family, alpha):
    # every Gumbel copula is PQD, LTD, SI, TP2, MK-TP2 and d-TP2, so no verdict may
    # read fails; an over- or underflow must neither warn nor read as a usage error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "classify", "--family", family, "--param", f"alpha={alpha}", "--grid", "16"
        )
    if code == 4:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    assert code == 0
    assert err.startswith("# elapsed ") and err.count("\n") == 1
    for entry in json.loads(out)["results"]:
        assert entry["status"] in ("holds", "inconclusive"), entry
        assert entry["status"] == "holds" or entry["note"], entry


# 17 significant digits for every parameter of every parametric registry family
SEVENTEEN_DIGIT_PARAMS = {
    "frechet": {"alpha": 0.31415926535897931, "beta": 0.14142135623730951},
    "fgm": {"theta": -0.57721566490153287},
    "gaussian": {"rho": 0.99999999999000004},
    "gumbel": {"alpha": 2.7182818284590451},
    "evc-gumbel": {"alpha": 2.7182818284590451},
    "mo": {"alpha": 0.31415926535897931, "beta": 0.57721566490153287},
    "tawn-sym": {"theta": 0.57721566490153287},
    "tawn-mix": {"theta": 0.31415926535897931, "kappa": 0.14142135623730951},
}


def test_family_labels_keep_every_digit_of_their_parameters():
    parametric = {name for name, entry in REGISTRY.items() if entry.param_names}
    assert parametric == set(SEVENTEEN_DIGIT_PARAMS)
    for name, params in SEVENTEEN_DIGIT_PARAMS.items():
        label = build(name, params)[2].label
        shown = dict(re.findall(r"(\w+)=([^,)]+)", label))
        assert {k: float(v) for k, v in shown.items()} == params, label
    assert build("gaussian", {"rho": 0.99999999999})[2].label == "gaussian(rho=0.99999999999)"
    assert build("gumbel", {"alpha": 2.0})[2].label == "gumbel(alpha=2)"


def test_witness_searches_when_the_evc_construction_fails(capsys, monkeypatch):
    def construct(*args, **kwargs):
        raise SearchFailed("out of budget")

    # branch 2 then reads inconclusive without a witness, which is not "holds"
    monkeypatch.setattr(extreme_value, "construct_witness_gradient", construct)
    code, out, err = run_cli(
        capsys, "witness", "--family", "tawn-sym", "--param", "theta=0.2", "--grid", "64"
    )
    assert code == 0
    assert "holds" not in err
    entry = json.loads(out)["results"][0]
    assert entry["status"] == "fails"
    assert entry["certificate"]["method"] == "search:mktp2"


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "classify", "--family", "nosuch")[0] == 2
    assert run_cli(capsys, "classify", "--family", "gumbel", "--param", "alpha=0.5")[0] == 2
    assert run_cli(capsys, "classify", "--family", "fgm", "--param", "theta=oops")[0] == 2
    assert run_cli(capsys, "check", "--family", "pi", "--property", "zzz")[0] == 2
    assert run_cli(capsys, "classify", "--family", "pi", "--grid", "2049")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--family", "evc-gumbel", "--param", "alpha=nan"),
        ("classify", "--family", "evc-gumbel", "--param", "alpha=inf"),
        ("classify", "--family", "gumbel", "--param", "alpha=nan"),
        ("classify", "--family", "fgm", "--param", "theta=-inf"),
        ("sample", "--family", "gumbel", "--param", "alpha=nan", "--n", "10", "--out"),
    ],
)
def test_non_finite_parameters_exit_two(tmp_path, capsys, argv):
    out = tmp_path / "s.csv"
    code, stdout, err = run_cli(capsys, *argv, *((str(out),) if argv[-1] == "--out" else ()))
    assert code == 2
    assert stdout == ""
    assert "non-finite value" in err
    assert argv[4].split("=")[0] in err
    assert not out.exists()


@pytest.mark.parametrize(
    "tolerances, field",
    [
        (("--tol-eq", "nan"), "tol_eq"),
        (("--tol-eq", "inf", "--tol-strict", "inf"), "tol_eq"),
        (("--tol-strict", "nan"), "tol_strict"),
        (("--tol-strict", "inf"), "tol_strict"),
    ],
)
def test_non_finite_tolerances_exit_two(capsys, tolerances, field):
    # a NaN tol_eq would skip every MK-TP2 rectangle and inf would band every
    # defect away: W's grid properties would all read holds
    code, stdout, err = run_cli(capsys, "classify", "--family", "w", "--grid", "32", *tolerances)
    assert code == 2
    assert stdout == ""
    assert f"{field} must be finite" in err
    assert "Traceback" not in err


def test_witness_without_a_kept_rectangle_exits_three(capsys):
    code, stdout, err = run_cli(
        capsys,
        "witness", "--family", "fgm", "--param", "theta=-0.5", "--property", "mktp2",
        "--tol-eq", "2", "--tol-strict", "2",
    )
    assert code == 3
    assert stdout == ""
    assert "no witness: mktp2 holds by search:mktp2 for fgm(theta=-0.5): no violation within" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "rect, bad",
    [("0.1,0.2,x,0.4", "v1 has non-numeric value 'x'"), ("0.1,,0.3,0.4", "u2 has non-numeric value ''")],
)
def test_non_numeric_rect_part_exits_two(capsys, rect, bad):
    code, stdout, err = run_cli(capsys, "check", "--family", "pi", "--property", "pqd", "--rect", rect)
    assert code == 2
    assert stdout == ""
    assert bad in err
    assert "Traceback" not in err


def test_repeated_parameter_exits_two(capsys):
    code, stdout, err = run_cli(capsys, "classify", "--family", "gaussian", "--param", "rho=0.5,rho=0.6")
    assert code == 2
    assert stdout == ""
    assert "parameter 'rho' is given more than once" in err


def test_sample_size_above_bound_exits_two(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, err = run_cli(capsys, "sample", "--family", "pi", "--n", "10000001", "--out", str(out))
    assert code == 2
    assert "at most 10000000" in err
    assert not out.exists()


@pytest.mark.parametrize("error", [NumericalError("degenerate"), SearchFailed("out of budget")])
def test_numerical_failures_exit_four(capsys, monkeypatch, error):
    def build(*args):
        raise error

    monkeypatch.setattr(cli, "build", build)
    code, out, err = run_cli(capsys, "classify", "--family", "pi")
    assert code == 4
    assert out == ""
    assert str(error) in err


@pytest.mark.parametrize(
    "argv",
    [("sample", "--family", "pi", "--n", "10"), ("grid-export", "--family", "pi", "--quantity", "cdf")],
)
def test_missing_out_is_rejected_before_any_work(capsys, monkeypatch, argv):
    def build(*args):
        raise AssertionError("built a copula before checking --out")

    monkeypatch.setattr(cli, "build", build)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "--out" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--family", "gaussian", "--param", "rho=0.5", "--n", "10", "--seed", "1"),
        ("grid-export", "--family", "gaussian", "--param", "rho=0.5", "--quantity", "cdf"),
    ],
)
@pytest.mark.parametrize("where", ["missing-dir/x.csv", "."])
def test_unwritable_out_is_rejected_before_any_work(tmp_path, capsys, monkeypatch, argv, where):
    def build(*args):
        raise AssertionError("built a copula before checking --out")

    monkeypatch.setattr(cli, "build", build)
    out = tmp_path / where
    code, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err.startswith("error: cannot write --out ")
    assert str(out) in err


def test_sample_csv(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, err = run_cli(
        capsys,
        "sample",
        "--family",
        "evc-log",
        "--n",
        "10000",
        "--seed",
        "42",
        "--out",
        str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "u,v"
    assert len(lines) == 10_001


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_sample_out_of_range_seed_is_usage_error(tmp_path, capsys, seed):
    out = tmp_path / "x.csv"
    code, _, err = run_cli(
        capsys, "sample", "--family", "pi", "--n", "3", "--seed", seed, "--out", str(out)
    )
    assert code == 2
    assert "seed" in err
    assert not out.exists()


def test_grid_export(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        capsys,
        "grid-export",
        "--family",
        "evc-jump",
        "--quantity",
        "FA",
        "--grid",
        "32",
        "--out",
        str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "u,v,value"
    assert len(lines) == 1 + 32 * 32
    code, _, _ = run_cli(
        capsys, "grid-export", "--family", "m", "--quantity", "density", "--out", str(out)
    )
    assert code == 2  # M has no density
    code, _, _ = run_cli(
        capsys, "grid-export", "--family", "fgm", "--quantity", "FA", "--out", str(out)
    )
    assert code == 2  # FA is an EVC quantity


def test_reports_are_deterministic(tmp_path, capsys):
    argv = ["classify", "--family", "frechet", "--param", "alpha=0.5,beta=0.25", "--grid", "64"]
    first = run_cli(capsys, *argv)[1]
    second = run_cli(capsys, *argv)[1]
    assert first == second
