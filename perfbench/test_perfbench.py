"""Tests of the benchmark itself: job lists, metric names, oracle, tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import jobs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

from mktp2.cli import main as cli_main  # noqa: E402


def cli_report(argv, capsys):
    assert cli_main(argv) == 0
    return {"code": 0, "stdout": capsys.readouterr().out, "stderr": "", "out": None}


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_job_list(workload):
    first, again, other = jobs.build(workload, 7), jobs.build(workload, 7), jobs.build(workload, 8)
    assert first == again
    assert jobs.digest(first) == jobs.digest(again) != jobs.digest(other)
    # the seed moves parameter values, not the shape of the list
    strip = lambda jl: [(j["kind"], j.get("command"), j.get("family"), j.get("prop")) for j in jl["jobs"]]
    if workload != "analytic-verdicts":  # there the checked property is itself a draw
        assert strip(first) == strip(other)
    assert len(first["jobs"]) == len(other["jobs"])


def test_draws_stay_on_their_side_of_cost_thresholds():
    for seed in range(40):
        grid_jobs = jobs.build("grid-classify", seed)["jobs"]
        for job in grid_jobs:
            if job["family"] == "gaussian":
                rho, grid = job["params"]["rho"], job["argv"][job["argv"].index("--grid") + 1]
                assert (abs(rho) <= 0.8) == (grid == "1024")
        frechet = [j["params"]["beta"] for j in grid_jobs if j["family"] == "frechet"]
        assert frechet[0] > 0.0 and frechet[1] == 0.0
        for job in jobs.build("analytic-verdicts", seed)["jobs"]:
            if job.get("family") == "tawn-mix":
                t, k = job["params"]["theta"], job["params"]["kappa"]
                assert t >= 0 and t + 3 * k >= 0 and t + k <= 1 + 1e-12 and t + 2 * k <= 1
            if job["kind"] == "lib" and job["lib"].get("generator") == "frank":
                assert not 2.0 < job["lib"]["theta"] < 2.5


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------


def test_every_metric_has_a_unit_and_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS)
    traced = set(tracer.Tracer().metrics())
    added_by_parent = {"cli.report_bytes", "trace.wall_s", "trace.overhead_s"}
    assert traced | added_by_parent == set(run.PER_LAYER)


def test_traced_child_reports_every_layer_metric(tmp_path):
    job_list = {
        "jobs": [
            {"id": 0, "kind": "cli", "command": "classify", "family": "gaussian", "params": {"rho": 0.5},
             "argv": ["classify", "--family", "gaussian", "--param", "rho=0.5", "--grid", "32"]},
            {"id": 1, "kind": "cli", "command": "sample", "family": "m", "params": {},
             "argv": ["sample", "--family", "m", "--n", "500", "--out", "{out}"]},
        ],
        "probe": 1,
    }
    job_file = tmp_path / "jobs.json"
    job_file.write_text(json.dumps(job_list))
    result = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--jobs", str(job_file), "--workdir",
         str(tmp_path / "work"), "--result", str(result), "--seconds", "1", "--traced"],
        cwd=ROOT, env=run.child_env(), check=True, capture_output=True, timeout=120,
    )
    out = json.loads(result.read_text())
    metrics = out["trace"]["metrics"]
    assert metrics["normal.bvn_points"] == 32 * 32 * 3  # pqd, ltd and tp2 each evaluate the CDF
    assert metrics["core.points_per_grid"] > 1.0  # classify re-evaluates the CDF and kernel grids
    assert metrics["sampler.kernel_points_per_sample"] == 34
    spans = out["trace"]["spans"]
    assert all(end >= start for _, start, end, _ in spans)
    assert metrics["trace.self_sum_s"] <= out["passes"][0]["wall_s"]


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


FGM_NEG = {"id": 0, "kind": "cli", "command": "classify", "family": "fgm", "params": {"theta": -0.5},
           "argv": ["classify", "--family", "fgm", "--param", "theta=-0.5", "--grid", "64"]}


@pytest.fixture(scope="module")
def judge():
    return oracle.Oracle(ROOT)


def test_oracle_accepts_a_correct_report(judge, capsys):
    record = cli_report(FGM_NEG["argv"], capsys)
    assert judge.check(FGM_NEG, record) == []


def test_oracle_counts_a_flipped_verdict(judge, capsys):
    record = cli_report(FGM_NEG["argv"], capsys)
    report = json.loads(record["stdout"])
    report["results"][0]["status"] = "holds"
    report["results"][0]["witness"] = None
    reasons = judge.check(FGM_NEG, dict(record, stdout=json.dumps(report)))
    assert [r["check"] for r in reasons] == ["verdict"]
    assert oracle.baseline_class(FGM_NEG, reasons) is None


def test_oracle_counts_inconclusive_as_a_miss(judge, capsys):
    record = cli_report(FGM_NEG["argv"], capsys)
    report = json.loads(record["stdout"])
    report["results"][4]["status"] = "inconclusive"
    reasons = judge.check(FGM_NEG, dict(record, stdout=json.dumps(report)))
    assert reasons and reasons[0]["prop"] == "mktp2"


def test_oracle_counts_a_witness_that_does_not_reevaluate(judge, capsys):
    record = cli_report(FGM_NEG["argv"], capsys)
    report = json.loads(record["stdout"])
    mktp2 = report["results"][4]
    assert mktp2["witness"]["kind"] == "rectangle"
    mktp2["witness"]["points"] = [0.3, 0.3, 0.4, 0.6]  # degenerate: zero defect
    reasons = judge.check(FGM_NEG, dict(record, stdout=json.dumps(report)))
    assert reasons == [{"check": "witness", "prop": "mktp2", "kind": "rectangle", "method": "grid:mktp2"}]
    assert oracle.baseline_class(FGM_NEG, reasons) is None


def test_oracle_checks_schema_and_exit_code(judge, capsys):
    record = cli_report(FGM_NEG["argv"], capsys)
    report = json.loads(record["stdout"])
    report["surprise"] = 1
    assert [r["check"] for r in judge.check(FGM_NEG, dict(record, stdout=json.dumps(report)))] == ["schema"]
    assert judge.check(FGM_NEG, dict(record, code=2))[0]["check"] == "exit"


def test_oracle_rejects_a_skewed_sample(judge, tmp_path):
    job = {"id": 0, "kind": "cli", "command": "sample", "family": "pi", "params": {},
           "argv": ["sample", "--family", "pi", "--n", "20000", "--out", "{out}"]}
    path = tmp_path / "s.csv"
    record = {"code": 0, "stdout": "", "stderr": "", "out": str(path)}
    good = np.random.default_rng(0).random((20000, 2))
    np.savetxt(path, good, fmt="%.17g", delimiter=",", header="u,v", comments="")
    assert judge.check(job, record) == []
    skewed = good.copy()
    skewed[:, 1] = skewed[:, 1] ** 1.2
    np.savetxt(path, skewed, fmt="%.17g", delimiter=",", header="u,v", comments="")
    assert [r["check"] for r in judge.check(job, record)] == ["sample", "sample"]


def test_known_defects_are_baseline_not_new():
    mo = {"kind": "cli", "command": "witness", "family": "mo", "params": {"alpha": 0.49, "beta": 0.92}}
    assert oracle.baseline_class(mo, [{"check": "exit", "code": 3, "expected": [0], "error": ""}])
    phi = {"kind": "lib", "lib": {"call": "arch", "generator": "clayton", "form": "phi", "theta": 1.0}}
    flip = {"check": "verdict", "prop": "mktp2", "status": "fails", "expected": "holds",
            "method": "analytic:neg-dminus-psi-log-convexity"}
    assert oracle.baseline_class(phi, [flip]) == "phi-only-generator"
    # the same flip on the psi-given form is not a known defect
    psi = copy.deepcopy(phi)
    psi["lib"]["form"] = "psi"
    assert oracle.baseline_class(psi, [flip]) is None
