"""mktp2 benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload grid-classify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout (``src/mktp2`` and ``docs`` next to
``perfbench``).  Jobs run one at a time in a child interpreter (closed
loop, one client; ``COPULA_THREADS`` unset), then the oracle checks the
outputs.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
the job list untraced for half the time and once traced, and reports the
per-layer metrics plus the tracing overhead.  Human-readable lines go
first; the last stdout line is the JSON result.  The job list, per-job
results and the trace are written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import jobs as joblists

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 5
RUN_LIMIT_S = 170
ORACLE_RESERVE_S = 20

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "core.cdf_points": "count",
    "core.cdf_s": "s",
    "core.kernel_points": "count",
    "core.kernel_s": "s",
    "core.density_points": "count",
    "core.density_s": "s",
    "core.points_per_grid": "ratio",
    "normal.bvn_points": "count",
    "normal.bvn_s": "s",
    "normal.bvn_peak_mb": "MB",
    "properties.pqd_s": "s",
    "properties.ltd_s": "s",
    "properties.si_s": "s",
    "properties.tp2_s": "s",
    "properties.mktp2_s": "s",
    "properties.dtp2_s": "s",
    "properties.search_s": "s",
    "properties.search_calls": "count",
    "properties.rectangle_defect_calls": "count",
    "archimedean.make_generator_s": "s",
    "archimedean.classify_s": "s",
    "archimedean.psi_calls": "count",
    "archimedean.psi_points": "count",
    "archimedean.d_minus_psi_calls": "count",
    "archimedean.d_minus_psi_points": "count",
    "extreme_value.classify_s": "s",
    "extreme_value.witness_s": "s",
    "extreme_value.A_points": "count",
    "extreme_value.witness_success_frac": "ratio",
    "sampler.sample_s": "s",
    "sampler.kernel_points_per_sample": "count",
    "sampler.write_csv_s": "s",
    "sampler.csv_mb": "MB",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "registry.build_s": "s",
    "trace.self_sum_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "COPULA_THREADS"}
    env["PYTHONPATH"] = SRC
    env["PERFBENCH_SRC"] = SRC
    return env


def spawn(args, deadline):
    """Run child.py; returns the seconds from spawn until it had imported mktp2."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.split()[0]) - started


def run_child(job_file, workdir, seconds, traced, deadline):
    result = os.path.join(workdir, "traced.json" if traced else "untraced.json")
    args = ["--jobs", job_file, "--workdir", os.path.join(workdir, "traced" if traced else "untraced"),
            "--result", result, "--seconds", repr(seconds)]
    setup = spawn(args + (["--traced"] if traced else []), deadline)
    with open(result) as fh:
        out = json.load(fh)
    out["setup_s"] = setup
    return out


def judge(job_list, runs):
    """Oracle verdicts on the first pass, plus byte identity across passes, runs and the probe."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import oracle as oracle_mod

    oracle = oracle_mod.Oracle(ROOT)
    first = runs[0]["passes"][0]["jobs"]
    failures = {}
    for job in job_list["jobs"]:
        key = str(job["id"])
        record = first[key]
        reasons = oracle.check(job, record)
        digests = {p["jobs"][key]["digest"] for run in runs for p in run["passes"]}
        if len(digests) > 1:
            reasons.append({"check": "identity", "detail": "output differs between passes"})
        if reasons:
            failures[key] = {"reasons": reasons, "baseline": oracle_mod.baseline_class(job, reasons)}
    probe = runs[0].get("probe")
    attempted = len(job_list["jobs"])
    if probe is not None:
        attempted += 1
        if probe["digest"] != first[str(probe["id"])]["digest"]:
            failures["probe"] = {"reasons": [{"check": "identity", "detail": f"probe of job {probe['id']}"}],
                                 "baseline": None}
    return attempted, failures, sorted(oracle.branches)


def run_workload(workload, seed, seconds, trace):
    job_list = joblists.build(workload, seed)
    workdir = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}-{os.getpid()}")
    os.makedirs(workdir)
    job_file = os.path.join(workdir, "jobs.json")
    with open(job_file, "w") as fh:
        json.dump(job_list, fh, indent=1)
    # children are killed if they would push the run past RUN_LIMIT_S; the
    # rest of the limit is left for the oracle
    deadline = time.monotonic() + RUN_LIMIT_S - ORACLE_RESERVE_S
    try:
        if trace:
            runs = [run_child(job_file, workdir, seconds / 2.0, False, deadline),
                    run_child(job_file, workdir, seconds / 2.0, True, deadline)]
            metrics = per_layer_metrics(job_list, runs)
        else:
            setups = [spawn([], deadline) for _ in range(SETUP_PROBES)]
            runs = [run_child(job_file, workdir, seconds, False, deadline)]
            metrics = end_to_end_metrics(runs[0], setups)
        attempted, failures, branches = judge(job_list, runs)
    finally:
        # sample CSVs are large; the job list and results stay
        for run_dir in ("untraced", "traced"):
            shutil.rmtree(os.path.join(workdir, run_dir), ignore_errors=True)
    record = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "job_list_sha256": joblists.digest(job_list), "metrics": metrics,
        "attempted": attempted, "failures": failures, "evc_branches": branches,
        "passes": [len(r["passes"]) for r in runs],
    }
    with open(os.path.join(workdir, "summary.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def end_to_end_metrics(run, setups):
    passes = run["passes"]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setups + [run["setup_s"]]),
    }


def per_layer_metrics(job_list, runs):
    untraced, traced = runs
    metrics = dict(traced["trace"]["metrics"])
    outputs = traced["passes"][0]["jobs"]
    reports = sum(len(outputs[str(j["id"])]["stdout"].encode()) for j in job_list["jobs"] if j["kind"] == "cli")
    metrics["cli.report_bytes"] = float(reports)
    traced_wall = traced["passes"][0]["wall_s"]
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in untraced["passes"])
    return metrics


def print_record(record):
    units = END_TO_END if record["trace"] == 0 else PER_LAYER
    head = f"# {record['workload']} seed={record['seed']} passes={record['passes']}"
    print(f"{head} jobs_sha256={record['job_list_sha256'][:16]}")
    for name, unit in units.items():
        print(f"{record['workload']:<18} {name:<38} {record['metrics'][name]:>14.6g} {unit}")
    failed = len(record["failures"])
    print(f"{record['workload']:<18} {'failed_frac':<38} {failed / record['attempted']:>14.6g} "
          f"fraction ({failed}/{record['attempted']})")
    for key, failure in sorted(record["failures"].items(), key=lambda kv: (len(kv[0]), kv[0])):
        tag = failure["baseline"] or "NEW"
        print(f"{record['workload']:<18}   job {key}: [{tag}] {json.dumps(failure['reasons'])[:300]}")
    if record["evc_branches"]:
        print(f"{record['workload']:<18}   EVC branches reached: {' '.join(record['evc_branches'])}")


def result_line(record):
    units = END_TO_END if record["trace"] == 0 else PER_LAYER
    failures = record["failures"].values()
    return {
        "correct": all(f["baseline"] is not None for f in failures),
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()},
    }


def check_checkout():
    needed = [os.path.join(SRC, "mktp2", "cli.py"), os.path.join(ROOT, "docs", "report.schema.json")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        raise BenchError(f"not a mktp2 checkout: missing {', '.join(os.path.relpath(p, ROOT) for p in missing)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=joblists.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        workloads = joblists.WORKLOADS if args.workload == "all" else (args.workload,)
        records = [run_workload(w, args.seed, args.seconds, args.trace) for w in workloads]
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print_record(record)
    lines = [result_line(r) for r in records]
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {f"{r['workload']}.{k}": v for r, line in zip(records, lines)
                        for k, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
