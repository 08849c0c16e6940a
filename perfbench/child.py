"""One workload run in a fresh interpreter: import, run passes, report.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and ``COPULA_THREADS`` unset.  It prints, as its only stdout line,
the ``time.monotonic()`` reading taken once ``mktp2.cli`` and the registry
are imported (the parent subtracts its own reading from before the spawn).
With ``--jobs`` it then runs the job list in passes, one job at a time,
until the next pass would overrun ``--seconds`` (at least one pass; a
``--traced`` run makes exactly one), and writes timings, outputs and the
trace to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import mktp2.cli
import mktp2.registry

READY = time.monotonic()

import libjobs  # noqa: E402  (imported after the set-up clock reading)


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def witness_rect(report_text):
    """u1,u2,v1,v2 of the first result's witness, in its rectangle form."""
    witness = json.loads(report_text)["results"][0]["witness"]
    pts = witness["points"]
    if witness["kind"] == "point":
        pts = [pts[0], pts[0], pts[1], pts[1]]
    elif witness["kind"] == "line":
        pts = [pts[0], pts[1], pts[2], pts[2]]
    return ",".join(repr(float(p)) for p in pts)


def run_job(job, done, out_dir, grid):
    """Run one job; returns (exit code, stdout text, stderr text, output path)."""
    out_path = None
    stdout, stderr = io.StringIO(), io.StringIO()
    code = None
    try:
        if job["kind"] == "lib":
            stdout.write(libjobs.run(job["lib"], grid))
            code = 0
        else:
            argv = list(job["argv"])
            if "{out}" in argv:
                out_path = os.path.join(out_dir, f"job{job['id']}.csv")
                argv[argv.index("{out}")] = out_path
            if "{rect}" in argv:
                source = done[job["rect_from"]]
                if source["code"] != 0:
                    raise RuntimeError(f"witness job {job['rect_from']} returned no witness")
                argv[argv.index("{rect}")] = witness_rect(source["stdout"])
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = mktp2.cli.main(argv)
    except Exception:  # a crash is a failed job, not a failed benchmark
        code = "exception"
        stderr.write(traceback.format_exc())
    return code, stdout.getvalue(), stderr.getvalue(), out_path


def output_digest(stdout, out_path):
    h = hashlib.sha256(stdout.encode())
    if out_path is not None and os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_pass(jobs, out_dir, grid, tracer):
    os.makedirs(out_dir, exist_ok=True)
    done = {}
    paths = {}
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
            index = tracer.open("bench.job")
        start = time.perf_counter()
        code, stdout, stderr, out_path = run_job(job, done, out_dir, grid)
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.close(index)
        done[job["id"]] = {"code": code, "stdout": stdout, "stderr": stderr[-2000:], "seconds": seconds}
        paths[job["id"]] = out_path
    wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
    for job_id, record in done.items():
        record["digest"] = output_digest(record["stdout"], paths[job_id])
        record["out"] = paths[job_id]
    return {"wall_s": wall, "cpu_s": cpu, "jobs": done}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", help="job list JSON written by run.py")
    parser.add_argument("--workdir")
    parser.add_argument("--result")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    print(repr(READY), flush=True)
    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(mktp2.cli.__file__).startswith(src + os.sep):
        sys.exit(f"mktp2 imported from {mktp2.cli.__file__}, not from {src}")
    if args.jobs is None:
        return 0

    from mktp2.grids import GridConfig

    with open(args.jobs) as fh:
        job_list = json.load(fh)
    jobs = job_list["jobs"]
    grid = GridConfig()
    tracer = None
    if args.traced:
        import tracer as tracing

        tracer = tracing.install()

    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, os.path.join(args.workdir, f"pass{len(passes)}"), grid, tracer))
        elapsed = time.perf_counter() - begin
        if tracer is not None or elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for later in passes[1:]:
        for record in later["jobs"].values():
            del record["stdout"]  # the digest is what byte identity compares

    result = {"passes": passes, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        result["trace"] = {
            "metrics": tracer.metrics(),
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
        }
    else:
        # byte-identity probe: one job once more, after the timed passes
        probe = next(j for j in jobs if j["id"] == job_list["probe"])
        probe_dir = os.path.join(args.workdir, "probe")
        os.makedirs(probe_dir, exist_ok=True)
        code, stdout, _, out_path = run_job(probe, passes[0]["jobs"], probe_dir, grid)
        result["probe"] = {"id": probe["id"], "code": code, "digest": output_digest(stdout, out_path)}
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
