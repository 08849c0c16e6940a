"""The benchmark's correctness gate on every workload.

Each job of ``perfbench/jobs.py`` runs once through ``child.run_job`` and is
judged by ``oracle.Oracle.check``: exit code, report schema, the
paper-derived verdict, the re-evaluation of every ``fails`` witness and the
exported samples.  A job the benchmark would reject fails here first.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import child  # noqa: E402
import jobs  # noqa: E402
import oracle  # noqa: E402

from mktp2.grids import GridConfig  # noqa: E402


@pytest.mark.parametrize("seed", [1601, 4242])
@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_oracle_accepts_every_job(tmp_path, workload, seed):
    pytest.importorskip("jsonschema")
    judge = oracle.Oracle(os.path.dirname(PERFBENCH))
    done = {}
    for job in jobs.build(workload, seed)["jobs"]:
        code, stdout, stderr, out = child.run_job(job, done, str(tmp_path), GridConfig())
        done[job["id"]] = record = {"code": code, "stdout": stdout, "stderr": stderr, "out": out}
        assert judge.check(job, record) == [], (job.get("argv") or job["lib"], stderr[-2000:])
        if out is not None:
            os.remove(out)  # sample-export writes a few MB per job
