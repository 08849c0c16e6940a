"""The traced benchmark (``perfbench/tracer.py``) wraps mktp2 functions by name.

Installing it in a fresh interpreter fails when a traced function is renamed
or removed, so such a refactor fails here and not only in a traced run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tracer_installs():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install()"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
