"""The README's library example runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_refutes_mktp2():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    branch_line, ratio_line, grid_line = out.getvalue().splitlines()
    assert branch_line == "2 Status.FAILS"
    assert float(ratio_line) < 1.0
    assert grid_line == "Status.FAILS"
