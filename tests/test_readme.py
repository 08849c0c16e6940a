"""The README's library example runs as written and prints what its comments
say, and every ``module.name`` it cites from the library exists."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import mktp2

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


def test_module_names_in_backticks_resolve():
    submodules = {m.name for m in pkgutil.iter_modules(mktp2.__path__)}
    refs = {
        (module, name)
        for module, name in re.findall(r"`(\w+)\.(\w+)`", README.read_text())
        if module in submodules
    }
    assert refs
    missing = [f"{m}.{n}" for m, n in sorted(refs) if not hasattr(importlib.import_module(f"mktp2.{m}"), n)]
    assert missing == []
