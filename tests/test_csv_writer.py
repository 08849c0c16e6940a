"""The block CSV writer against the row-by-row f-string writer it replaced.

``write_csv`` and ``grid-export`` format blocks of rows with one ``%``
operation each.  The reference writers below are the old loops, kept here so
that every byte (17 significant digits, ``1`` for 1.0, exponent forms, LF
endings) is compared on block boundaries and on extreme values.
"""

import numpy as np
import pytest

from mktp2 import extreme_value as evc
from mktp2.cli import main
from mktp2.grids import GridConfig
from mktp2.properties import _grid_eval
from mktp2.registry import build
from mktp2.sampler import _BLOCK_VALUES, SampleBatch, write_csv

BLOCK_ROWS = _BLOCK_VALUES // 2

# subnormal minimum, tiny normal, half an ulp of 1, the %g exponent switch,
# the midpoint, the last double below 1, and 1 itself
SPECIAL = [5e-324, 1e-300, 2.0**-53, 1e-5, 1e-4, 0.5, 1.0 - 2.0**-53, 1.0, 0.0]


def reference_sample_csv(points):
    lines = ["u,v\n"]
    for u, v in points:
        lines.append(f"{u:.17g},{v:.17g}\n")
    return "".join(lines).encode()


def reference_grid_csv(us, vs, vals):
    lines = ["u,v,value\n"]
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            lines.append(f"{u:.17g},{v:.17g},{vals[i, j]:.17g}\n")
    return "".join(lines).encode()


def _points(n):
    rng = np.random.default_rng(n)
    points = rng.random((n, 2))
    flat = points.ravel()
    k = min(len(SPECIAL), flat.size)
    flat[:k] = SPECIAL[:k]
    flat[-k:] = SPECIAL[::-1][:k]
    return points


@pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 100_003])
def test_write_csv_matches_row_writer(tmp_path, n):
    points = _points(n)
    path = tmp_path / "batch.csv"
    write_csv(SampleBatch(points=points, seed=0, n=n, label="test"), path)
    assert path.read_bytes() == reference_sample_csv(points)


def test_write_csv_formats_every_special_value(tmp_path):
    values = np.array(SPECIAL + [-0.0, 1e300, 2.0**-1074 * 3, float("inf"), float("nan")])
    points = np.column_stack([values, values[::-1]])
    path = tmp_path / "special.csv"
    write_csv(SampleBatch(points=points, seed=0, n=len(points), label="test"), path)
    raw = path.read_bytes()
    assert raw == reference_sample_csv(points)
    assert b"\n1," in raw and b"4.9406564584124654e-324" in raw and b"\r" not in raw


def _grid_values(family, quantity, grid):
    _, obj, copula = build(family, None)
    us, vs = grid.u_axis(), grid.v_axis()
    if quantity == "FA":
        return us, vs, _grid_eval(lambda u, v: evc.cap_function(obj, evc.h_map(u, v)), us, vs)
    return us, vs, _grid_eval(getattr(copula, quantity), us, vs)


# 37 rows fit one block; 100 rows need two, the second one short
@pytest.mark.parametrize("size", [37, 100])
@pytest.mark.parametrize("spacing", ["uniform", "logit"])
@pytest.mark.parametrize("quantity", ["cdf", "kernel", "FA"])
def test_grid_export_matches_row_writer(tmp_path, capsys, quantity, spacing, size):
    assert _BLOCK_VALUES % size != 0
    path = tmp_path / "grid.csv"
    argv = ["grid-export", "--family", "evc-jump", "--quantity", quantity]
    assert main(argv + ["--grid", str(size), "--spacing", spacing, "--out", str(path)]) == 0
    capsys.readouterr()
    us, vs, vals = _grid_values("evc-jump", quantity, GridConfig(n_u=size, n_v=size, spacing=spacing))
    assert path.read_bytes() == reference_grid_csv(us, vs, vals)
