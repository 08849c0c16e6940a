"""The CSV writer against the row-by-row f-string writer it replaced.

``write_csv`` and ``grid-export`` lay out blocks of values as bytes: values
in [1e-4, 10) from exact integer digits, every other value from one batched
``%`` per block.  The reference writers below are the old loops, kept here
so that every byte (17 significant digits, ``1`` for 1.0, exponent forms,
LF endings) is compared on block boundaries, on rounding ties, at powers of
ten and on extreme values.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def _write_values(path, values):
    """``write_csv`` of a flat array of values, two to a line."""
    points = np.asarray(values, dtype=float).reshape(-1, 2)
    write_csv(SampleBatch(points=points, seed=0, n=len(points), label="test"), path)
    assert path.read_bytes() == reference_sample_csv(points)


def _odd_multiples(scale, lo, hi, stride=1):
    """Every ``stride``-th odd multiple of ``2**-scale`` in [lo, hi), an even count of them."""
    k = np.arange(int(lo * 2**scale) | 1, int(hi * 2**scale) + 1, 2 * stride)
    x = k * 2.0**-scale
    x = x[(x >= lo) & (x < hi)]
    return x[: x.size // 2 * 2]


# on these scales x times the power of ten that gives it 17 integer digits
# is an odd multiple of 1/2: a rounding tie, which goes to the even digit;
# [1, 10) is taken at every fifth odd multiple
@pytest.mark.parametrize(
    "scale, lo, hi, stride",
    [(17, 1.0, 10.0, 5), (18, 0.1, 1.0, 1), (19, 0.01, 0.1, 1), (20, 1e-3, 1e-2, 1), (21, 1e-4, 1e-3, 1)],
)
def test_rounding_ties_go_to_the_even_digit(tmp_path, scale, lo, hi, stride):
    ties = _odd_multiples(scale, lo, hi, stride)
    assert ties.size > 900
    _write_values(tmp_path / "ties.csv", ties)


def test_both_neighbours_of_each_power_of_ten(tmp_path):
    values = []
    for power in (10.0, 1.0, 1e-1, 1e-2, 1e-3, 1e-4):
        below = above = power
        for _ in range(20):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 20.0)
            values += [below, above]
        values.append(power)
    _write_values(tmp_path / "powers.csv", values)


def test_a_block_where_every_value_falls_back(tmp_path):
    rng = np.random.default_rng(7)
    values = np.concatenate(
        [
            -rng.random(BLOCK_ROWS),
            10.0 + 1e6 * rng.random(BLOCK_ROWS),
            1e-4 * rng.random(BLOCK_ROWS),
            [0.0, -0.0, 1e-300, 1e300, float("inf"), float("-inf"), float("nan"), 5e-324],
        ]
    )
    _write_values(tmp_path / "fallback.csv", values)


# arbitrary bit patterns seldom land in [1e-4, 10), where the digits are computed
_IN_RANGE_BITS = (int(np.float64(1e-4).view(np.uint64)), int(np.float64(10.0).view(np.uint64)))
_BITS = st.one_of(st.integers(0, 2**64 - 1), st.integers(*_IN_RANGE_BITS))


@given(pairs=st.lists(st.tuples(_BITS, _BITS), min_size=1, max_size=32))
def test_any_double_has_the_bytes_of_its_fstring(tmp_path_factory, pairs):
    values = np.array(pairs, dtype=np.uint64).view(np.float64)
    _write_values(tmp_path_factory.mktemp("bits") / "bits.csv", values)


def test_write_csv_buffers_do_not_grow_with_the_batch(tmp_path):
    n = 1_000_000
    points = np.random.default_rng(11).random((n, 2))
    batch = SampleBatch(points=points, seed=0, n=n, label="test")
    tracemalloc.start()
    try:
        write_csv(batch, tmp_path / "big.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


def _grid_values(family, quantity, grid, params=None):
    _, obj, copula = build(family, params)
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


# at rho = 0.999 most density values lie below 1e-4 or above 10, where the
# writer falls back to "%"; the 10 000 lines take four blocks
@pytest.mark.parametrize("spacing", ["uniform", "logit"])
def test_grid_export_of_a_density_that_mostly_falls_back(tmp_path, capsys, spacing):
    path = tmp_path / "density.csv"
    argv = ["grid-export", "--family", "gaussian", "--param", "rho=0.999", "--quantity", "density"]
    assert main(argv + ["--grid", "100", "--spacing", spacing, "--out", str(path)]) == 0
    capsys.readouterr()
    grid = GridConfig(n_u=100, n_v=100, spacing=spacing)
    us, vs, vals = _grid_values("gaussian", "density", grid, {"rho": 0.999})
    assert np.mean((vals >= 1e-4) & (vals < 10.0)) < 0.2
    assert path.read_bytes() == reference_grid_csv(us, vs, vals)
