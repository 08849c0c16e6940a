"""Row-blocked grid evaluation against its one-shot form, scans that do not
depend on the row blocks, and the memory bounds of the blocked grid layer.

``_grid_eval`` fills a quantity grid one row block at a time; it must give,
bit for bit, what one call on the full meshgrid gives.  The scans stream the
cdf and the density in those blocks, so their reports must not change with
``BLOCK_POINTS``, and their memory must not grow with the grid.  The blocked
span sweep is compared with its full-grid form in
``test_mktp2_certificate.py``; here it is held near the memory of its mask
and buffers.
"""

import json
import mmap
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from conftest import ALL_FAMILIES

from mktp2 import properties
from mktp2.archimedean import arch_copula, builtin_archimedean, make_generator
from mktp2.errors import NumericalError
from mktp2.grids import GridConfig
from mktp2.properties import (
    BLOCK_POINTS,
    PROPERTIES,
    _grid_eval,
    _row_blocks,
    _row_stream,
    _spanned_cross_defect,
    counterexample_search,
    property_verdicts,
)
from mktp2.registry import build

# ---------------------------------------------------------------------------
# grid evaluation
# ---------------------------------------------------------------------------


def _clayton_psi(theta):
    return lambda x: np.power(1.0 + theta * np.asarray(x, dtype=float), -1.0 / theta)


def _frank_psi(theta):
    c = -np.expm1(-theta)
    return lambda x: -np.log1p(-c * np.exp(-np.asarray(x, dtype=float))) / theta


def _user_generators():
    """Generators whose missing half is bisected: psi-only Clayton and Frank, phi-only Clayton."""
    theta = 0.61
    clayton_phi = lambda t: (np.power(np.asarray(t, dtype=float), -theta) - 1.0) / theta
    return {
        "clayton-psi": make_generator(psi=_clayton_psi(theta), phi_at_zero=np.inf, strict=True),
        "frank-psi": make_generator(psi=_frank_psi(2.5), phi_at_zero=np.inf, strict=True),
        "clayton-phi": make_generator(phi=clayton_phi),
    }


def _copulas():
    for name, params in ALL_FAMILIES:
        yield f"{name}-{params}", build(name, params)[2]
    for label, spec in _user_generators().items():
        yield label, arch_copula(spec)


COPULAS = dict(_copulas())
SHAPES = [(37, 2048), (200, 333), (1024, 1024)]
# a bisected generator takes 1-4 s per quantity at 1024 x 1024, so that
# shape runs once, with uniform spacing, and only for the psi-only pair
SLOW = {"clayton-psi", "frank-psi", "clayton-phi"}


def _cases():
    for label in COPULAS:
        for spacing in ("uniform", "logit"):
            for shape in SHAPES:
                if shape == (1024, 1024) and label in SLOW:
                    if spacing == "logit" or label == "clayton-phi":
                        continue
                yield pytest.param(label, spacing, shape, id=f"{label}-{spacing}-{shape[0]}x{shape[1]}")


def _one_shot(fn, us, vs):
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    return np.asarray(fn(uu, vv), dtype=float)


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def test_row_blocks_cover_the_rows_in_order():
    for n_rows, row_len in [(1, 1), (37, 2048), (200, 333), (1024, 1024), (5, 10**6)]:
        blocks = _row_blocks(n_rows, row_len)
        assert blocks[0][0] == 0 and blocks[-1][1] == n_rows
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all((r1 - r0) * row_len <= max(BLOCK_POINTS, row_len) for r0, r1 in blocks)
    assert len(_row_blocks(1024, 1024)) == 1024 * 1024 // BLOCK_POINTS
    # 200 x 333 and 37 x 2048 end on a partial block
    assert _row_blocks(200, 333)[-1][1] - _row_blocks(200, 333)[-1][0] < BLOCK_POINTS // 333
    assert _row_blocks(37, 2048)[-1] == (32, 37)


@pytest.mark.parametrize("label, spacing, shape", _cases())
def test_blocked_evaluation_is_bit_identical(label, spacing, shape):
    copula = COPULAS[label]
    grid = GridConfig(n_u=shape[0], n_v=shape[1], spacing=spacing)
    us, vs = grid.u_axis(), grid.v_axis()
    for quantity in ("cdf", "kernel", "density"):
        fn = getattr(copula, quantity)
        if fn is None:
            continue
        got = _grid_eval(fn, us, vs)
        want = _one_shot(fn, us, vs)
        assert got.shape == want.shape and got.dtype == np.float64
        assert np.array_equal(_bits(got), _bits(want)), (label, quantity)


def test_streamed_blocks_overlap_by_one_row():
    copula = COPULAS["gaussian-{'rho': -0.5}"]
    for shape in SHAPES[:2]:
        grid = GridConfig(n_u=shape[0], n_v=shape[1])
        us, vs = grid.u_axis(), grid.v_axis()
        want = _grid_eval(copula.cdf, us, vs)
        rows = 0
        for start, fresh, block in _row_stream(copula.cdf, us, vs):
            assert start + fresh == rows and fresh == (1 if rows else 0)
            assert np.array_equal(_bits(block), _bits(want[start : start + len(block)]))
            rows = start + len(block)
        assert rows == shape[0]


# ---------------------------------------------------------------------------
# scans against the row blocks
# ---------------------------------------------------------------------------


def _reports(copula):
    """Every grid verdict at 37 x 2048 and 200 x 333 and every property's search
    from 37 to 200 points, uniform and logit, as JSON."""
    out = []
    for spacing in ("uniform", "logit"):
        for n_u, n_v in SHAPES[:2]:
            grid = GridConfig(n_u=n_u, n_v=n_v, spacing=spacing)
            out.append({p: v.describe() for p, v in property_verdicts(copula, grid).items()})
        grid = GridConfig(spacing=spacing)
        out.append({p: counterexample_search(copula, p, grid, (37, 200)).describe() for p in PROPERTIES})
    return json.dumps(out)


@pytest.mark.parametrize("name, params", ALL_FAMILIES, ids=lambda fp: str(fp))
def test_reports_do_not_depend_on_the_row_blocks(monkeypatch, name, params):
    copula = build(name, params)[2]
    want = _reports(copula)
    for block_points in (100, 4096, 10**6):
        monkeypatch.setattr(properties, "BLOCK_POINTS", block_points)
        assert _reports(copula) == want, block_points


def test_psi_only_phi_depends_only_on_its_own_point():
    for label in ("clayton-psi", "frank-psi"):
        phi = _user_generators()[label].phi
        alone = float(phi(0.5))
        # 1e-300 needs a bracket wide enough to take one more bisection step
        for other in (1e-300, 1e-9, 0.4, 0.999):
            assert float(phi(np.array([other, 0.5]))[1]).hex() == alone.hex(), (label, other)


def test_strict_kernel_error_names_the_same_offending_u():
    base = builtin_archimedean("gumbel", alpha=2.0)
    # D-psi(phi(u)) vanishes for u above about 0.7, a point in a later row block
    x0 = float(base.phi(0.7))
    broken = replace(
        base,
        d_minus_psi=lambda x: np.where(np.asarray(x) < x0, 0.0, base.d_minus_psi(x)),
    )
    kernel = lambda u, v: arch_copula(broken).kernel(u, v)
    grid = GridConfig(n_u=1024, n_v=1024)
    us, vs = grid.u_axis(), grid.v_axis()
    with pytest.raises(NumericalError) as blocked:
        _grid_eval(kernel, us, vs)
    with pytest.raises(NumericalError) as one_shot:
        _one_shot(kernel, us, vs)
    assert str(blocked.value) == str(one_shot.value)
    assert "u=0.70" in str(blocked.value)


# ---------------------------------------------------------------------------
# memory bounds at 1024 x 1024, where one float64 grid takes 8 MB
# ---------------------------------------------------------------------------

MB = 1 << 20
GRID_1024 = GridConfig(n_u=1024, n_v=1024)


def _traced_peak(fn):
    """``(result, peak)``: ``fn()`` and the peak bytes it allocated while traced.

    Whole grids are allocated with ``np.empty`` here, as tracemalloc does not
    see the memory maps :func:`~mktp2.properties._grid_buffer` gives them.
    """
    with mock.patch.object(properties, "_grid_buffer", lambda n_u, n_v: np.empty((n_u, n_v))):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def _memory_map(array):
    """The memory map under ``array``'s chain of bases, or None."""
    base = array
    while base is not None and not isinstance(base, mmap.mmap):
        base = getattr(base, "obj", None) if isinstance(base, memoryview) else base.base
    return base


def test_whole_grids_live_in_their_own_memory_map():
    # a grid from the malloc heap is reused or doubled depending on where
    # small long-lived objects landed, so peak memory varied between runs
    us, vs = GRID_1024.u_axis(), GRID_1024.v_axis()
    grid = _grid_eval(build("fgm", {"theta": 0.5})[2].kernel, us, vs)
    assert _memory_map(grid) is not None and grid.flags.writeable
    assert _memory_map(np.empty((1024, 1024))) is None
    shapes = []
    real = properties._grid_buffer
    with mock.patch.object(properties, "_grid_buffer", lambda n_u, n_v: shapes.append((n_u, n_v)) or real(n_u, n_v)):
        property_verdicts(build("fgm", {"theta": 0.5})[2], GridConfig(n_u=64, n_v=48))
    assert shapes == [(64, 48)]


@pytest.mark.parametrize(
    "family, params, quantity",
    [
        ("gaussian", {"rho": 0.5}, "cdf"),
        ("gaussian", {"rho": 0.5}, "kernel"),
        ("gaussian", {"rho": 0.5}, "density"),
        ("evc-log", None, "density"),
        ("gumbel", {"alpha": 1.5}, "kernel"),
    ],
)
def test_grid_evaluation_peaks_within_two_grids(family, params, quantity):
    fn = getattr(build(family, params)[2], quantity)
    us, vs = GRID_1024.u_axis(), GRID_1024.v_axis()
    values, peak = _traced_peak(lambda: _grid_eval(fn, us, vs))
    assert values.nbytes == 8 * MB
    assert peak <= 16 * MB, peak / MB


@pytest.mark.parametrize("family, params", [("w", None), ("fgm", {"theta": -0.5}), ("pi", None)])
def test_span_sweep_peak_stays_near_its_mask_and_buffers(family, params):
    # the zero-region mask (1 MB) and the two block buffers (256 KB each) take
    # 1.5 MB; the tile extremes and one span pair's tile bounds add tens of KB
    us, vs = GRID_1024.u_axis(), GRID_1024.v_axis()
    values = _grid_eval(build(family, params)[2].kernel, us, vs)
    _, peak = _traced_peak(lambda: _spanned_cross_defect(values, us, vs, GRID_1024))
    assert peak <= 1.7 * MB, peak / MB


def test_span_sweep_allocates_within_four_mb():
    us, vs = GRID_1024.u_axis(), GRID_1024.v_axis()
    values = _grid_eval(build("w", None)[2].kernel, us, vs)
    (defect, witness, _), peak = _traced_peak(lambda: _spanned_cross_defect(values, us, vs, GRID_1024))
    assert defect > GRID_1024.tol_strict and witness is not None
    assert peak <= 4 * MB, peak / MB


@pytest.mark.parametrize(
    "family, params",
    [
        ("gaussian", {"rho": 0.5}),
        ("gaussian", {"rho": -0.5}),
        ("fgm", {"theta": 0.7}),
        ("fgm", {"theta": -0.5}),
        ("pi", None),
        ("w", None),
    ],
)
def test_property_verdicts_hold_only_the_kernel_grid(family, params):
    # the kernel grid takes 8 MB; the cdf and density scans, the certificate
    # and the sweep add block-sized temporaries and the sweep's 1 MB mask
    copula = build(family, params)[2]
    _, peak = _traced_peak(lambda: property_verdicts(copula, GRID_1024))
    assert peak <= 12 * MB, peak / MB


def test_search_stage_holds_no_grid():
    copula = build("gaussian", {"rho": -0.5})[2]
    verdict, peak = _traced_peak(lambda: counterexample_search(copula, "tp2", GRID_1024, stages=(1024,)))
    assert verdict.witness is not None
    assert peak <= 12 * MB, peak / MB
