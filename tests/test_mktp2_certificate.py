"""The MK-TP2 adjacent-cell certificate and the branch-and-bound dyadic span sweep.

``property_verdicts`` reads MK-TP2 as ``holds`` without the span sweep when
``_kernel_tp2_certified`` proves that no rectangle the sweep keeps has a
positive defect.  These tests pin that the certificate never certifies a
grid the sweep would not read as ``holds``, that it declines the hand-built
grids it must decline, that the coarse-to-fine search never uses it, that
each tile bound is at least every kept defect of its tile bit for bit, and
that the sweep, which skips tiles by those bounds and skips span pairs and
tiles that can only tie the kept defect, gives the bits and witness of its
full-grid ``np.where`` form, on grids of one and of several row blocks and
tiles.
"""

from fractions import Fraction

import numpy as np
import pytest

from conftest import ALL_FAMILIES
from oracles import reference_sweep
from mktp2 import properties
from mktp2.core import Copula, Form, make_baseline, make_fgm, make_frechet, make_gaussian
from mktp2.extreme_value import builtin_pickands, evc_copula
from mktp2.grids import GridConfig
from mktp2.properties import (
    TILE,
    Status,
    _dyadic_spans,
    _grid_eval,
    _kernel_tp2_certified,
    _row_blocks,
    _spanned_cross_defect,
    _tile_bounds,
    _tile_extremes,
    _verdict,
    check_mktp2,
    counterexample_search,
    property_verdicts,
)
from mktp2.registry import build

# the families of ALL_FAMILIES whose kernel grids the certificate proves
# MK-TP2 on, at every grid size and spacing below
CERTIFIED = {
    "pi-None",
    "m-None",
    "fgm-{'theta': 0.7}",
    "gaussian-{'rho': 0.5}",
    "gumbel-{'alpha': 1.5}",
    "gumbel-{'alpha': 3.0}",
    "evc-gumbel-{'alpha': 2.0}",
    "tawn-sym-{'theta': 1.0}",
    "tawn-mix-{'theta': 1.25, 'kappa': -0.25}",
}


def _random_copulas(seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        out.append(make_fgm(rng.uniform(-1.0, 1.0)))
        out.append(make_gaussian(rng.uniform(-0.95, 0.95)))
        alpha = rng.uniform(0.0, 1.0)
        out.append(make_frechet(alpha, rng.uniform(0.0, 1.0 - alpha)))
    out.append(make_frechet(rng.uniform(0.0, 1.0), 0.0))
    return out


def _kernel_grid(copula, grid):
    us, vs = grid.u_axis(), grid.v_axis()
    return _grid_eval(copula.kernel, us, vs), us, vs


@pytest.mark.parametrize("spacing", ["uniform", "logit"])
@pytest.mark.parametrize("n", [64, 256, 1024])
def test_certificate_never_certifies_a_positive_sweep_defect(n, spacing):
    grid = GridConfig(n_u=n, n_v=n, spacing=spacing)
    certified = set()
    for name, params in ALL_FAMILIES:
        _, _, copula = build(name, params)
        values, us, vs = _kernel_grid(copula, grid)
        if _kernel_tp2_certified(values):
            certified.add(f"{name}-{params}")
            assert _spanned_cross_defect(values, us, vs, grid)[0] <= 0.0, (name, params)
    assert certified == CERTIFIED
    for copula in _random_copulas(seed=n + len(spacing)):
        values, us, vs = _kernel_grid(copula, grid)
        if _kernel_tp2_certified(values):
            assert _spanned_cross_defect(values, us, vs, grid)[0] <= 0.0, copula.label


@pytest.mark.parametrize("spacing", ["uniform", "logit"])
def test_marshall_olkin_falls_back_and_holds(spacing):
    # its largest adjacent cross-difference is a rounding-level positive
    # number, so only the sweep can read it as holds
    grid = GridConfig(n_u=128, n_v=128, spacing=spacing)
    copula = evc_copula(builtin_pickands("marshall-olkin", alpha=0.7, beta=1.0))
    values, _, _ = _kernel_grid(copula, grid)
    assert not _kernel_tp2_certified(values)
    assert check_mktp2(copula, grid).status is Status.HOLDS


def _tie_grid(f11, f12, f21, f22):
    return np.array([[f11, f12], [f21, f22]])


def test_rounded_tie_with_larger_exact_cross_product_is_rejected():
    e = 2.0**-52
    values = _tie_grid(1.0, 1.0 + e, 1.0 + e, 1.0 + 2 * e)
    f11, f12, f21, f22 = (Fraction(float(x)) for x in values.ravel())
    assert values[0, 1] * values[1, 0] == values[0, 0] * values[1, 1]
    assert f12 * f21 > f11 * f22
    grid = GridConfig(n_u=2, n_v=2)
    assert not _kernel_tp2_certified(values)
    # the sweep reads the tie as a zero defect
    assert _spanned_cross_defect(values, np.array([0.2, 0.4]), np.array([0.3, 0.6]), grid)[0] == 0.0


def _table_copula(values, grid):
    """A copula whose kernel reads ``values`` on the axes of ``grid`` (only the grid scans call it)."""
    us, vs = grid.u_axis(), grid.v_axis()
    table = Form(lambda u, v: values[np.searchsorted(us, u), np.searchsorted(vs, v)])
    return Copula("table", cdf=table, kernel=table)


def test_rounded_tie_with_smaller_exact_cross_product_is_left_to_the_sweep():
    e = 2.0**-52
    values = _tie_grid(1.0 + e, 1.0, 1.0 + 2 * e, 1.0 + e)
    f11, f12, f21, f22 = (Fraction(float(x)) for x in values.ravel())
    assert values[0, 1] * values[1, 0] == values[0, 0] * values[1, 1]
    assert f12 * f21 < f11 * f22
    # a zero defect proves the cell only between the same two factors
    assert not _kernel_tp2_certified(values)
    grid = GridConfig(n_u=2, n_v=2)
    us, vs = grid.u_axis(), grid.v_axis()
    defect, witness, _ = _spanned_cross_defect(values, us, vs, grid)
    assert defect == 0.0 and witness.values == tuple(values.ravel())
    verdict = property_verdicts(_table_copula(values, grid), grid, ("mktp2",))["mktp2"]
    swept = _verdict(defect, witness, verdict.certificate, grid.tol_eq, grid.tol_strict)
    assert verdict.describe() == swept.describe()
    assert verdict.status is Status.HOLDS


def test_gaussian_rounded_ties_give_the_sweeps_report(monkeypatch):
    # Gaussian rho = 0.9 at 64^2 logit has four adjacent cells whose products
    # tie between different factors, so the sweep decides, reading 0.0 there
    grid = GridConfig(n_u=64, n_v=64, spacing="logit")
    copula = make_gaussian(0.9)
    values, us, vs = _kernel_grid(copula, grid)
    defect, _ = properties._adjacent_cross_defect(values, 0, us, vs)
    f11, f12, f21, f22 = values[:-1, :-1], values[:-1, 1:], values[1:, :-1], values[1:, 1:]
    same = ((f12 == f11) & (f21 == f22)) | ((f12 == f22) & (f21 == f11))
    assert np.sum((defect == 0.0) & ~same & (f21 > 0.0)) == 4
    assert not _kernel_tp2_certified(values)
    assert _spanned_cross_defect(values, us, vs, grid)[0] == 0.0
    report = {prop: v.describe() for prop, v in property_verdicts(copula, grid).items()}
    monkeypatch.setattr(properties, "_kernel_tp2_certified", lambda values: False)
    assert report == {prop: v.describe() for prop, v in property_verdicts(copula, grid).items()}
    assert report["mktp2"]["status"] == "holds"


def test_w_zero_pattern_is_not_a_staircase():
    grid = GridConfig(n_u=64, n_v=64)
    values, _, _ = _kernel_grid(make_baseline("w"), grid)
    assert np.all(values >= 0.0) and values.max() == 1.0
    assert not _kernel_tp2_certified(values)
    assert check_mktp2(make_baseline("w"), grid).status is Status.FAILS


@pytest.mark.parametrize(
    "values",
    [
        # a zero row between positive ones: z_i decreases from row 1 to row 2
        [[1.0, 2.0], [0.0, 0.0], [2.0, 1.0], [1.0, 1.0]],
        # a zero column inside the rows: row 0 is positive on no suffix
        [[1.0, 0.0, 2.0, 1.0], [2.0, 0.0, 1.0, 1.0]],
    ],
)
def test_zero_gaps_are_not_a_staircase(values):
    # every adjacent cell passes, but a rectangle across the zeros violates
    values = np.array(values)
    us = np.linspace(0.1, 0.9, values.shape[0])
    vs = np.linspace(0.1, 0.9, values.shape[1])
    assert _spanned_cross_defect(values, us, vs, GridConfig())[0] == 3.0
    assert not _kernel_tp2_certified(values)


def test_values_above_the_overflow_guard_fall_back():
    grid = GridConfig(n_u=32, n_v=32)
    values, _, _ = _kernel_grid(make_baseline("pi"), grid)
    assert _kernel_tp2_certified(values)
    assert not _kernel_tp2_certified(values * 2.0**510)


def test_tiny_values_are_certified_only_where_the_sweep_holds():
    # tol_eq = 0 keeps every rectangle of the scaled grid in the sweep
    grid = GridConfig(n_u=32, n_v=32, tol_eq=0.0)
    values, us, vs = _kernel_grid(make_baseline("pi"), grid)
    values = values * 2.0**-460
    assert _kernel_tp2_certified(values)
    assert _spanned_cross_defect(values, us, vs, grid)[0] <= 0.0


def test_property_verdicts_use_the_certificate_and_the_search_does_not(monkeypatch):
    calls = []
    real = properties._kernel_tp2_certified

    def spy(values):
        calls.append(values.shape)
        return real(values)

    grid = GridConfig(n_u=64, n_v=64)
    monkeypatch.setattr(properties, "_kernel_tp2_certified", spy)
    assert property_verdicts(make_baseline("pi"), grid, ("mktp2",))["mktp2"].status is Status.HOLDS
    assert calls == [(64, 64)]

    def forbidden(values):
        raise AssertionError("counterexample_search called the MK-TP2 certificate")

    monkeypatch.setattr(properties, "_kernel_tp2_certified", forbidden)
    for copula in (make_baseline("pi"), make_gaussian(0.5), make_baseline("w")):
        counterexample_search(copula, "mktp2", grid, stages=(32, 64))


# ---------------------------------------------------------------------------
# the tile bounds of the branch-and-bound sweep
# ---------------------------------------------------------------------------


def _bound_grids():
    """Non-negative grids on which the tile bound must hold bit for bit."""
    rng = np.random.default_rng(5)
    shapes = [(2, 2), (5, 40), (TILE - 1, TILE + 1), (TILE, TILE), (2 * TILE + 3, 3 * TILE - 5), (97, 70)]
    for shape in shapes:
        yield rng.uniform(0.0, 1.0, shape)
        # subnormals, down to the smallest one
        yield np.ldexp(rng.uniform(0.5, 1.0, shape), rng.integers(-1074, -1000, shape))
        # near 1e155, where K12*K21 and K11*K22 overflow to inf
        yield rng.uniform(0.5, 2.0, shape) * 1e155
        # magnitudes from subnormal to overflow in one grid
        yield np.ldexp(rng.uniform(0.5, 1.0, shape), rng.integers(-1074, 520, shape))
        # signed zeros and ties
        yield rng.choice([0.0, -0.0, 0.25, 1.0], size=shape)
        yield _tile_growth(rng, shape)


def _tile_growth(rng, shape):
    """Values that double from each tile to the next along both axes, so the
    largest values of a region that straddles two tiles lie in the second."""
    i, j = np.indices(shape) // TILE
    return np.ldexp(rng.uniform(0.5, 1.0, shape), i + j)


def _kept_defects(values, su, sv, tol_eq):
    """The defect of every rectangle of span pair (su, sv), NaN where the sweep skips it."""
    f11, f22 = values[:-su, :-sv], values[su:, sv:]
    f12, f21 = values[:-su, sv:], values[su:, :-sv]
    with np.errstate(over="ignore", invalid="ignore"):
        defect = f12 * f21 - f11 * f22
    return np.where(f21 > tol_eq, defect, np.nan), f21 > tol_eq


@pytest.mark.parametrize("tol_eq", [0.0, 1e-12])
def test_tile_bound_is_at_least_every_kept_defect(tol_eq):
    for values in _bound_grids():
        hi, lo = _tile_extremes(values)
        spans_u, spans_v = _dyadic_spans(values.shape[0]), _dyadic_spans(values.shape[1])
        bounds = _tile_bounds(hi, lo, values.shape, spans_u, spans_v)
        for iu, su in enumerate(spans_u):
            for iv, sv in enumerate(spans_v):
                bound = bounds[iu, :, iv]
                defect, kept = _kept_defects(values, su, sv, tol_eq)
                rows, cols = defect.shape
                # a tile reads NaN exactly when it holds no rectangle of the pair
                holds_cells = np.zeros(bound.shape, dtype=bool)
                holds_cells[: -(-rows // TILE), : -(-cols // TILE)] = True
                assert np.array_equal(np.isnan(bound), ~holds_cells)
                cell_bound = np.repeat(np.repeat(bound, TILE, axis=0), TILE, axis=1)[:rows, :cols]
                # a NaN defect (inf - inf) lies only under a bound of +inf
                assert np.all(cell_bound[kept & np.isnan(defect)] == np.inf)
                assert not np.any(defect > cell_bound), (values.shape, su, sv)


@pytest.mark.parametrize("bad", [-0.25, -np.inf, np.inf, np.nan])
def test_tile_bounds_are_infinite_unless_every_value_is_finite_and_non_negative(bad):
    values = np.random.default_rng(3).uniform(0.0, 1.0, (70, 40))
    values[50, 10] = bad
    hi, lo = _tile_extremes(values)
    bounds = _tile_bounds(hi, lo, values.shape, _dyadic_spans(70), _dyadic_spans(40))
    assert np.all(bounds[~np.isnan(bounds)] == np.inf)


# ---------------------------------------------------------------------------
# the branch-and-bound sweep against its full-grid np.where form
# ---------------------------------------------------------------------------


def _planted(shape, rects):
    """A zero grid holding one violating rectangle (i, i + su, j, j + sv) per entry.

    By default each has K12 = K21 = 1 and K11 = K22 = 0, so defect 1; an
    entry may carry its own corner values (f11, f12, f21, f22) as a fifth
    item.  Every other rectangle is skipped (K21 = 0) or has defect at most
    0, given positions whose cross pairings span no dyadic index range.
    """
    values = np.zeros(shape)
    for i, j, su, sv, *corner_values in rects:
        f11, f12, f21, f22 = corner_values[0] if corner_values else (0.0, 1.0, 1.0, 0.0)
        values[i, j], values[i, j + sv], values[i + su, j], values[i + su, j + sv] = f11, f12, f21, f22
    return values


# (i, j, su, sv); on a 600 x 100 grid the adjacent span pair's row blocks
# are rows 0-329 and 330-598
LATE_BLOCK_FIRST_PAIR = (400, 10, 1, 1)
EARLY_BLOCK_LATER_PAIR = (5, 50, 2, 1)
EARLY_BLOCK_FIRST_PAIR = (100, 70, 1, 1)
# pair (1, 32) comes before (2, 1), but its largest tile bound is 1 while the
# corner values 4 and 2 give (2, 1) a larger one, so the sweep takes (2, 1)
# first and finds the same defect 1 = 1*4 - 1.5*2 there
SMALL_BOUND_FIRST_PAIR = (100, 20, 1, 32)
LARGE_BOUND_LATER_PAIR = (300, 10, 2, 1, (1.5, 1.0, 4.0, 2.0))
PLANTED = [
    # an earlier span pair beats an earlier block of a later span pair
    ([LATE_BLOCK_FIRST_PAIR, EARLY_BLOCK_LATER_PAIR], LATE_BLOCK_FIRST_PAIR),
    # within a span pair the earlier block wins the tie
    ([LATE_BLOCK_FIRST_PAIR, EARLY_BLOCK_LATER_PAIR, EARLY_BLOCK_FIRST_PAIR], EARLY_BLOCK_FIRST_PAIR),
    # the canonical order, not the order of the bounds, breaks the tie
    ([LARGE_BOUND_LATER_PAIR, SMALL_BOUND_FIRST_PAIR], SMALL_BOUND_FIRST_PAIR),
]


def _sweep_grids():
    rng = np.random.default_rng(11)
    shapes = [(2, 2), (2, 7), (7, 2), (3, 5), (17, 9), (33, 64), (40, 40), (65, 31)]
    # sides below, at and off a multiple of the tile side, n_u != n_v
    shapes += [(TILE - 1, 3 * TILE), (TILE, TILE), (2 * TILE + 5, TILE - 3), (97, 31)]
    # several row blocks per span pair, some ending on a partial block
    shapes += [(600, 100), (40, 2048), (300, 300), (129, 257)]
    for shape in shapes:
        yield rng.uniform(0.0, 1.0, shape)
        # few levels: ties within and across span pairs
        yield rng.integers(0, 4, shape) / 4.0
        # a zero region on a staircase, values at the gate and negative zeros
        grid = np.sort(rng.uniform(0.0, 1.0, shape), axis=1)
        zero = np.arange(shape[1])[None, :] < np.linspace(0, shape[1], shape[0])[:, None]
        grid[zero] = rng.choice([0.0, -0.0, 1e-12], size=int(zero.sum()))
        yield grid
        # negative values: no tile bound, every rectangle is evaluated
        yield rng.uniform(-0.5, 1.0, shape)
        yield rng.integers(-2, 3, shape) / 2.0
        # subnormals, whose products underflow to zeros of either sign
        yield np.ldexp(rng.uniform(0.5, 1.0, shape), rng.integers(-1074, -1000, shape))
        yield _tile_growth(rng, shape)
        yield np.full(shape, 0.5)
        yield np.zeros(shape)
    tie_rng = np.random.default_rng(12)
    for shape in shapes:
        # the 0/1 anti-diagonal staircase of W's kernel: the defect 1 at the
        # first rectangle of every span pair, and in many more
        stair = (np.add.outer(np.linspace(0, 1, shape[0]), np.linspace(0, 1, shape[1])) >= 1.0) * 1.0
        yield stair
        # the same with a few larger values, so the tile bounds order the
        # pairs apart from their canonical order
        cells = tie_rng.choice(stair.size, size=max(1, stair.size // 200), replace=False)
        sprinkled = stair.copy()
        sprinkled.flat[cells] = tie_rng.choice([1.5, 2.0, 4.0], size=cells.size)
        yield sprinkled
        # 0/1 values: the largest defect ties in most span pairs and tiles
        yield (tie_rng.random(shape) < 0.5) * 1.0
        # a ramp along v above a band at the gate 0.25: a rectangle with K21
        # in the band and K12 above it has a positive defect, kept only at
        # tol_eq = 1e-12; those with all four corners in the ramp tie at 0
        above = np.arange(shape[0])[:, None] < 3 * shape[0] // 4
        yield np.where(above, 0.5 + np.linspace(0.0, 0.5, shape[1]), 0.25)
    for rects, _ in PLANTED:
        yield _planted((600, 100), rects)


@pytest.mark.parametrize("tol_eq", [1e-12, 0.25])
def test_buffered_sweep_matches_np_where_form(tol_eq):
    grid = GridConfig(tol_eq=tol_eq, tol_strict=max(tol_eq, 1e-9))
    for values in _sweep_grids():
        us = np.linspace(0.1, 0.9, values.shape[0])
        vs = np.linspace(0.05, 0.95, values.shape[1])
        got = _spanned_cross_defect(values, us, vs, grid)
        want = reference_sweep(values, us, vs, grid)
        assert float(got[0]).hex() == float(want[0]).hex()
        assert repr(got[1]) == repr(want[1])


def test_planted_pairs_have_the_bounds_their_cases_need():
    values = _planted((600, 100), [LARGE_BOUND_LATER_PAIR, SMALL_BOUND_FIRST_PAIR])
    hi, lo = _tile_extremes(values)

    def top(su, sv):
        return np.nanmax(_tile_bounds(hi, lo, values.shape, [su], [sv]))

    assert top(1, 32) == 1.0 < top(2, 1)


@pytest.mark.parametrize("rects, winner", PLANTED)
def test_first_strict_maximum_wins_across_blocks_and_span_pairs(rects, winner):
    us = np.linspace(0.1, 0.9, 600)
    vs = np.linspace(0.05, 0.95, 100)
    assert len(_row_blocks(599, 99)) == 2
    defect, witness, nan_note = _spanned_cross_defect(_planted((600, 100), rects), us, vs, GridConfig())
    i, j, su, sv = winner
    assert defect == 1.0 and nan_note == ""
    assert witness.points == (us[i], us[i + su], vs[j], vs[j + sv])
    assert witness.values == (0.0, 1.0, 1.0, 0.0)


@pytest.mark.parametrize("violation", [EARLY_BLOCK_FIRST_PAIR, LATE_BLOCK_FIRST_PAIR])
@pytest.mark.parametrize("block_points", [100, 4096, properties.BLOCK_POINTS, 10**6])
def test_nan_defect_in_a_block_keeps_its_finite_maximum(monkeypatch, violation, block_points):
    # a 2 x 2 patch of 1e155 at rows 200-201: K12*K21 and K11*K22 overflow,
    # so their adjacent rectangle's defect is inf - inf = NaN, in the first
    # of the default row blocks, with the violation at row 100, or in the
    # second, with it at row 400; one block holds all rows at 10**6 points
    values = _planted((600, 100), [violation])
    values[200:202, 40:42] = 1e155
    us = np.linspace(0.1, 0.9, 600)
    vs = np.linspace(0.05, 0.95, 100)
    monkeypatch.setattr(properties, "BLOCK_POINTS", block_points)
    defect, witness, nan_note = _spanned_cross_defect(values, us, vs, GridConfig())
    i, j, su, sv = violation
    assert defect == 1.0
    assert witness.points == (us[i], us[i + su], vs[j], vs[j + sv])
    # the first NaN in span-pair-then-row-major order: the adjacent cell at (200, 40)
    assert nan_note == f"NaN defect at rectangle ({us[200]:.6g}, {us[201]:.6g}, {vs[40]:.6g}, {vs[41]:.6g})"


def _count_blocks(monkeypatch):
    blocks = []
    add = properties._Max.add
    monkeypatch.setattr(properties._Max, "add", lambda self, *args: blocks.append(args[0].size) or add(self, *args))
    return blocks


@pytest.mark.parametrize("family", ["w", "arch-w"])
def test_tied_kernel_sweep_evaluates_one_block(monkeypatch, family):
    # the defect 1 of the first row block of span pair (1, 1) is the largest
    # possible on a 0/1 kernel, so every later tile and pair can only tie it
    grid = GridConfig(n_u=1024, n_v=1024)
    us, vs = grid.u_axis(), grid.v_axis()
    values = _grid_eval(build(family, None)[2].kernel, us, vs)
    blocks = _count_blocks(monkeypatch)
    defect, witness, nan_note = _spanned_cross_defect(values, us, vs, grid)
    assert len(blocks) == 1
    assert defect == 1.0 and nan_note == ""
    assert witness.points == (us[0], us[1], vs[-2], vs[-1])


def test_tied_tile_bounds_skip_the_later_blocks_of_a_pair(monkeypatch):
    # on 0/1 values every tile of every span pair reads U = 1, the smallest
    # U of each pair too, so once the first block has found the defect 1 no
    # tile is live
    values = (np.random.default_rng(5).random((600, 100)) < 0.5) * 1.0
    us = np.linspace(0.1, 0.9, 600)
    vs = np.linspace(0.05, 0.95, 100)
    hi, lo = _tile_extremes(values)
    bounds = _tile_bounds(hi, lo, values.shape, _dyadic_spans(600), _dyadic_spans(100))
    assert np.nanmin(bounds) == np.nanmax(bounds) == 1.0
    blocks = _count_blocks(monkeypatch)
    defect, witness, _ = _spanned_cross_defect(values, us, vs, GridConfig())
    assert len(blocks) == 1 and len(_row_blocks(599, 99)) == 2
    assert (defect, repr(witness)) == (1.0, repr(reference_sweep(values, us, vs, GridConfig())[1]))


# an infinite defect (K12 = K21 = 1e200) in span pair (1, 1) at row 100, and
# a NaN defect (four corners of 1e200) at rows 300 and 302 of pair (2, 1) or
# at rows 400 and 401 of pair (1, 1); the witness and notes were recorded
# before the sweep skipped tiles and pairs on ties
INFINITE_WITNESS = (
    "Witness(points=(0.2335559265442404, 0.2348914858096828, 0.14090909090909093, 0.15), "
    "values=(0.0, 1e+200, 1e+200, 0.0), defect=inf, kind='rectangle')"
)


@pytest.mark.parametrize(
    "nan_rows, nan_cols, nan_note",
    [
        ([300, 302], [50, 51], "NaN defect at rectangle (0.500668, 0.503339, 0.504545, 0.513636)"),
        ([400, 401], [40, 41], "NaN defect at rectangle (0.634224, 0.635559, 0.413636, 0.422727)"),
    ],
)
def test_infinite_defect_still_finds_a_later_nan(nan_rows, nan_cols, nan_note):
    values = np.full((600, 100), 0.5)
    values[100:102, 10:12] = [[0.0, 1e200], [1e200, 0.0]]
    values[nan_rows[0] : nan_rows[-1] + 1, nan_cols] = 0.0
    values[np.ix_(nan_rows, nan_cols)] = 1e200
    us = np.linspace(0.1, 0.9, 600)
    vs = np.linspace(0.05, 0.95, 100)
    defect, witness, note = _spanned_cross_defect(values, us, vs, GridConfig())
    assert defect == np.inf
    assert repr(witness) == INFINITE_WITNESS
    assert note == nan_note


def test_search_without_a_kept_rectangle_reads_holds():
    # every kernel value is at most 1 < tol_eq, so no stage keeps a rectangle
    grid = GridConfig(tol_eq=2.0, tol_strict=2.0)
    verdict = counterexample_search(make_fgm(-0.5), "mktp2", grid)
    assert verdict.status is Status.HOLDS
    assert verdict.witness is None
    assert verdict.note == "no violation within the search budget"
