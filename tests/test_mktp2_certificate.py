"""The MK-TP2 adjacent-cell certificate and the buffered dyadic span sweep.

``property_verdicts`` reads MK-TP2 as ``holds`` without the span sweep when
``_kernel_tp2_certified`` proves that no rectangle the sweep keeps has a
positive defect.  These tests pin that the certificate never certifies a
grid the sweep would not read as ``holds``, that it declines the hand-built
grids it must decline, that the coarse-to-fine search never uses it, and
that the row-blocked sweep gives the bits and witness of its full-grid
``np.where`` form, on grids of one and of several row blocks.
"""

from fractions import Fraction

import numpy as np
import pytest

from conftest import ALL_FAMILIES
from mktp2 import properties
from mktp2.core import make_baseline, make_fgm, make_frechet, make_gaussian
from mktp2.extreme_value import builtin_pickands, evc_copula
from mktp2.grids import GridConfig
from mktp2.properties import (
    Status,
    Witness,
    _dyadic_spans,
    _grid_eval,
    _kernel_tp2_certified,
    _product_error,
    _row_blocks,
    _spanned_cross_defect,
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


def test_product_error_is_exact():
    rng = np.random.default_rng(7)
    a = np.ldexp(rng.uniform(0.5, 1.0, 400), rng.integers(-450, 500, 400))
    b = np.ldexp(rng.uniform(0.5, 1.0, 400), rng.integers(-450, 500, 400))
    p = a * b
    for x, y, xy, err in zip(a, b, p, _product_error(a, b, p)):
        assert Fraction(err) == Fraction(x) * Fraction(y) - Fraction(xy)


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


def test_rounded_tie_with_smaller_exact_cross_product_is_certified():
    e = 2.0**-52
    values = _tie_grid(1.0 + e, 1.0, 1.0 + 2 * e, 1.0 + e)
    f11, f12, f21, f22 = (Fraction(float(x)) for x in values.ravel())
    assert values[0, 1] * values[1, 0] == values[0, 0] * values[1, 1]
    assert f12 * f21 < f11 * f22
    assert _kernel_tp2_certified(values)


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


@pytest.mark.parametrize("scale", [2.0**-460, 2.0**510])
def test_values_outside_the_exact_range_fall_back(scale):
    grid = GridConfig(n_u=32, n_v=32)
    values, _, _ = _kernel_grid(make_baseline("pi"), grid)
    assert _kernel_tp2_certified(values)
    assert not _kernel_tp2_certified(values * scale)


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
# the row-blocked sweep against its full-grid np.where form
# ---------------------------------------------------------------------------


def _reference_sweep(values, us, vs, grid):
    """The span sweep as written before its buffers and row blocks: one
    full-grid np.where and one argmax per span pair."""
    best = -np.inf
    best_w = None
    for su in _dyadic_spans(len(us)):
        for sv in _dyadic_spans(len(vs)):
            f11 = values[:-su, :-sv]
            f22 = values[su:, sv:]
            f12 = values[:-su, sv:]
            f21 = values[su:, :-sv]
            defect = f12 * f21 - f11 * f22
            defect = np.where(f21 > grid.tol_eq, defect, -np.inf)
            i, j = np.unravel_index(np.argmax(defect), defect.shape)
            d = float(defect[i, j])
            if d > best:
                best = d
                best_w = Witness(
                    points=(float(us[i]), float(us[i + su]), float(vs[j]), float(vs[j + sv])),
                    values=(float(f11[i, j]), float(f12[i, j]), float(f21[i, j]), float(f22[i, j])),
                    defect=d,
                    kind="rectangle",
                )
    return best, best_w


def _planted(shape, rects):
    """A zero grid holding one violating rectangle (i, i + su, j, j + sv) per entry.

    Each has K12 = K21 = 1 and K11 = K22 = 0, so all have defect 1; every other
    rectangle is skipped (K21 = 0) or has defect at most 0, given positions
    whose cross pairings span no dyadic index range.
    """
    values = np.zeros(shape)
    for i, j, su, sv in rects:
        values[i, j + sv] = 1.0
        values[i + su, j] = 1.0
    return values


# (i, j, su, sv); on a 600 x 100 grid the adjacent span pair's row blocks
# are rows 0-329 and 330-598
LATE_BLOCK_FIRST_PAIR = (400, 10, 1, 1)
EARLY_BLOCK_LATER_PAIR = (5, 50, 2, 1)
EARLY_BLOCK_FIRST_PAIR = (100, 70, 1, 1)
PLANTED = [
    # an earlier span pair beats an earlier block of a later span pair
    ([LATE_BLOCK_FIRST_PAIR, EARLY_BLOCK_LATER_PAIR], LATE_BLOCK_FIRST_PAIR),
    # within a span pair the earlier block wins the tie
    ([LATE_BLOCK_FIRST_PAIR, EARLY_BLOCK_LATER_PAIR, EARLY_BLOCK_FIRST_PAIR], EARLY_BLOCK_FIRST_PAIR),
]


def _sweep_grids():
    rng = np.random.default_rng(11)
    shapes = [(2, 2), (2, 7), (7, 2), (3, 5), (17, 9), (33, 64), (40, 40), (65, 31)]
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
        yield np.full(shape, 0.5)
        yield np.zeros(shape)
    for rects, _ in PLANTED:
        yield _planted((600, 100), rects)


@pytest.mark.parametrize("tol_eq", [1e-12, 0.25])
def test_buffered_sweep_matches_np_where_form(tol_eq):
    grid = GridConfig(tol_eq=tol_eq, tol_strict=max(tol_eq, 1e-9))
    for values in _sweep_grids():
        us = np.linspace(0.1, 0.9, values.shape[0])
        vs = np.linspace(0.05, 0.95, values.shape[1])
        got = _spanned_cross_defect(values, us, vs, grid)
        want = _reference_sweep(values, us, vs, grid)
        assert float(got[0]).hex() == float(want[0]).hex()
        assert repr(got[1]) == repr(want[1])


@pytest.mark.parametrize("rects, winner", PLANTED)
def test_first_strict_maximum_wins_across_blocks_and_span_pairs(rects, winner):
    us = np.linspace(0.1, 0.9, 600)
    vs = np.linspace(0.05, 0.95, 100)
    assert len(_row_blocks(599, 99)) == 2
    defect, witness = _spanned_cross_defect(_planted((600, 100), rects), us, vs, GridConfig())
    i, j, su, sv = winner
    assert defect == 1.0
    assert witness.points == (us[i], us[i + su], vs[j], vs[j + sv])
    assert witness.values == (0.0, 1.0, 1.0, 0.0)
