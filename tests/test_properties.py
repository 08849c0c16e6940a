import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from conftest import ALL_FAMILIES, CORE_EDGES, CORE_FAMILIES, REGISTRY_FAMILIES, random_rectangles
from oracles import log_concavity_test, reference_rectangle_defect, reference_search, two_increasing_test

from mktp2 import archimedean, extreme_value, properties
from mktp2.archimedean import arch_copula, builtin_archimedean
from mktp2.core import make_baseline, make_fgm, make_frechet, make_gaussian
from mktp2.errors import DomainError, ValidationError
from mktp2.extreme_value import builtin_pickands, cap_function, evc_copula, h_map
from mktp2.grids import GridConfig, Rectangle
from mktp2.properties import (
    PROPERTIES,
    Status,
    Witness,
    _grid_eval,
    _window_axes,
    check_dtp2,
    check_ltd,
    check_mktp2,
    check_pqd,
    check_si,
    check_tp2,
    counterexample_search,
    log_convexity_test,
    property_verdicts,
    rectangle_defect,
)
from mktp2.registry import build

GRID = GridConfig()


def _no_work(*args, **kwargs):
    raise AssertionError("classifier work before the property names were checked")


@pytest.mark.parametrize(
    "module,work,make",
    [
        (properties, "_scan", lambda: make_fgm(0.5)),
        (archimedean, "classify_archimedean", lambda: builtin_archimedean("gumbel", alpha=2.0)),
        (extreme_value, "classify_evc", lambda: builtin_pickands("gumbel", alpha=2.0)),
    ],
    ids=["properties", "archimedean", "extreme_value"],
)
def test_unknown_property_raises_before_any_work(monkeypatch, module, work, make):
    monkeypatch.setattr(module, work, _no_work)
    expected = re.escape(f"unknown property 'foo'; expected one of {PROPERTIES}")
    with pytest.raises(ValidationError, match=expected):
        module.property_verdicts(make(), GRID, ("mktp2", "foo"))


# ---------------------------------------------------------------------------
# pointwise / per-line checks
# ---------------------------------------------------------------------------


def test_pqd_verdicts():
    fails = check_pqd(make_baseline("w"), GRID)
    assert fails.status is Status.FAILS
    u, v = fails.witness.points
    assert abs(u - 0.5) < 0.01 and abs(v - 0.5) < 0.01
    assert check_pqd(make_baseline("pi"), GRID).status is Status.HOLDS
    assert check_pqd(make_gaussian(-0.5), GRID).status is Status.FAILS


def test_ltd_verdicts():
    assert check_ltd(make_baseline("m"), GRID).status is Status.HOLDS
    assert check_ltd(make_fgm(0.5), GRID).status is Status.HOLDS
    assert check_ltd(make_fgm(-0.5), GRID).status is Status.FAILS


def test_si_verdicts():
    assert check_si(make_frechet(0.5, 0.0), GRID).status is Status.HOLDS
    assert check_si(make_frechet(0.5, 0.25), GRID).status is Status.FAILS
    assert check_si(make_baseline("pi"), GRID).status is Status.HOLDS


# ---------------------------------------------------------------------------
# rectangle checks
# ---------------------------------------------------------------------------


def test_tp2_direct():
    assert check_tp2(make_baseline("pi"), GRID).status is Status.HOLDS
    assert check_tp2(make_gaussian(0.5), GRID).status is Status.HOLDS
    spreeuw = arch_copula(builtin_archimedean("spreeuw"))
    assert check_tp2(spreeuw, GRID).status is Status.HOLDS


def test_mktp2_verdicts():
    assert check_mktp2(make_frechet(0.5, 0.0), GRID).status is Status.FAILS
    assert check_mktp2(make_baseline("m"), GRID).status is Status.HOLDS
    log_spec = builtin_pickands("log-example")
    verdict = check_mktp2(evc_copula(log_spec), GRID)
    assert verdict.status is Status.FAILS
    # the restricted scan confirms the known violating window
    local = check_mktp2(
        evc_copula(log_spec), GridConfig(n_u=200, n_v=200), region=Rectangle(0.9, 0.95, 0.5, 0.6)
    )
    assert local.status is Status.FAILS


def test_dtp2_verdicts():
    assert check_dtp2(make_fgm(0.5), GRID).status is Status.HOLDS
    assert check_dtp2(make_fgm(-0.2), GRID).status is Status.FAILS
    assert check_dtp2(make_baseline("m"), GRID).status is Status.NOT_APPLICABLE


# ---------------------------------------------------------------------------
# shape testers
# ---------------------------------------------------------------------------


def test_log_convexity_cases():
    xs = np.linspace(0.05, 6.0, 501)
    assert log_convexity_test(np.exp, xs).status is Status.HOLDS

    gumbel = builtin_archimedean("gumbel", alpha=2.0)
    neg_d = lambda x: -np.asarray(gumbel.d_minus_psi(x), dtype=float)
    assert log_convexity_test(neg_d, xs).status is Status.HOLDS

    spreeuw = builtin_archimedean("spreeuw")
    neg_s = lambda x: -np.asarray(spreeuw.d_minus_psi(x), dtype=float)
    verdict = log_convexity_test(neg_s, xs)
    assert verdict.status is Status.FAILS
    x0, x1, x2 = verdict.witness.points
    assert x0 < x1 < x2
    with pytest.raises(DomainError):
        log_convexity_test(lambda x: 1.0 - x, xs)


def test_log_concavity_cases():
    xs = np.linspace(0.05, 0.95, 501)
    assert log_concavity_test(lambda x: np.ones_like(x), xs).status is Status.HOLDS
    spec = builtin_pickands("log-example")
    assert log_concavity_test(lambda t: cap_function(spec, t), xs).status is Status.HOLDS
    assert log_concavity_test(lambda x: np.exp(x * x), xs).status is Status.FAILS


def test_two_increasing_cases():
    axis = np.linspace(0.01, 0.99, 257)
    assert two_increasing_test(lambda u, v: u * v, axis, axis, GRID).status is Status.HOLDS

    gaussian = make_gaussian(0.5)
    log_cdf = lambda u, v: np.log(np.asarray(gaussian.cdf(u, v), dtype=float))
    assert two_increasing_test(log_cdf, axis, axis, GRID).status is Status.HOLDS

    spec = builtin_pickands("jump-example")

    def log_cap_h(u, v):
        h = h_map(u, v)
        with np.errstate(divide="ignore"):
            return np.log(np.asarray(cap_function(spec, h), dtype=float))

    uu, vv = np.meshgrid(axis, axis, indexing="ij")
    mask = h_map(uu, vv) >= 0.125
    verdict = two_increasing_test(log_cap_h, axis, axis, GRID, mask=mask)
    assert verdict.status is Status.FAILS


def test_two_increasing_non_finite_value_is_inconclusive():
    axis = np.linspace(0.05, 0.95, 21)
    g = lambda u, v: np.minimum(u + v - 1.0, 0.0) - u * v  # not 2-increasing: fails
    assert two_increasing_test(g, axis, axis, GRID).status is Status.FAILS

    def poisoned(u, v):
        out = np.array(g(u, v), dtype=float)
        out[(u == axis[3]) & (v == axis[7])] = np.nan
        return out

    verdict = two_increasing_test(poisoned, axis, axis, GRID)
    assert verdict.status is Status.INCONCLUSIVE
    assert verdict.witness is None
    assert f"({axis[3]:.6g}, {axis[7]:.6g})" in verdict.note


# ---------------------------------------------------------------------------
# engine-level guarantees
# ---------------------------------------------------------------------------

_FAILING = [
    ("pqd", make_baseline("w")),
    ("ltd", make_fgm(-0.5)),
    ("si", make_frechet(0.5, 0.25)),
    ("tp2", make_gaussian(-0.5)),
    ("mktp2", make_frechet(0.5, 0.0)),
    ("dtp2", make_fgm(-0.2)),
]


@pytest.mark.parametrize("prop,copula", _FAILING, ids=[p for p, _ in _FAILING])
def test_fails_witnesses_are_sound(prop, copula):
    verdict = property_verdicts(copula, GRID, (prop,))[prop]
    assert verdict.status is Status.FAILS
    defect, _ = rectangle_defect(copula, prop, verdict.witness.rectangle())
    assert defect > GRID.tol_strict
    assert defect == pytest.approx(verdict.witness.defect, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("prop,copula", _FAILING, ids=[p for p, _ in _FAILING])
def test_fails_persist_at_finer_resolution(prop, copula):
    coarse = property_verdicts(copula, GridConfig(n_u=128, n_v=128), (prop,))[prop]
    assert coarse.status is Status.FAILS
    fine = property_verdicts(copula, GridConfig(n_u=512, n_v=512), (prop,))[prop]
    assert fine.status is Status.FAILS
    defect, _ = rectangle_defect(copula, prop, coarse.witness.rectangle())
    assert defect == pytest.approx(coarse.witness.defect, rel=1e-9, abs=1e-15)


def test_determinism():
    copula = make_frechet(0.5, 0.25)
    first = check_mktp2(copula, GRID)
    second = check_mktp2(copula, GRID)
    assert first == second
    s1 = counterexample_search(copula, "mktp2", GRID)
    s2 = counterexample_search(copula, "mktp2", GRID)
    assert s1 == s2


def test_tolerance_band_yields_inconclusive():
    grid = GridConfig(n_u=32, n_v=32, tol_eq=1e-12, tol_strict=1.0)
    verdict = check_pqd(make_baseline("w"), grid)
    assert verdict.status is Status.INCONCLUSIVE


def test_property_verdicts_evaluate_each_quantity_once():
    copula = make_fgm(0.7)
    calls = []

    def counted(quantity):
        fn = getattr(copula, quantity)
        return lambda u, v: calls.append(quantity) or fn(u, v)

    traced = dataclasses.replace(copula, **{q: counted(q) for q in ("cdf", "kernel", "density")})
    grid = GridConfig(n_u=64, n_v=64)
    verdicts = property_verdicts(traced, grid, props=("dtp2", "mktp2", "tp2", "si", "ltd", "pqd"))
    assert calls == ["cdf", "kernel", "density"]
    assert verdicts == {p: property_verdicts(copula, grid, (p,))[p] for p in verdicts}


_READS = {"cdf": ("pqd", "ltd", "tp2"), "kernel": ("si", "mktp2"), "density": ("dtp2",)}


@pytest.mark.parametrize("quantity", sorted(_READS))
def test_non_finite_grid_value_is_inconclusive(quantity):
    grid = GridConfig(n_u=64, n_v=64)
    copula = make_fgm(-0.5)
    u0, v0 = grid.u_axis()[10], grid.v_axis()[20]
    fn = getattr(copula, quantity)

    def poisoned(u, v):
        out = np.array(fn(u, v), dtype=float)
        out[(u == u0) & (v == v0)] = np.nan
        return out

    bad = dataclasses.replace(copula, **{quantity: poisoned})
    for prop in ("pqd", "ltd", "si", "tp2", "mktp2", "dtp2"):
        verdicts = [
            property_verdicts(bad, grid, (prop,))[prop],
            counterexample_search(bad, prop, grid, stages=(64,)),
        ]
        for verdict in verdicts:
            if prop not in _READS[quantity]:
                assert verdict.status is Status.FAILS, prop
                continue
            assert verdict.status is Status.INCONCLUSIVE, prop
            assert verdict.witness is None
            assert f"non-finite {quantity} value at (u, v) = ({u0:.6g}, {v0:.6g})" in verdict.note
            json.dumps(verdict.describe(), allow_nan=False)


def _overflowing(quantity, dip):
    """Pi with ``quantity`` replaced by 1, except 1e200 on u, v > 0.5, where adjacent
    cross products overflow to inf - inf = NaN, and, with ``dip``, 0.5 where
    |u - 0.2| and |v - 0.3| are both below 0.01, a violation of defect 0.5."""

    def fn(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        out = np.where((u > 0.5) & (v > 0.5), 1e200, 1.0)
        if dip:
            out = np.where((np.abs(u - 0.2) < 0.01) & (np.abs(v - 0.3) < 0.01), 0.5, out)
        return out

    return dataclasses.replace(make_baseline("pi"), label="overflow", **{quantity: fn})


@pytest.mark.parametrize("quantity, prop", [("density", "dtp2"), ("kernel", "mktp2")])
def test_nan_defect_never_reads_holds(capfd, quantity, prop):
    grid = GridConfig(n_u=64, n_v=64)
    us, vs = grid.u_axis(), grid.v_axis()
    i, j = int(np.argmax(us > 0.5)), int(np.argmax(vs > 0.5))
    nan_cell = f"NaN defect at rectangle ({us[i]:.6g}, {us[i + 1]:.6g}, {vs[j]:.6g}, {vs[j + 1]:.6g})"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for dip in (True, False):
            copula = _overflowing(quantity, dip)
            verdicts = (
                property_verdicts(copula, grid, (prop,))[prop],
                counterexample_search(copula, prop, grid, stages=(64,)),
            )
            for verdict in verdicts:
                if dip:
                    # the violation past the first NaN in row-major order still fails
                    assert verdict.status is Status.FAILS
                    assert verdict.witness.defect == 0.5
                else:
                    assert verdict.status is Status.INCONCLUSIVE
                    assert verdict.witness is None
                    assert verdict.note == nan_cell
    assert caught == []
    assert capfd.readouterr().err == ""


def test_counterexample_search_cases():
    w_verdict = counterexample_search(make_baseline("w"), "pqd", GRID)
    assert w_verdict.status is Status.FAILS
    u, v = w_verdict.witness.points
    assert abs(u - 0.5) < 0.02 and abs(v - 0.5) < 0.02

    tawn = evc_copula(builtin_pickands("tawn-symmetric", theta=0.2))
    assert counterexample_search(tawn, "mktp2", GRID).status is Status.FAILS

    gumbel = arch_copula(builtin_archimedean("gumbel", alpha=3.0))
    verdict = counterexample_search(gumbel, "mktp2", GRID)
    assert verdict.status is Status.HOLDS
    assert "budget" in verdict.note

    with pytest.raises(ValidationError):
        counterexample_search(gumbel, "sharkness", GRID)


def test_check_rejects_unknown_property():
    with pytest.raises(ValidationError):
        property_verdicts(make_baseline("pi"), GRID, ("rti",))


def test_rectangle_defect_matches_direct_evaluation():
    cop = make_fgm(-0.5)
    rect = Rectangle(0.2, 0.4, 0.3, 0.7)
    defect, values = rectangle_defect(cop, "mktp2", rect)
    k = [cop.kernel(u, v) for u, v in [(0.2, 0.3), (0.2, 0.7), (0.4, 0.3), (0.4, 0.7)]]
    assert values == tuple(k)
    assert defect == pytest.approx(k[1] * k[2] - k[0] * k[3], abs=1e-15)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def _test_rectangles(seed):
    """Random rectangles, point-degenerate ones and line-degenerate ones in u and in v,
    half of their coordinates near the edges of the square."""
    rng = np.random.default_rng(seed)
    u1, u2, v1, v2 = random_rectangles(rng, 12)
    u1[::2], u2[::2] = np.sort(1.0 / (1.0 + np.exp(rng.uniform(-20.0, 20.0, (2, 6)))), axis=0)
    rects = [Rectangle(*r) for r in zip(u1, u2, v1, v2)]
    rects += [Rectangle(u, u, v, v) for u, v in zip(u1, v2)]
    rects += [Rectangle(a, b, v, v) for a, b, v in zip(u1, u2, v1)]
    rects += [Rectangle(u, u, a, b) for u, a, b in zip(u2, v1, v2)]
    return rects


@pytest.mark.parametrize("prop", PROPERTIES)
@pytest.mark.parametrize("name, params", ALL_FAMILIES, ids=lambda fp: str(fp))
def test_rectangle_defect_has_the_bits_of_its_per_property_form(name, params, prop):
    copula = build(name, params)[2]
    for rect in _test_rectangles(seed=len(name) + PROPERTIES.index(prop)):
        if prop == "dtp2" and copula.density is None:
            for fn in (rectangle_defect, reference_rectangle_defect):
                with pytest.raises(DomainError, match="exposes no density"):
                    fn(copula, prop, rect)
            continue
        defect, values = rectangle_defect(copula, prop, rect)
        ref_defect, ref_values = reference_rectangle_defect(copula, prop, rect)
        assert _bits(defect) == _bits(ref_defect), (rect, defect, ref_defect)
        assert _bits(values) == _bits(ref_values), (rect, values, ref_values)


def test_grid_config_validation():
    with pytest.raises(ValidationError):
        GridConfig(margin=0.6)
    with pytest.raises(ValidationError):
        GridConfig(tol_eq=1e-6, tol_strict=1e-9)
    for field in ("tol_eq", "tol_strict"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValidationError, match=f"{field} must be finite"):
                GridConfig(**{field: bad})
    with pytest.raises(ValidationError, match="tol_eq must be finite"):
        GridConfig(tol_eq=float("inf"), tol_strict=float("inf"))
    with pytest.raises(ValidationError):
        GridConfig(spacing="chebyshev")
    with pytest.raises(ValidationError):
        GridConfig(n_u=2049)
    with pytest.raises(ValidationError):
        GridConfig(n_v=2049)
    with pytest.raises(ValidationError):
        Rectangle(0.4, 0.2, 0.1, 0.3)
    with pytest.raises(ValidationError):
        Rectangle(0.0, 0.2, 0.1, 0.3)


def test_logit_spacing_concentrates_near_boundary():
    grid = GridConfig(n_u=101, n_v=101, margin=0.001, spacing="logit")
    us = grid.u_axis()
    assert np.all(np.diff(us) > 0.0)
    assert us[0] == pytest.approx(0.001, rel=1e-9)
    assert us[-1] == pytest.approx(0.999, rel=1e-9)
    # geometric clustering: the first step is much smaller than the middle one
    assert us[1] - us[0] < 0.1 * (us[51] - us[50])


# ---------------------------------------------------------------------------
# the tp2 search skips zoom stages whose cells cannot beat the kept defect
# ---------------------------------------------------------------------------

_STAGE_ONE = GRID.axis(64)
# the 64-grid cells at the four corners and the centre that a 1024 window zooms on
_ZOOM_CELLS = [(0, 0), (0, 62), (62, 0), (62, 62), (31, 31)]


def _cell_witness(i, j):
    us = _STAGE_ONE
    return Witness((us[i], us[i + 1], us[j], us[j + 1]), (), 0.0, "rectangle")


@pytest.mark.parametrize("name, params", REGISTRY_FAMILIES + CORE_EDGES, ids=lambda fp: str(fp))
def test_adjacent_tp2_defect_of_a_cdf_is_at_most_its_cell_area(name, params):
    # C12 C21 - C11 C22 <= (C12 - C11)(C21 - C11) <= du dv, by 2-increasingness and
    # the 1-Lipschitz margins: the premise of the search's stage skip
    copula = build(name, params)[2]
    windows = [(_STAGE_ONE, _STAGE_ONE)] + [_window_axes(_cell_witness(i, j), 1024) for i, j in _ZOOM_CELLS]
    for us, vs in windows:
        f = _grid_eval(copula.cdf, us, vs)
        defect = f[:-1, 1:] * f[1:, :-1] - f[:-1, :-1] * f[1:, 1:]
        assert np.max(defect - np.diff(us)[:, None] * np.diff(vs)[None, :]) <= 1e-12, (us[0], vs[0])


_LOGIT = GridConfig(spacing="logit")
_EXACT = GridConfig(tol_eq=0.0, tol_strict=0.0)
_SEARCHES = [(f, GRID) for f in ALL_FAMILIES + CORE_EDGES]
_SEARCHES += [(f, grid) for f in CORE_FAMILIES for grid in (_LOGIT, _EXACT)]


@pytest.mark.parametrize(
    "family, grid", _SEARCHES, ids=lambda x: f"{x.spacing}-{x.tol_strict}" if isinstance(x, GridConfig) else str(x)
)
def test_tp2_search_reads_as_the_full_ladder(family, grid):
    copula = build(*family)[2]
    assert counterexample_search(copula, "tp2", grid).describe() == reference_search(copula, "tp2", grid).describe()


def _stage_sizes(monkeypatch, copula, grid):
    sizes = []
    scan = properties._scan

    def counted(copula, props, us, vs, grid, certify=False):
        sizes.append(len(us))
        return scan(copula, props, us, vs, grid, certify)

    monkeypatch.setattr(properties, "_scan", counted)
    verdict = counterexample_search(copula, "tp2", grid)
    monkeypatch.undo()
    return verdict, sizes


def test_tp2_search_skips_the_stages_that_cannot_beat_its_defect(monkeypatch):
    # rho = -0.52 fails on the 64 grid by 2.5e-4, far above any 256 or 1024 cell
    verdict, sizes = _stage_sizes(monkeypatch, make_gaussian(-0.52), GRID)
    assert verdict.status is Status.FAILS and sizes == [64]
    # a kept defect at or below the bound runs every stage: Pi holds, and FGM at
    # theta = -1e-6 fails at tol_strict 0 by 2.3e-10, below twice a 1024 cell
    for copula, grid in ((make_baseline("pi"), GRID), (make_fgm(-1e-6), _EXACT)):
        verdict, sizes = _stage_sizes(monkeypatch, copula, grid)
        assert sizes == [64, 256, 1024], copula.label
    assert verdict.status is Status.FAILS and verdict.witness.defect < 1e-9


def test_a_skipped_stage_is_not_scanned_for_non_finite_values():
    # a NaN on the 256 window, off the 64 grid, turns the full ladder inconclusive;
    # the search skips that window and keeps its first-stage witness
    copula = make_gaussian(-0.52)
    first = counterexample_search(copula, "tp2", GRID)
    us, vs = _window_axes(first.witness, 256)
    u0, v0 = us[5], vs[7]
    assert u0 not in _STAGE_ONE and v0 not in _STAGE_ONE

    def poisoned(u, v):
        out = np.array(copula.cdf(u, v), dtype=float)
        out[(u == u0) & (v == v0)] = np.nan
        return out

    bad = dataclasses.replace(copula, cdf=poisoned)
    assert reference_search(bad, "tp2", GRID).status is Status.INCONCLUSIVE
    verdict = counterexample_search(bad, "tp2", GRID)
    assert verdict == first
    assert rectangle_defect(bad, "tp2", verdict.witness.rectangle())[0] == verdict.witness.defect
