import math

import numpy as np
import pytest
from dataclasses import replace

from mktp2.archimedean import (
    arch_copula,
    builtin_archimedean,
    classify_archimedean,
    generator_x_sample,
    make_generator,
    property_verdicts,
    scan_dminus_psi_continuity,
)
from mktp2.errors import NumericalError, ValidationError
from mktp2.extreme_value import builtin_pickands, evc_copula
from mktp2.grids import GridConfig
from mktp2.properties import Status, check_mktp2, check_si, rectangle_defect
from oracles import zero_level

GRID = GridConfig()


# ---------------------------------------------------------------------------
# built-in generators
# ---------------------------------------------------------------------------


def test_gumbel_alpha_one_is_independence():
    spec = builtin_archimedean("gumbel", alpha=1.0)
    assert arch_copula(spec).cdf(0.3, 0.5) == pytest.approx(0.15, abs=1e-14)
    assert arch_copula(spec).kernel(0.4, 0.7) == pytest.approx(0.7, abs=1e-14)


def test_gumbel_normalization_and_kernel_value():
    spec = builtin_archimedean("gumbel", alpha=2.0)
    assert float(spec.phi(0.5)) == pytest.approx(1.0, abs=1e-12)
    want = 2.0 ** (0.5 - math.sqrt(2.0))
    assert arch_copula(spec).kernel(0.5, 0.5) == pytest.approx(want, abs=1e-13)
    with pytest.raises(ValidationError):
        builtin_archimedean("gumbel", alpha=0.8)
    with pytest.raises(ValidationError):
        builtin_archimedean("frank")


def test_spreeuw_closed_form_value():
    spec = builtin_archimedean("spreeuw")
    want = (1.0 + math.sqrt(2.0)) ** (-0.1)
    assert float(spec.psi(1.0)) == pytest.approx(want, abs=1e-15)
    # independent evaluation through logs
    again = math.exp(-0.1 * math.log1p(math.sqrt(2.0)))
    assert float(spec.psi(1.0)) == pytest.approx(again, abs=1e-15)


def test_w_generator_zero_region():
    spec = builtin_archimedean("w")
    assert not spec.strict
    assert spec.phi_at_zero == 1.0
    assert arch_copula(spec).kernel(0.3, 0.5) == 0.0  # v < f0(u) = 0.7
    assert arch_copula(spec).kernel(0.3, 0.8) == 1.0
    assert arch_copula(spec).cdf(0.4, 0.5) == 0.0


# ---------------------------------------------------------------------------
# construction from closed forms
# ---------------------------------------------------------------------------


def test_make_generator_from_phi_linear():
    spec = make_generator(phi=lambda t: 1.0 - np.asarray(t, dtype=float))
    assert not spec.strict
    assert spec.phi_at_zero == pytest.approx(1.0)
    xs = np.linspace(0.0, 2.0, 21)
    assert np.allclose(spec.psi(xs), np.maximum(1.0 - xs, 0.0), atol=1e-11)


def test_make_generator_from_psi_strict():
    def psi(x):
        x = np.asarray(x, dtype=float)
        return np.power(x + np.sqrt(1.0 + x * x), -0.1)

    spec = make_generator(psi=psi)
    assert spec.strict
    ts = np.concatenate([[1e-6], np.linspace(0.01, 1.0, 50)])
    back = np.asarray(spec.psi(spec.phi(ts)), dtype=float)
    assert np.max(np.abs(back - ts)) <= 1e-10


def test_make_generator_normalization_flag():
    spec = make_generator(phi=lambda t: -np.log(np.asarray(t, dtype=float)) / math.log(2.0))
    assert spec.strict and float(spec.phi(0.5)) == pytest.approx(1.0, abs=1e-10)


def test_make_generator_rejects_concave_phi():
    with pytest.raises(ValidationError) as err:
        make_generator(phi=lambda t: 1.0 - np.square(np.asarray(t, dtype=float)))
    assert "convex" in str(err.value)


def test_make_generator_rejects_nonzero_at_one():
    with pytest.raises(ValidationError):
        make_generator(phi=lambda t: 1.1 - np.asarray(t, dtype=float))


def test_zero_level_values():
    lin = make_generator(phi=lambda t: 1.0 - np.asarray(t, dtype=float))
    assert zero_level(lin, 0.3) == pytest.approx(0.7, abs=1e-11)
    assert zero_level(lin, 0.5) == pytest.approx(0.5, abs=1e-11)
    quad = make_generator(phi=lambda t: np.square(1.0 - np.asarray(t, dtype=float)))
    assert zero_level(quad, 0.5) == pytest.approx(1.0 - math.sqrt(0.75), abs=1e-10)
    strict = builtin_archimedean("gumbel", alpha=2.0)
    assert zero_level(strict, 0.3) == 0.0


# ---------------------------------------------------------------------------
# kernel behaviour
# ---------------------------------------------------------------------------


def test_kernel_boundaries():
    spec = builtin_archimedean("gumbel", alpha=2.0)
    assert arch_copula(spec).kernel(0.0, 0.4) == 1.0
    assert arch_copula(spec).kernel(1.0, 0.4) == 1.0
    assert arch_copula(spec).kernel(0.5, 0.0) == 0.0
    assert arch_copula(spec).kernel(0.5, 1.0) == 1.0


def test_kernel_raises_on_degenerate_strict_derivative():
    base = builtin_archimedean("gumbel", alpha=2.0)
    broken = replace(base, d_minus_psi=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    with pytest.raises(NumericalError):
        arch_copula(broken).kernel(0.5, 0.5)


def test_nonstrict_kernel_zero_below_curve_and_si_fails():
    spec = builtin_archimedean("w")
    us = np.linspace(0.05, 0.95, 41)
    vs = zero_level(spec, us) - 1e-6
    assert np.all(np.asarray(arch_copula(spec).kernel(us, vs)) == 0.0)
    assert check_si(arch_copula(spec), GRID).status is Status.FAILS


# ---------------------------------------------------------------------------
# continuity scan
# ---------------------------------------------------------------------------


def test_continuity_scan_declared_and_numeric():
    assert scan_dminus_psi_continuity(builtin_archimedean("gumbel", alpha=2.0)).status is Status.HOLDS
    assert scan_dminus_psi_continuity(builtin_archimedean("pi")).status is Status.HOLDS

    w = builtin_archimedean("w")
    verdict = scan_dminus_psi_continuity(w)
    assert verdict.status is Status.FAILS
    assert verdict.witness.points[0] == pytest.approx(1.0)

    # numeric detection: same generator without declared metadata
    w_numeric = replace(w, d_minus_psi_jumps=None)
    verdict = scan_dminus_psi_continuity(w_numeric)
    assert verdict.status is Status.FAILS
    assert verdict.witness.points[0] == pytest.approx(1.0, abs=5e-3)


def _frank_psi_only(theta):
    c = -np.expm1(-theta)
    psi = lambda x: -np.log1p(-c * np.exp(-np.asarray(x, dtype=float))) / theta
    return make_generator(psi=psi, phi_at_zero=np.inf, strict=True, label=f"frank({theta:g})")


@pytest.mark.parametrize(
    "spec",
    [
        _frank_psi_only(3.0),
        replace(builtin_archimedean("gumbel", alpha=4.0), d_minus_psi_jumps=None),
    ],
    ids=["frank-psi-theta3", "gumbel-alpha4-undeclared"],
)
def test_steep_smooth_dminus_psi_is_not_a_jump(spec):
    # the D-psi gap shrinks 100-fold over the probe widths: steep, not discontinuous
    assert scan_dminus_psi_continuity(spec).status is Status.HOLDS
    table = property_verdicts(spec, GRID, ("si", "mktp2"))
    assert table["si"].status is Status.HOLDS
    assert table["mktp2"].status is Status.HOLDS


def _pointwise_continuity_scan(spec, tol_jump=1e-3):
    """Reference: the jump-persistence rule applied one x at a time."""
    ts = np.linspace(1e-6, 1.0 - 1e-6, 513)
    xs = np.asarray(spec.phi(ts), dtype=float)
    for x in np.unique(np.sort(xs[np.isfinite(xs) & (xs > 0.0)])):
        if x - 1e-3 <= 0.0:
            continue
        gaps = [abs(float(spec.d_minus_psi(x + d)) - float(spec.d_minus_psi(x - d))) for d in (1e-3, 1e-4, 1e-5)]
        if all(g > tol_jump for g in gaps) and gaps[-1] >= 0.1 * gaps[0]:
            return float(x), gaps[-1]
    return None


@pytest.mark.parametrize(
    "spec",
    [
        replace(builtin_archimedean("w"), d_minus_psi_jumps=None),
        replace(builtin_archimedean("gumbel", alpha=2.0), d_minus_psi_jumps=None),
        _frank_psi_only(1.0),
        _frank_psi_only(5.0),
    ],
    ids=["w", "gumbel", "frank1", "frank5"],
)
def test_continuity_scan_matches_pointwise_reference(spec):
    verdict = scan_dminus_psi_continuity(spec)
    expected = _pointwise_continuity_scan(spec)
    if expected is None:
        assert verdict.status is Status.HOLDS
    else:
        assert verdict.status is Status.FAILS
        assert verdict.witness.points[0] == expected[0]
        assert verdict.witness.defect == pytest.approx(expected[1], rel=1e-12)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 4.0])
def test_classify_gumbel_all_hold(alpha):
    report = classify_archimedean(builtin_archimedean("gumbel", alpha=alpha), GRID)
    assert report.strict
    assert report.tp2_ltd.status is Status.HOLDS
    assert report.mktp2_si.status is Status.HOLDS
    assert report.dtp2.status is Status.HOLDS


def test_classify_spreeuw_tp2_but_not_mktp2():
    report = classify_archimedean(builtin_archimedean("spreeuw"), GRID)
    assert report.tp2_ltd.status is Status.HOLDS
    assert report.mktp2_si.status is Status.FAILS
    x0, x1, x2 = report.mktp2_si.witness.points
    assert 0.0 < x0 < x1 < x2


def test_classify_nonstrict_short_circuit():
    report = classify_archimedean(builtin_archimedean("w"), GRID)
    assert not report.strict
    assert report.tp2_ltd.status is Status.FAILS
    assert report.mktp2_si.status is Status.FAILS
    assert report.dtp2.status is Status.NOT_APPLICABLE


def _clayton_nonstrict(theta):
    """Clayton co-generator for theta in (-1, 0): psi vanishes beyond -1/theta."""

    def psi(x):
        return np.power(np.maximum(1.0 + theta * np.asarray(x, dtype=float), 0.0), -1.0 / theta)

    return make_generator(psi=psi, label=f"clayton(theta={theta})")


@pytest.mark.parametrize("theta", [None, -0.3, -0.5, -0.9], ids=lambda t: "w" if t is None else f"clayton{t}")
def test_nonstrict_fails_witnesses_reevaluate(theta):
    spec = builtin_archimedean("w") if theta is None else _clayton_nonstrict(theta)
    assert not spec.strict
    copula = arch_copula(spec)
    table = property_verdicts(spec, GRID)
    for prop in ("ltd", "si", "tp2", "mktp2"):
        verdict = table[prop]
        assert verdict.status is Status.FAILS
        defect, _ = rectangle_defect(copula, prop, verdict.witness.rectangle())
        assert defect > GRID.tol_strict, prop


@pytest.mark.parametrize("alpha", [1.5, 3.0])
def test_dtp2_uses_declared_psi_second_at_grid_tolerances(alpha):
    spec = builtin_archimedean("gumbel", alpha=alpha)
    dtp2 = classify_archimedean(spec, GRID).dtp2
    assert dtp2.status is Status.HOLDS
    scan = dtp2.certificate["scan"]
    assert (scan["tol_eq"], scan["tol_strict"]) == (GRID.tol_eq, GRID.tol_strict)
    # no second-difference floor on x: the whole sample is tested
    assert scan["n_points"] == len(generator_x_sample(spec, GRID))


def test_dtp2_falls_back_to_second_differences_without_psi_second():
    spec = replace(builtin_archimedean("gumbel", alpha=3.0), psi_second=None)
    dtp2 = classify_archimedean(spec, GRID).dtp2
    assert dtp2.status is Status.HOLDS
    scan = dtp2.certificate["scan"]
    assert (scan["tol_eq"], scan["tol_strict"]) == (1e-6, 1e-5)
    assert scan["n_points"] < len(generator_x_sample(spec, GRID))
    spreeuw = replace(builtin_archimedean("spreeuw"), psi_second=None)
    assert classify_archimedean(spreeuw, GRID).dtp2.status is Status.FAILS


def test_gumbel_rejects_nan_alpha():
    with pytest.raises(ValidationError, match="alpha >= 1"):
        builtin_archimedean("gumbel", alpha=float("nan"))


def test_gumbel_rejects_infinite_alpha():
    with pytest.raises(ValidationError, match="parameter 'alpha' must be finite, got inf"):
        builtin_archimedean("gumbel", alpha=float("inf"))


def test_w_kernel_zero_is_positive_zero():
    # 0 / D-psi(phi(u)) < 0 is -0.0; the kernel must not report it
    spec = builtin_archimedean("w")
    assert np.copysign(1.0, arch_copula(spec).kernel(0.3, 0.5)) == 1.0
    grid = arch_copula(spec).kernel(np.linspace(0.05, 0.95, 19)[:, None], np.linspace(0.05, 0.95, 19)[None, :])
    assert np.any(grid == 0.0) and not np.any(np.signbit(grid))


def test_report_implication_chain():
    for name, kw in [("gumbel", {"alpha": 2.0}), ("gumbel", {"alpha": 1.0}), ("spreeuw", {}), ("w", {})]:
        report = classify_archimedean(builtin_archimedean(name, **kw), GRID)
        if report.mktp2_si.status is Status.HOLDS:
            assert report.tp2_ltd.status is Status.HOLDS
        if report.dtp2.status is Status.HOLDS:
            assert report.mktp2_si.status is Status.HOLDS


def test_classifier_consistency_with_grid_checks():
    # classifier says MK-TP2 holds -> the direct kernel scan finds no defect
    gumbel = builtin_archimedean("gumbel", alpha=2.0)
    assert check_mktp2(arch_copula(gumbel), GRID).status is Status.HOLDS
    # classifier says it fails -> the direct SI scan fails too
    spreeuw = builtin_archimedean("spreeuw")
    assert check_si(arch_copula(spreeuw), GRID).status is Status.FAILS


def test_classification_invariant_under_generator_scaling():
    base = builtin_archimedean("spreeuw")
    scaled = make_generator(
        phi=lambda t: 3.0 * np.asarray(base.phi(t), dtype=float),
        smoothness=base.smoothness,
        label="spreeuw-x3",
    )
    r1 = classify_archimedean(base, GRID)
    r2 = classify_archimedean(scaled, GRID)
    assert r1.tp2_ltd.status == r2.tp2_ltd.status
    assert r1.mktp2_si.status == r2.mktp2_si.status


@pytest.mark.parametrize("theta", [0.5, 2.0, 8.0])
def test_phi_only_clayton_is_si_and_mktp2(theta):
    # D-psi of the bisected psi is 1 / phi'(psi(x)); Clayton theta > 0 is SI,
    # and SI <-> MK-TP2 for Archimedean copulas
    spec = make_generator(phi=lambda t: (np.power(np.asarray(t, dtype=float), -theta) - 1.0) / theta)
    assert spec.strict and not spec.exact_derivative
    xs = generator_x_sample(spec, GRID)
    exact = -np.power(1.0 + theta * xs, -1.0 / theta - 1.0)
    assert np.max(np.abs(spec.d_minus_psi(xs) / exact - 1.0)) <= 1e-8
    table = property_verdicts(spec, GRID, ("si", "mktp2"))
    for prop in ("si", "mktp2"):
        assert table[prop].status is Status.HOLDS, prop
        assert table[prop].certificate["derivative"] == "finite-difference", prop


def test_phi_only_nonstrict_keeps_its_dminus_psi_jump():
    spec = make_generator(phi=lambda t: 1.0 - np.asarray(t, dtype=float))
    assert not spec.strict and spec.phi_at_zero == 1.0
    # D-psi is -1 on (0, phi(0)) and 0 from phi(0) on
    assert np.allclose(spec.d_minus_psi(np.array([0.25, 0.5, 0.999])), -1.0, rtol=1e-6, atol=0.0)
    assert np.array_equal(spec.d_minus_psi(np.array([0.0, 1.0, 1.5, np.inf])), np.zeros(4))
    assert scan_dminus_psi_continuity(spec).status is Status.FAILS
    copula = arch_copula(spec)
    table = property_verdicts(spec, GRID, ("si", "mktp2"))
    for prop in ("si", "mktp2"):
        verdict = table[prop]
        assert verdict.status is Status.FAILS, prop
        assert verdict.certificate["derivative"] == "finite-difference", prop
        defect, _ = rectangle_defect(copula, prop, verdict.witness.rectangle())
        assert defect > GRID.tol_strict, prop


def test_x_sample_is_sorted_positive():
    xs = generator_x_sample(builtin_archimedean("gumbel", alpha=4.0), GRID)
    assert np.all(xs > 0.0)
    assert np.all(np.diff(xs) > 0.0)


def test_property_table_for_cli():
    table = property_verdicts(builtin_archimedean("gumbel", alpha=2.0), GRID)
    assert {k: v.status for k, v in table.items()} == {
        "pqd": Status.HOLDS,
        "ltd": Status.HOLDS,
        "si": Status.HOLDS,
        "tp2": Status.HOLDS,
        "mktp2": Status.HOLDS,
        "dtp2": Status.HOLDS,
    }
    table = property_verdicts(builtin_archimedean("w"), GRID)
    assert table["pqd"].status is Status.FAILS


# ---------------------------------------------------------------------------
# cross-module oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [1.5, 3.0])
def test_gumbel_kernels_agree_across_modules(alpha):
    gen = builtin_archimedean("gumbel", alpha=alpha)
    pick = builtin_pickands("gumbel", alpha=alpha)
    us = np.linspace(0.01, 0.99, 101)
    uu, vv = np.meshgrid(us, us, indexing="ij")
    gap = np.abs(
        np.asarray(arch_copula(gen).kernel(uu, vv)) - np.asarray(evc_copula(pick).kernel(uu, vv))
    )
    assert float(np.max(gap)) <= 1e-10
