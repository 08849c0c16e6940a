import math

import numpy as np
import pytest

from mktp2 import extreme_value
from mktp2.archimedean import arch_copula, builtin_archimedean
from mktp2.errors import SearchFailed, ValidationError
from mktp2.extreme_value import (
    beta_sup_argmin,
    builtin_pickands,
    cap_function,
    classify_evc,
    construct_witness_constant,
    construct_witness_gradient,
    construct_witness_jump,
    contour,
    detect_derivative_jumps,
    evc_copula,
    h_map,
    kernel_cross_ratio,
    property_verdicts,
    validate_pickands,
)
from mktp2.grids import GridConfig, Rectangle
from mktp2.properties import Status
from oracles import cross_ratio_identity_check

GRID = GridConfig()


def synthetic_plateau_spec():
    """Smooth-linear-smooth Pickands function with cap plateau 0.9 on [0.2, 0.4]."""

    def A(t):
        t = np.asarray(t, dtype=float)
        left = 1.0 - t + 2.5 * t * t
        mid = np.full_like(t, 0.9)
        right = 0.9 + (0.1 / 0.36) * np.square(t - 0.4)
        return np.where(t < 0.2, left, np.where(t < 0.4, mid, right))

    def dA(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.2, -1.0 + 5.0 * t, np.where(t < 0.4, 0.0, (0.2 / 0.18) * (t - 0.4)))

    return validate_pickands(
        A, d_plus_A=dA, declared_jumps=(), smoothness="generic", t_star=0.0, label="syn-plateau"
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_independence_and_envelope():
    spec = validate_pickands(lambda t: np.ones_like(np.asarray(t, dtype=float)))
    assert spec.t_star == 0.0
    assert float(spec.d_plus_A(0.4)) == pytest.approx(0.0, abs=1e-9)

    env = validate_pickands(
        lambda t: np.maximum(1.0 - np.asarray(t, dtype=float), np.asarray(t, dtype=float))
    )
    assert env.t_star == pytest.approx(0.5, abs=2e-3)


def test_validate_rejects_oversteep_parabola():
    with pytest.raises(ValidationError):
        validate_pickands(
            lambda t: 1.5 * np.square(np.asarray(t, dtype=float))
            - 1.5 * np.asarray(t, dtype=float)
            + 1.0
        )


def test_validate_rejects_nonconvex():
    with pytest.raises(ValidationError):
        validate_pickands(
            lambda t: 1.0 - 0.4 * np.sin(np.pi * np.asarray(t, dtype=float)) ** 0.5
        )


# ---------------------------------------------------------------------------
# built-in families: exact cap values
# ---------------------------------------------------------------------------


def test_mo_cap_is_indicator_for_beta_one():
    spec = builtin_pickands("marshall-olkin", alpha=1.0, beta=1.0)
    assert cap_function(spec, 0.2) == 0.0
    assert cap_function(spec, 0.6) == 1.0
    assert spec.t_star == pytest.approx(0.5)


def test_tawn_cap_closed_form():
    spec = builtin_pickands("tawn-symmetric", theta=1.0)
    assert cap_function(spec, 0.5) == pytest.approx(0.75, abs=1e-15)
    ts = np.linspace(0.01, 0.99, 99)
    assert np.allclose(cap_function(spec, ts), ts * (2.0 - ts), atol=1e-14)


def test_jump_example_cap_plateau():
    spec = builtin_pickands("jump-example")
    assert cap_function(spec, 0.2) == pytest.approx(7.0 / 16.0, abs=1e-15)
    assert cap_function(spec, 0.1) == 0.0
    assert cap_function(spec, 0.5) == pytest.approx(0.75, abs=1e-15)


def test_log_example_cap_value():
    spec = builtin_pickands("log-example")
    s_half = 2.0 * 0.5**1.5
    want = (2.0 / 3.0) * math.log(s_half) + math.sqrt(0.5) / s_half
    assert cap_function(spec, 0.5) == pytest.approx(want, abs=1e-14)
    assert want == pytest.approx(0.768951, abs=1e-6)


def test_builtin_pickands_rejects_bad_names_and_parameters():
    with pytest.raises(ValidationError, match="alpha >= 1"):
        builtin_pickands("evc-gumbel", alpha=float("nan"))
    with pytest.raises(ValidationError, match="unknown pickands family 'nosuch'"):
        builtin_pickands("nosuch")
    for name, params in [("evc-gumbel", {"alpha": float("inf")}), ("tawn-mix", {"kappa": -float("inf")})]:
        with pytest.raises(ValidationError, match=f"parameter '{next(iter(params))}' must be finite"):
            builtin_pickands(name, **params)
    with pytest.raises(ValidationError, match=r"tawn-mix got unexpected parameters \['alpha'\]"):
        builtin_pickands("tawn-mix", theta=0.5, alpha=2.0)


def test_gumbel_cap_symmetry_point():
    spec = builtin_pickands("gumbel", alpha=2.0)
    assert cap_function(spec, 0.5) == pytest.approx(2.0 ** (-0.5), abs=1e-14)


def test_cap_matches_defining_sum(any_copula=None):
    # stable closed forms agree with A + (1-t) D+A wherever the sum is benign
    ts = np.linspace(0.3, 0.95, 101)
    for name, kw in [
        ("gumbel", {"alpha": 3.0}),
        ("tawn-asym-mixed", {"theta": 1.25, "kappa": -0.25}),
        ("log-example", {}),
    ]:
        spec = builtin_pickands(name, **kw)
        generic = np.asarray(spec.A(ts)) + (1.0 - ts) * np.asarray(spec.d_plus_A(ts))
        assert np.allclose(cap_function(spec, ts), generic, atol=1e-12)


def test_cap_nondecreasing_nonnegative():
    ts = np.linspace(0.0, 1.0, 2001)
    for name, kw in [
        ("gumbel", {"alpha": 2.0}),
        ("marshall-olkin", {"alpha": 0.5, "beta": 0.5}),
        ("tawn-symmetric", {"theta": 0.7}),
        ("tawn-asym-mixed", {"theta": 0.5, "kappa": 0.1}),
        ("log-example", {}),
        ("jump-example", {}),
    ]:
        fs = np.asarray(cap_function(builtin_pickands(name, **kw), ts), dtype=float)
        assert float(np.min(fs)) >= 0.0
        assert float(np.min(np.diff(fs))) >= -1e-12


def test_derivative_bound_sanity():
    with pytest.raises(ValidationError):
        builtin_pickands("tawn-symmetric", theta=1.2)
    with pytest.raises(ValidationError):
        builtin_pickands("tawn-asym-mixed", theta=0.5, kappa=0.6)
    with pytest.raises(ValidationError):
        builtin_pickands("marshall-olkin", alpha=1.5, beta=0.5)


# ---------------------------------------------------------------------------
# h and contours
# ---------------------------------------------------------------------------


def test_h_map_values():
    assert h_map(0.5, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert h_map(0.25, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-14)
    us = np.linspace(0.05, 0.95, 19)
    assert np.allclose(contour(0.5, us), us, atol=1e-15)
    for t in (0.1, 0.37, 0.5, 0.82):
        assert np.max(np.abs(h_map(us, contour(t, us)) - t)) <= 1e-12


def test_h_monotonicity():
    us = np.linspace(0.05, 0.95, 50)
    assert np.all(np.diff(h_map(us, 0.4)) < 0.0)
    assert np.all(np.diff(h_map(0.4, us)) > 0.0)


def test_cross_ratio_identity_examples():
    assert cross_ratio_identity_check(1.0, Rectangle(0.3, 0.6, 0.4, 0.7)) == pytest.approx(
        1.0, abs=1e-12
    )
    assert cross_ratio_identity_check(0.0, Rectangle(0.2, 0.8, 0.1, 0.9)) == 1.0
    assert cross_ratio_identity_check(-2.5, Rectangle(0.1, 0.2, 0.8, 0.9)) == pytest.approx(
        1.0, abs=1e-12
    )


# ---------------------------------------------------------------------------
# cdf / kernel
# ---------------------------------------------------------------------------


def test_evc_cdf_and_kernel_special_cases():
    indep = builtin_pickands("gumbel", alpha=1.0)
    assert evc_copula(indep).kernel(0.4, 0.7) == pytest.approx(0.7, abs=1e-15)
    m = builtin_pickands("marshall-olkin", alpha=1.0, beta=1.0)
    assert evc_copula(m).cdf(0.3, 0.5) == pytest.approx(0.3, abs=1e-14)
    g2 = builtin_pickands("gumbel", alpha=2.0)
    want = float(arch_copula(builtin_archimedean("gumbel", alpha=2.0)).kernel(0.5, 0.5))
    assert evc_copula(g2).kernel(0.5, 0.5) == pytest.approx(want, abs=1e-13)


def test_every_evc_is_si_on_grids():
    us = np.linspace(0.01, 0.99, 201)
    vs = np.linspace(0.01, 0.99, 51)
    for name, kw in [
        ("gumbel", {"alpha": 3.0}),
        ("marshall-olkin", {"alpha": 0.5, "beta": 0.5}),
        ("tawn-symmetric", {"theta": 0.4}),
        ("log-example", {}),
        ("jump-example", {}),
    ]:
        spec = builtin_pickands(name, **kw)
        uu, vv = np.meshgrid(us, vs, indexing="ij")
        ker = np.asarray(evc_copula(spec).kernel(uu, vv), dtype=float)
        assert float(np.max(np.diff(ker, axis=0))) <= 1e-12, name


def test_evc_cdf_is_tp2_on_random_rectangles():
    rng = np.random.Generator(np.random.Philox(key=77))
    from conftest import random_rectangles

    u1, u2, v1, v2 = random_rectangles(rng, 100_000, lo=0.005, hi=0.995)
    for name, kw in [
        ("gumbel", {"alpha": 2.0}),
        ("marshall-olkin", {"alpha": 0.5, "beta": 0.5}),
        ("tawn-symmetric", {"theta": 1.0}),
        ("log-example", {}),
        ("jump-example", {}),
    ]:
        spec = builtin_pickands(name, **kw)
        cdf = evc_copula(spec).cdf
        det = np.asarray(cdf(u1, v1)) * np.asarray(cdf(u2, v2))
        det -= np.asarray(cdf(u1, v2)) * np.asarray(cdf(u2, v1))
        assert float(np.min(det)) >= -1e-12, name


# ---------------------------------------------------------------------------
# classification tree
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,kw,branch,status",
    [
        ("tawn-symmetric", {"theta": 0.0}, "1", Status.HOLDS),
        ("tawn-symmetric", {"theta": 0.2}, "2", Status.FAILS),
        ("tawn-symmetric", {"theta": 1.0}, "3d", Status.HOLDS),
        ("marshall-olkin", {"alpha": 0.7, "beta": 1.0}, "3d", Status.HOLDS),
        ("marshall-olkin", {"alpha": 0.5, "beta": 0.5}, "2", Status.FAILS),
        ("marshall-olkin", {"alpha": 1.0, "beta": 1.0}, "3d", Status.HOLDS),
        ("gumbel", {"alpha": 2.0}, "3d", Status.HOLDS),
        ("tawn-asym-mixed", {"theta": 1.25, "kappa": -0.25}, "3d", Status.HOLDS),
        ("log-example", {}, "3e", Status.FAILS),
        ("jump-example", {}, "3c", Status.FAILS),
    ],
)
def test_classification_tree(name, kw, branch, status):
    report = classify_evc(builtin_pickands(name, **kw), GRID)
    assert report.branch == branch
    assert report.mktp2.status is status
    assert report.tp2.status is Status.HOLDS
    assert report.si.status is Status.HOLDS
    if status is Status.FAILS:
        witness = report.mktp2.witness
        ratio = kernel_cross_ratio(builtin_pickands(name, **kw), witness.rectangle())
        assert ratio < 1.0 - GRID.tol_strict


def two_kink_spec(declared_jumps=(0.2, 0.5)):
    """Piecewise linear A with derivative jumps at 0.2 and 0.5 (branch 3a)."""

    def A(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.2, 1.0 - t, np.where(t < 0.5, 0.9 - 0.5 * t, 0.3 + 0.7 * t))

    def dA(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.2, -1.0, np.where(t < 0.5, -0.5, 0.7))

    return validate_pickands(
        A, d_plus_A=dA, declared_jumps=declared_jumps, smoothness="generic", t_star=0.2
    )


def curved_kink_spec(declared_jumps=(0.4,)):
    """Smooth curvature before the single derivative jump at 0.4 (branch 3b)."""
    slope = 0.32 / 0.6

    def A(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.4, 1.0 - t + 0.5 * t * t, 0.68 + slope * (t - 0.4))

    def dA(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.4, -1.0 + t, slope)

    return validate_pickands(
        A, d_plus_A=dA, declared_jumps=declared_jumps, smoothness="generic", t_star=0.0
    )


def test_two_jump_pickands_fails():
    report = classify_evc(two_kink_spec(), GRID)
    assert report.branch == "3a"
    assert report.mktp2.status is Status.FAILS


def test_one_jump_with_curvature_fails():
    report = classify_evc(curved_kink_spec(), GRID)
    assert report.branch == "3b"
    assert report.mktp2.status is Status.FAILS


# ---------------------------------------------------------------------------
# witness-failure policy: a failed construction reads as inconclusive, except
# for declared jumps, where it contradicts A and propagates
# ---------------------------------------------------------------------------

FAILURES = [SearchFailed("out of budget", last_ratio=1.0), ValidationError("cap does not jump upward")]


def _raise(error):
    def construct(*args, **kwargs):
        raise error

    return construct


def _assert_inconclusive(report, branch, method, note_prefix, error):
    assert report.branch == branch
    assert report.mktp2.status is Status.INCONCLUSIVE
    assert report.mktp2.witness is None
    assert report.mktp2.certificate == {"method": method}
    assert report.mktp2.note == f"{note_prefix}: {error}"


@pytest.mark.parametrize("error", FAILURES, ids=lambda e: type(e).__name__)
@pytest.mark.parametrize(
    "name,kw",
    [("tawn-symmetric", {"theta": 0.2}), ("marshall-olkin", {"alpha": 0.5, "beta": 0.5})],
    ids=["gradient", "jump"],
)
def test_failed_slope_at_zero_witness_is_inconclusive(monkeypatch, error, name, kw):
    monkeypatch.setattr(extreme_value, "construct_witness_gradient", _raise(error))
    monkeypatch.setattr(extreme_value, "construct_witness_jump", _raise(error))
    spec = builtin_pickands(name, **kw)
    d0 = float(spec.d_plus_A(0.0))
    report = classify_evc(spec, GRID)
    prefix = f"D+A(0) = {d0:.6g} rules out MK-TP2 but no witness was realized"
    _assert_inconclusive(report, "2", "analytic:slope-at-zero", prefix, error)


@pytest.mark.parametrize("error", FAILURES, ids=lambda e: type(e).__name__)
@pytest.mark.parametrize(
    "make_spec,branch,method",
    [(two_kink_spec, "3a", "numeric:two-jumps"), (curved_kink_spec, "3b", "numeric:one-jump-curved")],
    ids=["3a", "3b"],
)
def test_failed_jump_witness_policy(monkeypatch, error, make_spec, branch, method):
    monkeypatch.setattr(extreme_value, "construct_witness_jump", _raise(error))
    with pytest.raises(type(error)):
        classify_evc(make_spec(), GRID)
    report = classify_evc(make_spec(declared_jumps=None), GRID)
    prefix = "numeric jump evidence without a verified witness"
    _assert_inconclusive(report, branch, method, prefix, error)


@pytest.mark.parametrize("error", FAILURES, ids=lambda e: type(e).__name__)
def test_failed_plateau_witness_is_inconclusive(monkeypatch, error):
    monkeypatch.setattr(extreme_value, "construct_witness_constant", _raise(error))
    report = classify_evc(builtin_pickands("jump-example"), GRID)
    prefix = "plateau detected but no witness was realized"
    _assert_inconclusive(report, "3c", "analytic:cap-plateau", prefix, error)


# ---------------------------------------------------------------------------
# witness constructors
# ---------------------------------------------------------------------------


def test_gradient_witness_matches_derived_anchors():
    spec = builtin_pickands("tawn-symmetric", theta=0.2)
    beta = beta_sup_argmin(spec)
    assert beta == pytest.approx(1.0, abs=1e-4)
    alpha = 0.5 * beta
    f_beta = cap_function(spec, 1.0 / (1.0 + beta))
    f_alpha = cap_function(spec, 1.0 / (1.0 + alpha))
    g = lambda a: (1.0 + a) * float(spec.A(1.0 / (1.0 + a))) - a
    gamma = math.log(f_beta / f_alpha) / (g(alpha) - g(beta))
    assert gamma == pytest.approx(-0.8647, abs=2e-4)
    assert math.exp(gamma / 2.0) == pytest.approx(0.6490, abs=1e-4)

    witness = construct_witness_gradient(spec, GRID)
    assert witness.points[0] == pytest.approx(0.6490, abs=1e-3)
    ratio = kernel_cross_ratio(spec, witness.rectangle())
    assert ratio < 1.0 - 1e-6


def test_gradient_witness_other_theta():
    spec = builtin_pickands("tawn-symmetric", theta=0.5)
    witness = construct_witness_gradient(spec, GRID)
    assert kernel_cross_ratio(spec, witness.rectangle()) < 1.0 - 1e-6


def test_gradient_witness_rejects_flat_slope():
    with pytest.raises(ValidationError):
        construct_witness_gradient(builtin_pickands("gumbel", alpha=1.0), GRID)
    with pytest.raises(ValidationError):
        construct_witness_gradient(builtin_pickands("gumbel", alpha=2.0), GRID)


def test_jump_witness_marshall_olkin():
    spec = builtin_pickands("marshall-olkin", alpha=0.5, beta=0.5)
    witness = construct_witness_jump(spec, 0.25, 0.5, GRID)
    ratio = kernel_cross_ratio(spec, witness.rectangle())
    assert ratio < 1.0 - 1e-6
    # the limiting ratio is y/(y + jump) = 0.5/(0.5 + 0.5)
    assert ratio == pytest.approx(0.5, abs=1e-6)


def test_jump_witness_preconditions():
    smooth = builtin_pickands("tawn-symmetric", theta=0.5)
    with pytest.raises(ValidationError):
        construct_witness_jump(smooth, 0.2, 0.5, GRID)
    # the piecewise example's only jump has zero left limit: inadmissible here
    jumpy = builtin_pickands("jump-example")
    with pytest.raises(ValidationError):
        construct_witness_jump(jumpy, 0.05, 0.125, GRID)


def test_constant_witness_jump_example():
    spec = builtin_pickands("jump-example")
    witness = construct_witness_constant(spec, 0.125, 0.25, 7.0 / 16.0, GRID)
    assert kernel_cross_ratio(spec, witness.rectangle()) < 1.0 - 1e-6


def test_constant_witness_synthetic_plateau():
    spec = synthetic_plateau_spec()
    assert beta_sup_argmin(spec) == pytest.approx(4.0, abs=1e-3)
    witness = construct_witness_constant(spec, 0.3, 0.4, 0.9, GRID)
    assert kernel_cross_ratio(spec, witness.rectangle()) < 1.0 - 1e-6
    report = classify_evc(spec, GRID)
    assert report.branch == "3c"
    assert report.mktp2.status is Status.FAILS


def test_constant_witness_rejects_jumpy_cap():
    mo = builtin_pickands("marshall-olkin", alpha=0.5, beta=0.5)
    with pytest.raises(ValidationError):
        construct_witness_constant(mo, 0.2, 0.4, 0.5, GRID)


def test_detect_derivative_jumps_numeric():
    jumps = detect_derivative_jumps(builtin_pickands("jump-example").A)
    assert len(jumps) == 1
    assert jumps[0] == pytest.approx(0.125, abs=5e-3)
    assert detect_derivative_jumps(builtin_pickands("gumbel", alpha=2.0).A) == ()


@pytest.mark.parametrize("alpha,beta", [(0.3, 0.8), (0.7, 0.9), (0.45, 0.55)])
def test_detect_derivative_jumps_between_grid_points(alpha, beta):
    # none of these jumps lies within 1e-5 of one of the 2001 scan points
    jumps = detect_derivative_jumps(builtin_pickands("marshall-olkin", alpha=alpha, beta=beta).A)
    assert len(jumps) == 1
    assert jumps[0] == pytest.approx(alpha / (alpha + beta), abs=1e-6)


@pytest.mark.parametrize("declared", [True, False])
def test_jump_witness_when_the_contour_rounds_left_of_the_jump(declared):
    from dataclasses import replace

    # h(0.5, contour(t, 0.5)) can round one ulp below t, e.g. at t = 0.45, 0.1, 5/6 and 0.625
    for alpha in (0.1, 0.3, 0.45, 0.5, 0.7, 0.9):
        for beta in (0.1, 0.3, 0.5, 0.55, 0.7, 0.9):
            spec = builtin_pickands("marshall-olkin", alpha=alpha, beta=beta)
            if not declared:
                spec = replace(spec, declared_jumps=None)
            report = classify_evc(spec, GRID)
            assert report.branch == "2"
            assert report.mktp2.status is Status.FAILS, (alpha, beta)
            assert kernel_cross_ratio(spec, report.mktp2.witness.rectangle()) < 1.0 - GRID.tol_strict


def test_property_table_contains_dtp2():
    table = property_verdicts(builtin_pickands("marshall-olkin", alpha=0.5, beta=0.5), GRID)
    assert table["dtp2"].status is Status.NOT_APPLICABLE
    assert table["mktp2"].status is Status.FAILS
    assert table["tp2"].status is Status.HOLDS


def test_classification_without_declared_metadata():
    from dataclasses import replace

    # numeric jump detection still yields verified witnesses
    mo = replace(
        builtin_pickands("marshall-olkin", alpha=0.5, beta=0.5), declared_jumps=None, t_star=0.0
    )
    report = classify_evc(mo, GRID)
    assert report.branch == "2"
    assert report.mktp2.status is Status.FAILS
    assert report.mktp2.witness is not None

    jumpy = replace(builtin_pickands("jump-example"), declared_jumps=None, t_star=0.125)
    report = classify_evc(jumpy, GRID)
    assert report.branch == "3c"
    assert report.mktp2.status is Status.FAILS
