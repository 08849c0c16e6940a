import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mktp2 import extreme_value
from mktp2.archimedean import arch_copula, builtin_archimedean
from mktp2.cli import main
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
    evc_copula,
    h_map,
    kernel_cross_ratio,
    property_verdicts,
    validate_pickands,
)
from mktp2.grids import GridConfig, Rectangle
from mktp2.properties import Status, rectangle_defect
from mktp2.registry import build
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
        A, d_plus_A=dA, declared_jumps=(), t_star=0.0, label="syn-plateau"
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _t(t):
    return np.asarray(t, dtype=float)


def _zero(t):
    return np.zeros_like(_t(t))


def test_validate_independence_and_envelope():
    spec = validate_pickands(lambda t: np.ones_like(_t(t)), _zero)
    assert spec.t_star == 0.0
    assert spec.declared_jumps == ()
    assert float(spec.d_plus_A(0.4)) == 0.0

    env = validate_pickands(
        lambda t: np.maximum(1.0 - _t(t), _t(t)),
        lambda t: np.where(_t(t) < 0.5, -1.0, 1.0),
        declared_jumps=(0.5,),
    )
    assert env.t_star == pytest.approx(0.5, abs=2e-3)
    assert env.declared_jumps == (0.5,)


def test_validate_bisects_t_star_on_the_declared_derivative():
    # D+A = -1 on [0, 0.3), then the line from (0.3, 0.7) up to (1, 1)
    spec = validate_pickands(
        lambda t: np.where(_t(t) < 0.3, 1.0 - _t(t), 0.7 + (0.3 / 0.7) * (_t(t) - 0.3)),
        lambda t: np.where(_t(t) < 0.3, -1.0, 0.3 / 0.7),
        declared_jumps=(0.3,),
    )
    assert abs(spec.t_star - 0.3) <= 2.0**-52
    assert validate_pickands(lambda t: np.ones_like(_t(t)), _zero).t_star == 0.0


def test_validate_rejects_oversteep_parabola():
    with pytest.raises(ValidationError, match=r"falls below max\(1-t, t\)"):
        validate_pickands(lambda t: 1.5 * np.square(_t(t)) - 1.5 * _t(t) + 1.0, lambda t: 3.0 * _t(t) - 1.5)


def test_validate_rejects_nonconvex():
    # sin(pi) rounds to 1.2e-16, so this A misses A(1) = 1 before any other check
    with pytest.raises(ValidationError, match=r"A\(0\) and A\(1\) must equal 1"):
        validate_pickands(
            lambda t: 1.0 - 0.4 * np.sin(np.pi * _t(t)) ** 0.5,
            lambda t: -0.2 * np.pi * np.cos(np.pi * _t(t)) / np.sqrt(np.sin(np.pi * _t(t))),
        )
    # inside the envelope, concave near t = 0
    with pytest.raises(ValidationError, match="A is not convex at t=0.001"):
        validate_pickands(
            lambda t: 1.0 - 0.2 * np.square(np.sin(2.0 * np.pi * _t(t))),
            lambda t: -0.4 * np.pi * np.sin(4.0 * np.pi * _t(t)),
        )


@pytest.mark.parametrize("d_plus_A", [None, 0.0], ids=["missing", "not-callable"])
def test_validate_requires_a_callable_derivative(d_plus_A):
    with pytest.raises(ValidationError, match="d_plus_A must be a callable"):
        validate_pickands(lambda t: np.ones_like(_t(t)), d_plus_A)


def test_validate_rejects_undeclared_jumps():
    with pytest.raises(ValidationError, match="declared_jumps must list the jumps"):
        validate_pickands(lambda t: np.ones_like(_t(t)), _zero, declared_jumps=None)


@pytest.mark.parametrize(
    "jumps", [(0.5, 0.2), (0.3, 0.3), (0.0,), (1.0,), (0.5, 1.5), (float("nan"),)],
    ids=["decreasing", "repeated", "at-0", "at-1", "beyond-1", "nan"],
)
def test_validate_rejects_jumps_not_increasing_inside_the_unit_interval(jumps):
    with pytest.raises(ValidationError, match=r"declared_jumps must increase strictly inside \(0, 1\)"):
        validate_pickands(lambda t: np.ones_like(_t(t)), _zero, declared_jumps=jumps)


@pytest.mark.parametrize("flag", [{"smoothness": "C3-on-interior"}, {"absolutely_continuous": True}], ids=str)
def test_validate_takes_no_derived_flags(flag):
    with pytest.raises(TypeError, match=next(iter(flag))):
        validate_pickands(lambda t: np.ones_like(_t(t)), _zero, **flag)


@pytest.mark.parametrize("second", [2.0, "A''"], ids=["float", "str"])
def test_validate_requires_a_callable_second_derivative(second):
    with pytest.raises(ValidationError, match="second must be a callable"):
        validate_pickands(lambda t: np.ones_like(_t(t)), _zero, second=second)
    assert validate_pickands(lambda t: np.ones_like(_t(t)), _zero, second=_zero).second is _zero


def _tawn_one_spec():
    """tawn-sym(theta = 1) built by a user: A = 1 - t + t^2, A'' = 2, no jump."""
    return validate_pickands(
        lambda t: 1.0 - _t(t) + np.square(_t(t)),
        lambda t: 2.0 * _t(t) - 1.0,
        second=lambda t: np.full_like(_t(t), 2.0),
    )


def _kinked_line_spec():
    """Marshall-Olkin (2/3, 1) built by a user: A = 1 - t up to t* = 0.4, then a
    line up to (1, 1); A'' = 0 off the one jump at t*."""
    return validate_pickands(
        lambda t: np.where(_t(t) < 0.4, 1.0 - _t(t), 0.6 + (_t(t) - 0.4) * (2.0 / 3.0)),
        lambda t: np.where(_t(t) < 0.4, -1.0, 2.0 / 3.0),
        declared_jumps=(0.4,),
        second=_zero,
    )


def test_declared_second_derivative_without_jumps_gives_density_and_3d():
    spec = _tawn_one_spec()
    density = evc_copula(spec).density
    assert density is not None
    u, v = np.meshgrid(np.linspace(0.05, 0.95, 7), np.linspace(0.05, 0.95, 7), indexing="ij")
    want = evc_copula(builtin_pickands("tawn-symmetric", theta=1.0)).density(u, v)
    np.testing.assert_allclose(density(u, v), want, rtol=1e-12)
    branch, verdict = classify_evc(spec, GRID)
    assert (branch, verdict.status, verdict.certificate["method"]) == ("3d", Status.HOLDS, "analytic:monotone-ratio")


def test_declared_jump_takes_the_density_away():
    spec = _kinked_line_spec()
    assert spec.t_star == pytest.approx(0.4, abs=2.0**-52)
    assert evc_copula(spec).density is None
    # the jump is t*, so the tree still reaches 3d, as at Marshall-Olkin beta = 1
    assert classify_evc(spec, GRID)[0] == "3d"


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
    spec = builtin_pickands(name, **kw)
    got, verdict = classify_evc(spec, GRID)
    assert got == branch
    assert verdict.status is status
    table = property_verdicts(spec, GRID, ("tp2", "si"))
    assert table["tp2"].status is Status.HOLDS
    assert table["si"].status is Status.HOLDS
    if status is Status.FAILS:
        witness = verdict.witness
        ratio = kernel_cross_ratio(builtin_pickands(name, **kw), witness.rectangle())
        assert ratio < 1.0 - GRID.tol_strict


MO_EDGE = {"alpha": 0.5, "beta": 1.0 - 5e-10}


# (family, params, grid, density is None, branch 3d ran) as the removed flags
# `smoothness` and `absolutely_continuous` decided them, on every registry EVC
# setting the goldens pin and on Marshall-Olkin at independence and beta = 1;
# both now follow from A'' and the jumps
DERIVED_FROM_DECLARATIONS = [
    ("evc-gumbel", {"alpha": 2.0}, 64, False, True),
    ("mo", {"alpha": 0.5, "beta": 0.5}, 64, True, False),
    ("mo", {"alpha": 0.7, "beta": 1.0}, 64, True, True),
    ("mo", {"alpha": 0.5, "beta": 1.0}, 4, True, True),
    ("mo", {"alpha": 0.0, "beta": 0.5}, 64, False, False),
    ("mo", MO_EDGE, 64, True, False),
    ("mo", MO_EDGE, 4, True, False),
    ("tawn-sym", {"theta": 0.2}, 64, False, False),
    ("tawn-sym", {"theta": 1.0}, 64, False, True),
    ("tawn-mix", {"theta": 1.25, "kappa": -0.25}, 64, False, True),
    ("evc-log", None, 64, False, True),
    ("evc-jump", None, 64, True, False),
    ("evc-jump", None, 4, True, False),
]


@pytest.mark.parametrize("name, params, n, density_none, ran_3d", DERIVED_FROM_DECLARATIONS)
def test_density_and_branch_3d_follow_the_declarations(monkeypatch, name, params, n, density_none, ran_3d):
    calls = []
    ratio_test = extreme_value._ratio_test
    monkeypatch.setattr(extreme_value, "_ratio_test", lambda *a: calls.append(a) or ratio_test(*a))
    _, spec, copula = build(name, params)
    classify_evc(spec, GridConfig(n_u=n, n_v=n))
    assert (copula.density is None, bool(calls)) == (density_none, ran_3d)


@pytest.mark.parametrize("spec", [
    builtin_pickands("marshall-olkin", **MO_EDGE),
    builtin_pickands("marshall-olkin", alpha=0.5, beta=0.5),
    builtin_pickands("jump-example"),
], ids=repr)
def test_singular_families_declare_no_second_derivative(spec):
    # neither has a density to read an A''; at Marshall-Olkin beta = 1 - 5e-10,
    # whose D+A(0) = -beta the tree rounds onto -1, one would certify MK-TP2 in 3d
    assert spec.second is None
    for n in (4, 64):
        assert classify_evc(spec, GridConfig(n_u=n, n_v=n))[1].status is not Status.HOLDS


def two_kink_spec():
    """Piecewise linear A with derivative jumps at 0.2 and 0.5 (branch 3a)."""

    def A(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.2, 1.0 - t, np.where(t < 0.5, 0.9 - 0.5 * t, 0.3 + 0.7 * t))

    def dA(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.2, -1.0, np.where(t < 0.5, -0.5, 0.7))

    return validate_pickands(A, d_plus_A=dA, declared_jumps=(0.2, 0.5), t_star=0.2)


def curved_kink_spec():
    """Smooth curvature before the single derivative jump at 0.4 (branch 3b)."""
    slope = 0.32 / 0.6

    def A(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.4, 1.0 - t + 0.5 * t * t, 0.68 + slope * (t - 0.4))

    def dA(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.4, -1.0 + t, slope)

    return validate_pickands(A, d_plus_A=dA, declared_jumps=(0.4,), t_star=0.0)


def test_two_jump_pickands_fails():
    branch, verdict = classify_evc(two_kink_spec(), GRID)
    assert branch == "3a"
    assert verdict.status is Status.FAILS


def test_one_jump_with_curvature_fails():
    branch, verdict = classify_evc(curved_kink_spec(), GRID)
    assert branch == "3b"
    assert verdict.status is Status.FAILS


# ---------------------------------------------------------------------------
# witness-failure policy: a failed construction reads as inconclusive, except
# at the jumps of branches 3a and 3b, where it contradicts A and propagates
# ---------------------------------------------------------------------------

FAILURES = [SearchFailed("out of budget", last_defect=0.0), ValidationError("cap does not jump upward")]


def _raise(error):
    def construct(*args, **kwargs):
        raise error

    return construct


def _assert_inconclusive(classified, branch, method, note_prefix, error):
    got, verdict = classified
    assert got == branch
    assert verdict.status is Status.INCONCLUSIVE
    assert verdict.witness is None
    assert verdict.certificate == {"method": method}
    assert verdict.note == f"{note_prefix}: {error}"


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
    classified = classify_evc(spec, GRID)
    prefix = f"D+A(0) = {d0:.6g} rules out MK-TP2 but no witness was realized"
    _assert_inconclusive(classified, "2", "analytic:slope-at-zero", prefix, error)


@pytest.mark.parametrize("error", FAILURES, ids=lambda e: type(e).__name__)
@pytest.mark.parametrize("make_spec", [two_kink_spec, curved_kink_spec], ids=["3a", "3b"])
def test_failed_jump_witness_policy(monkeypatch, error, make_spec):
    monkeypatch.setattr(extreme_value, "construct_witness_jump", _raise(error))
    with pytest.raises(type(error)):
        classify_evc(make_spec(), GRID)


@pytest.mark.parametrize("error", FAILURES, ids=lambda e: type(e).__name__)
def test_failed_plateau_witness_is_inconclusive(monkeypatch, error):
    monkeypatch.setattr(extreme_value, "construct_witness_constant", _raise(error))
    classified = classify_evc(builtin_pickands("jump-example"), GRID)
    prefix = "plateau detected but no witness was realized"
    _assert_inconclusive(classified, "3c", "analytic:cap-plateau", prefix, error)


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


def _no_A(t):
    raise AssertionError("beta_sup_argmin reads D+A alone")


@pytest.mark.parametrize("theta", [1e-4, 0.2, 0.9])
def test_beta_sup_argmin_is_exact_on_tawn_symmetric(theta):
    # D+A(t) = theta (2t - 1) turns non-negative at t = 1/2, so beta = 1
    spec = replace(builtin_pickands("tawn-symmetric", theta=theta), A=_no_A)
    assert beta_sup_argmin(spec) == 1.0


@pytest.mark.parametrize("theta, kappa", [(0.3, 0.1), (0.5, -0.1), (0.2, 0.3), (0.7, -0.2), (0.8, 0.05)])
def test_beta_sup_argmin_matches_the_tawn_mixed_root(theta, kappa):
    # 1/t - 1 at the root in (0, 1) of D+A(t) = -(theta + kappa) + 2 theta t + 3 kappa t^2
    spec = replace(builtin_pickands("tawn-asym-mixed", theta=theta, kappa=kappa), A=_no_A)
    t = (theta + kappa) / (theta + math.sqrt(theta * theta + 3.0 * kappa * (theta + kappa)))
    expected = 1.0 / t - 1.0
    assert abs(beta_sup_argmin(spec) - expected) <= 4.0 * np.spacing(expected)


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


def test_evc_jump_witness_searches_take_at_most_63_cap_evaluations(monkeypatch, capsys):
    # each search ends on two adjacent doubles, where 63 halvings of their integer keys end
    calls, searches = [0], []
    cap, search = extreme_value.cap_function, extreme_value.crossing

    def counted_cap(spec, t):
        calls[0] += 1
        return cap(spec, t)

    def counted_search(pred, lo, hi):
        before = calls[0]
        out = search(pred, lo, hi)
        searches.append(calls[0] - before)
        return out

    monkeypatch.setattr(extreme_value, "cap_function", counted_cap)
    monkeypatch.setattr(extreme_value, "crossing", counted_search)
    assert main(["witness", "--family", "evc-jump", "--property", "mktp2"]) == 0
    capsys.readouterr()
    assert searches and max(searches) <= 63, searches


def test_constant_witness_synthetic_plateau():
    spec = synthetic_plateau_spec()
    assert beta_sup_argmin(spec) == pytest.approx(4.0, abs=1e-3)
    witness = construct_witness_constant(spec, 0.3, 0.4, 0.9, GRID)
    assert kernel_cross_ratio(spec, witness.rectangle()) < 1.0 - 1e-6
    branch, verdict = classify_evc(spec, GRID)
    assert branch == "3c"
    assert verdict.status is Status.FAILS


def test_constant_witness_rejects_jumpy_cap():
    mo = builtin_pickands("marshall-olkin", alpha=0.5, beta=0.5)
    with pytest.raises(ValidationError):
        construct_witness_constant(mo, 0.2, 0.4, 0.5, GRID)


def test_jump_witness_when_the_contour_rounds_left_of_the_jump():
    # h(u1, contour(t, u1)) can round one ulp below t, e.g. at t = 0.6, 0.625, 1/3 and 6/17
    for alpha in (0.1, 0.3, 0.45, 0.5, 0.7, 0.9):
        for beta in (0.1, 0.3, 0.5, 0.55, 0.7, 0.9):
            spec = builtin_pickands("marshall-olkin", alpha=alpha, beta=beta)
            branch, verdict = classify_evc(spec, GRID)
            assert branch == "2"
            assert verdict.status is Status.FAILS, (alpha, beta)
            assert kernel_cross_ratio(spec, verdict.witness.rectangle()) < 1.0 - GRID.tol_strict


def test_property_table_contains_dtp2():
    table = property_verdicts(builtin_pickands("marshall-olkin", alpha=0.5, beta=0.5), GRID)
    assert table["dtp2"].status is Status.NOT_APPLICABLE
    assert table["mktp2"].status is Status.FAILS
    assert table["tp2"].status is Status.HOLDS


# ---------------------------------------------------------------------------
# one banding rule: every constructed witness re-checks above tol_strict
# ---------------------------------------------------------------------------


def _benchmark_range_specs():
    """The distinct Pickands specs of the analytic-verdicts jobs whose MK-TP2
    truth is fails, at seeds 0-19: per seed three Marshall-Olkin, two tawn-sym,
    one tawn-mix, one two-kinks and one curved-kink draw, and evc-log and
    evc-jump once."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import jobs
    import oracle

    specs = {}
    for seed in range(20):
        for job in jobs.build("analytic-verdicts", seed)["jobs"]:
            if job.get("command", "classify") == "classify" and oracle.truth(job).get("mktp2") == "fails":
                spec = oracle.Oracle._objects(job)[1]
                if spec is not None:
                    specs.setdefault(repr((job.get("family"), job.get("params"), job.get("lib"))), spec)
    return list(specs.values())


# Marshall-Olkin with the jump of its cap near t = 0 (small alpha) or near t = 1
# (small beta): the jump construction anchors at u1 = (1/2)^(2 t_r), so its
# corners stay in (1/4, 1) wherever the jump sits
MO_EDGES = [
    *((alpha, beta) for beta in (0.1, 0.5, 0.9) for alpha in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2)),
    *((alpha, beta) for alpha in (0.5, 0.9) for beta in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)),
]


def test_every_constructed_witness_rechecks_above_tol_strict():
    specs = [*_benchmark_range_specs(), *(builtin_pickands("mo", alpha=a, beta=b) for a, b in MO_EDGES)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in specs:
            _, verdict = classify_evc(spec, GRID)
            assert verdict.status is Status.FAILS, (spec, verdict.note)
            assert verdict.witness.kind == "rectangle", spec
            rect = verdict.witness.rectangle()
            assert rectangle_defect(evc_copula(spec), "mktp2", rect)[0] > GRID.tol_strict, spec
            assert kernel_cross_ratio(spec, rect) < 1.0 - GRID.tol_strict, spec
