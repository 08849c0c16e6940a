import inspect
import math
import warnings

import numpy as np
import pytest
from dataclasses import fields, replace

from mktp2.archimedean import (
    GeneratorSpec,
    arch_copula,
    builtin_archimedean,
    classify_archimedean,
    generator_x_sample,
    make_generator,
    property_verdicts,
)
from mktp2.errors import NumericalError, ValidationError
from mktp2.extreme_value import builtin_pickands, evc_copula
from mktp2.grids import GridConfig
from mktp2.properties import Status, check_mktp2, check_si, rectangle_defect
from conftest import frank_psi, kinked_exp
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


PHI_ONLY = {
    "clayton-2": lambda t: (np.power(np.asarray(t, dtype=float), -2.0) - 1.0) / 2.0,
    "log": lambda t: -np.log(np.asarray(t, dtype=float)),
    "linear": lambda t: 1.0 - np.asarray(t, dtype=float),
    "clayton-minus-half": lambda t: 2.0 - 2.0 * np.sqrt(np.asarray(t, dtype=float)),
}


@pytest.mark.parametrize("name", list(PHI_ONLY))
def test_phi_only_psi_is_the_exact_crossing(name):
    # psi(x) is the least double t with phi(t) <= x, so the double below t has phi(t) > x
    phi = PHI_ONLY[name]
    rng = np.random.default_rng(19)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = make_generator(phi=phi)
        cap = spec.phi_at_zero
        beyond = [cap, 2.0 * cap, np.inf] if math.isfinite(cap) else [np.inf, 1e300]
        edges = np.array([0.0, -0.0, -1.0, 5e-324, 1e-300, 1e-15, 1e-12, np.nan, *beyond])
        for xs in (edges, rng.exponential(1.0, 500), rng.uniform(0.0, 3.0, (7, 9)), np.asarray(0.3)):
            got = np.asarray(spec.psi(xs))
            nan = np.isnan(xs)
            assert got.shape == xs.shape and np.array_equal(np.isnan(got), nan), xs
            assert np.all((got[~nan] >= 0.0) & (got[~nan] <= 1.0)), xs
            assert np.all(got[xs <= 0.0] == 1.0) and np.all(got[xs >= cap] == 0.0), xs
            inside = (xs > 0.0) & (xs < cap)
            t, x = got[inside], xs[inside]
            with np.errstate(divide="ignore"):
                below = phi(np.nextafter(t, 0.0))
            assert np.all(phi(t) <= x) and np.all(x < below), xs


PSI_ONLY = {
    "clayton-2": lambda x: np.power(1.0 + 2.0 * np.asarray(x, dtype=float), -0.5),
    "exp": lambda x: np.exp(-np.asarray(x, dtype=float)),
    "harmonic": lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float)),
    "linear": lambda x: np.maximum(1.0 - np.asarray(x, dtype=float), 0.0),
    "clayton-minus-half": lambda x: np.square(np.maximum(1.0 - 0.5 * np.asarray(x, dtype=float), 0.0)),
}


@pytest.mark.parametrize("name", list(PSI_ONLY))
def test_psi_only_phi_is_the_exact_crossing(name):
    # phi(t) is the least double x with psi(x) <= t, so the double below x has psi(x) > t
    psi = PSI_ONLY[name]
    rng = np.random.default_rng(23)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = make_generator(psi=psi)
        cap = spec.phi_at_zero
        edges = np.array([0.0, -0.0, -1.0, 5e-324, 1e-310, 1e-300, 1e-15, 1e-12, np.nan, 1.0, 2.0, np.inf])
        for ts in (edges, rng.uniform(0.0, 1.0, 500), rng.uniform(0.0, 1.2, (7, 9)), np.asarray(0.3)):
            got = np.asarray(spec.phi(ts))
            nan = np.isnan(ts)
            assert got.shape == ts.shape and np.array_equal(np.isnan(got), nan), ts
            assert np.all((got[~nan] >= 0.0) & (got[~nan] <= cap)), ts
            assert np.all(got[ts <= 0.0] == cap) and np.all(got[ts >= 1.0] == 0.0), ts
            inside = (ts > 0.0) & (ts < 1.0)
            x, t = got[inside], ts[inside]
            with np.errstate(over="ignore"):
                at, below = psi(x), psi(np.nextafter(x, 0.0))
            assert np.all(at <= t) and np.all(t < below), ts


def test_psi_only_phi_reaches_every_double():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clayton = make_generator(psi=PSI_ONLY["clayton-2"])
        want = (1e-150**-2.0 - 1.0) / 2.0
        assert abs(float(clayton.phi(1e-150)) - want) <= 4.0 * np.spacing(want)
        # psi = 1/(1+x) stays above 1e-310 at every finite double
        harmonic = make_generator(psi=PSI_ONLY["harmonic"])
        assert abs(float(harmonic.phi(1e-300)) - 1e300) <= 4.0 * np.spacing(1e300)
        assert float(harmonic.phi(1e-310)) == np.inf


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
# classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 4.0])
def test_classify_gumbel_all_hold(alpha):
    spec = builtin_archimedean("gumbel", alpha=alpha)
    table = classify_archimedean(spec, GRID)
    assert spec.strict
    assert table["tp2"].status is Status.HOLDS
    assert table["mktp2"].status is Status.HOLDS
    assert table["dtp2"].status is Status.HOLDS


@pytest.mark.parametrize(
    "make",
    [
        lambda: builtin_archimedean("gumbel", alpha=2.0),
        lambda: builtin_archimedean("spreeuw"),
        lambda: builtin_archimedean("w"),
        lambda: make_generator(phi=lambda t: (np.power(np.asarray(t, dtype=float), -2.0) - 1.0) / 2.0),
    ],
    ids=["gumbel", "spreeuw", "w", "phi-only-clayton"],
)
def test_classify_shares_each_equivalence_pair(make):
    spec = make()
    table = classify_archimedean(spec, GRID)
    assert list(table) == ["ltd", "si", "tp2", "mktp2", "dtp2"]
    if spec.strict:
        assert table["ltd"] is table["tp2"]
        assert table["si"] is table["mktp2"]
        return
    # a non-strict pair shares its verdict but for the witness, which each
    # property reads from its own quantity of the one rectangle
    copula = arch_copula(spec)
    for pair in (("ltd", "tp2"), ("si", "mktp2")):
        first, second = (table[p] for p in pair)
        assert (first.status, first.certificate, first.note) == (second.status, second.certificate, second.note)
        for prop in pair:
            witness = table[prop].witness
            assert rectangle_defect(copula, prop, witness.rectangle()) == (witness.defect, witness.values), prop


def test_classify_spreeuw_tp2_but_not_mktp2():
    table = classify_archimedean(builtin_archimedean("spreeuw"), GRID)
    assert table["tp2"].status is Status.HOLDS
    assert table["mktp2"].status is Status.FAILS
    x0, x1, x2 = table["mktp2"].witness.points
    assert 0.0 < x0 < x1 < x2


def test_classify_nonstrict_short_circuit():
    spec = builtin_archimedean("w")
    table = classify_archimedean(spec, GRID)
    assert not spec.strict
    assert table["tp2"].status is Status.FAILS
    assert table["mktp2"].status is Status.FAILS
    assert table["dtp2"].status is Status.NOT_APPLICABLE


@pytest.mark.parametrize(
    "spec",
    [
        frank_psi(1.0),
        frank_psi(3.0),
        frank_psi(5.0),
        builtin_archimedean("gumbel", alpha=2.0),
        builtin_archimedean("gumbel", alpha=4.0),
    ],
    ids=["frank-psi-theta1", "frank-psi-theta3", "frank-psi-theta5", "gumbel-alpha2", "gumbel-alpha4"],
)
def test_steep_smooth_dminus_psi_reads_si_and_mktp2_holds(spec):
    # D-psi steep near 0 (by finite differences of psi for Frank) but continuous:
    # the -D-psi scan reads no kink
    table = property_verdicts(spec, GRID, ("si", "mktp2"))
    assert table["si"] is table["mktp2"]
    assert table["mktp2"].status is Status.HOLDS
    assert table["mktp2"].certificate["method"] == "analytic:neg-dminus-psi-log-convexity"


@pytest.mark.parametrize("x_star", [0.05, 1.0, 5.0])
def test_dminus_psi_kink_inside_the_sample_fails_log_convexity(x_star):
    # D-psi jumps at x_star, inside the x-sample phi([margin, 1 - margin])
    spec = kinked_exp(x_star)
    xs = generator_x_sample(spec, GRID)
    assert xs[0] < x_star < xs[-1]
    table = property_verdicts(spec, GRID, ("si", "mktp2"))
    assert table["si"] is table["mktp2"]
    verdict = table["mktp2"]
    assert verdict.status is Status.FAILS
    assert verdict.certificate["method"] == "analytic:neg-dminus-psi-log-convexity"
    assert verdict.witness.kind == "triple"
    x0, _, x2 = verdict.witness.points
    assert x0 < x_star < x2


def test_make_generator_takes_no_jump_declaration():
    # a jump of D-psi is read by the -D-psi scan, never declared: neither the
    # spec nor make_generator has a field for it, and the keyword is refused
    assert [f.name for f in fields(GeneratorSpec)] == [
        "label", "phi", "psi", "d_minus_psi", "phi_at_zero", "psi_second", "exact_derivative", "quantile"
    ]
    assert list(inspect.signature(make_generator).parameters) == [
        "phi", "psi", "d_minus_psi", "phi_at_zero", "strict", "psi_second", "label"
    ]
    jumps = {"d_minus_psi" + "_jumps": ()}
    with pytest.raises(TypeError):
        make_generator(psi=lambda x: np.exp(-np.asarray(x, dtype=float)), **jumps)


def _clayton_nonstrict(theta):
    """Clayton co-generator for theta in (-1, 0): psi vanishes beyond -1/theta."""

    def psi(x):
        return np.power(np.maximum(1.0 + theta * np.asarray(x, dtype=float), 0.0), -1.0 / theta)

    return make_generator(psi=psi, label=f"clayton(theta={theta})")


@pytest.mark.parametrize("theta", [None, -0.3, -0.5, -0.9], ids=lambda t: "w" if t is None else f"clayton{t}")
def test_nonstrict_fails_witnesses_reevaluate(theta):
    spec = builtin_archimedean("w") if theta is None else _clayton_nonstrict(theta)
    assert not spec.strict
    if theta is not None:
        # phi inverts psi up to its finite phi(0), near either end of (0, 1)
        ts = np.array([1e-6, 1.1e-6, 1.0 - 1e-6, 1.0 - 1e-9])
        assert np.max(np.abs(spec.psi(spec.phi(ts)) - ts)) <= 1e-13
        assert float(spec.phi(0.0)) == spec.phi_at_zero == -1.0 / theta
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
    dtp2 = classify_archimedean(spec, GRID)["dtp2"]
    assert dtp2.status is Status.HOLDS
    scan = dtp2.certificate["scan"]
    assert (scan["tol_eq"], scan["tol_strict"]) == (GRID.tol_eq, GRID.tol_strict)
    # no second-difference floor on x: the whole sample is tested
    assert scan["n_points"] == len(generator_x_sample(spec, GRID))


@pytest.mark.parametrize("name, params", [("gumbel", {"alpha": 3.0}), ("spreeuw", {})])
def test_dtp2_is_not_applicable_without_psi_second(name, params):
    spec = replace(builtin_archimedean(name, **params), psi_second=None)
    dtp2 = classify_archimedean(spec, GRID)["dtp2"]
    assert dtp2.status is Status.NOT_APPLICABLE
    assert dtp2.certificate == {"method": "psi-second-log-convexity"}
    assert dtp2.note == "co-generator not declared twice-differentiable"


def test_make_generator_takes_no_smoothness():
    with pytest.raises(TypeError, match="smoothness"):
        make_generator(phi=lambda t: -np.log(np.asarray(t, dtype=float)), smoothness="completely-monotone")


@pytest.mark.parametrize(
    "strict, phi_at_zero, psi",
    [
        (False, np.inf, lambda x: np.power(1.0 + np.asarray(x, dtype=float), -1.0)),
        (True, 1.0, lambda x: np.maximum(1.0 - np.asarray(x, dtype=float), 0.0)),
    ],
    ids=["non-strict-at-inf", "strict-at-1"],
)
def test_make_generator_rejects_strict_that_disagrees_with_phi_at_zero(strict, phi_at_zero, psi):
    with pytest.raises(ValidationError, match=rf"declared strict={strict} but phi\(0\) = {phi_at_zero!r}"):
        make_generator(psi=psi, phi_at_zero=phi_at_zero, strict=strict)
    # agreeing with it, or left out, strict reads phi(0) = inf
    for declared in (not strict, None):
        assert make_generator(psi=psi, phi_at_zero=phi_at_zero, strict=declared).strict is (not strict)


@pytest.mark.parametrize("phi_at_zero", [float("nan"), 0.0, -1.0, -np.inf])
def test_make_generator_rejects_phi_at_zero_off_the_positive_half_line(phi_at_zero):
    with pytest.raises(ValidationError, match=r"phi\(0\) must be positive or inf"):
        make_generator(psi=lambda x: np.power(1.0 + np.asarray(x, dtype=float), -1.0), phi_at_zero=phi_at_zero)


def test_strict_is_read_from_phi_at_zero():
    assert "strict" not in {f.name for f in fields(GeneratorSpec)}
    for name, strict in (("gumbel", True), ("pi", True), ("spreeuw", True), ("w", False)):
        spec = builtin_archimedean(name)
        assert spec.strict is strict and spec.strict is (spec.phi_at_zero == np.inf), name


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
        table = classify_archimedean(builtin_archimedean(name, **kw), GRID)
        if table["mktp2"].status is Status.HOLDS:
            assert table["tp2"].status is Status.HOLDS
        if table["dtp2"].status is Status.HOLDS:
            assert table["mktp2"].status is Status.HOLDS


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
        label="spreeuw-x3",
    )
    r1 = classify_archimedean(base, GRID)
    r2 = classify_archimedean(scaled, GRID)
    assert r1["tp2"].status == r2["tp2"].status
    assert r1["mktp2"].status == r2["mktp2"].status


@pytest.mark.parametrize("theta", [0.5, 2.0, 8.0])
def test_phi_only_clayton_is_si_and_mktp2(theta):
    # D-psi of the searched psi is 1 / phi'(psi(x)); Clayton theta > 0 is SI,
    # and SI <-> MK-TP2 for Archimedean copulas
    spec = make_generator(phi=lambda t: (np.power(np.asarray(t, dtype=float), -theta) - 1.0) / theta)
    assert spec.strict and not spec.exact_derivative
    # psi is the exact inverse of phi out to where t^-theta is huge
    far = np.array([0.5, 10.0, 1e6, 1e12, 1e20, 1e30])
    want = np.power(1.0 + theta * far, -1.0 / theta)
    assert np.all(np.abs(spec.psi(far) - want) <= 4.0 * np.spacing(want))
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
