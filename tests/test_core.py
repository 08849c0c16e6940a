import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rectangles
from mktp2.core import make_baseline, make_fgm, make_frechet, make_gaussian
from mktp2.cli import main
from mktp2.errors import ValidationError
from mktp2.grids import GridConfig
from mktp2.normal import std_normal_quantile
from oracles import disintegration_gap, kernel_u_jumps, max_kernel_fd_mismatch


def test_baselines_spot_values():
    pi = make_baseline("Pi")
    m = make_baseline("M")
    w = make_baseline("W")
    assert pi.cdf(0.3, 0.5) == pytest.approx(0.15, abs=1e-15)
    assert m.kernel(0.3, 0.5) == 1.0
    assert w.cdf(0.5, 0.5) == 0.0
    with pytest.raises(ValidationError):
        make_baseline("gauss")


def test_frechet_degenerate_weights():
    assert make_frechet(0.0, 0.0).kernel(0.4, 0.7) == pytest.approx(0.7, abs=1e-15)
    assert make_frechet(1.0, 0.0).cdf(0.3, 0.5) == pytest.approx(0.3, abs=1e-15)


def test_frechet_mixture_kernel_matches_cdf_derivative():
    cop = make_frechet(0.5, 0.0)
    assert cop.kernel(0.4, 0.7) == pytest.approx(0.85, abs=1e-15)
    h = 1e-6
    fd = (cop.cdf(0.4 + h, 0.7) - cop.cdf(0.4 - h, 0.7)) / (2 * h)
    assert cop.kernel(0.4, 0.7) == pytest.approx(fd, abs=1e-9)


def test_frechet_rejects_overweight():
    with pytest.raises(ValidationError):
        make_frechet(0.7, 0.4)


def test_fgm_kernel_and_density():
    assert make_fgm(0.0).kernel(0.123, 0.77) == pytest.approx(0.77, abs=1e-15)
    cop = make_fgm(1.0)
    # kernel at the u = 0 edge equals the one-sided difference quotient there
    assert cop.kernel(0.0, 0.5) == pytest.approx(0.75, abs=1e-15)
    h = 1e-8
    fd = (cop.cdf(h, 0.5) - cop.cdf(0.0, 0.5)) / h
    assert cop.kernel(0.0, 0.5) == pytest.approx(fd, abs=1e-6)
    assert cop.density(0.5, 0.5) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValidationError):
        make_fgm(1.2)


def test_gaussian_kernel_median_and_orthant():
    cop = make_gaussian(0.5)
    assert cop.kernel(0.5, 0.5) == pytest.approx(0.5, abs=1e-14)
    want = 0.25 + math.asin(0.5) / (2 * math.pi)
    assert cop.cdf(0.5, 0.5) == pytest.approx(want, abs=1e-12)
    assert make_gaussian(-0.5).cdf(0.5, 0.5) < 0.25
    for bad in (0.0, 1.0, -1.0, 1.5):
        with pytest.raises(ValidationError):
            make_gaussian(bad)


def test_gaussian_cdf_against_2d_quadrature():
    from scipy import integrate
    from mktp2.normal import std_normal_quantile

    rho = 0.5
    cop = make_gaussian(rho)
    a, b = std_normal_quantile(0.3), std_normal_quantile(0.6)
    s = math.sqrt(1 - rho * rho)

    def dens(y, x):
        return math.exp(-(x * x - 2 * rho * x * y + y * y) / (2 * s * s)) / (2 * math.pi * s)

    want, err = integrate.dblquad(dens, -8.5, a, -8.5, b, epsabs=1e-11)
    assert err < 1e-9
    assert cop.cdf(0.3, 0.6) == pytest.approx(want, abs=1e-8)


def test_copula_boundary_conditions(any_copula):
    us = np.linspace(0.0, 1.0, 17)
    assert np.allclose(any_copula.cdf(us, np.zeros_like(us)), 0.0, atol=1e-12)
    assert np.allclose(any_copula.cdf(us, np.ones_like(us)), us, atol=1e-12)
    assert np.allclose(any_copula.cdf(np.zeros_like(us), us), 0.0, atol=1e-12)
    assert np.allclose(any_copula.cdf(np.ones_like(us), us), us, atol=1e-12)


def test_cdf_two_increasing_on_random_rectangles(any_copula):
    rng = np.random.Generator(np.random.Philox(key=2024))
    u1, u2, v1, v2 = random_rectangles(rng, 1_000_000)
    inc = (
        np.asarray(any_copula.cdf(u2, v2))
        - np.asarray(any_copula.cdf(u1, v2))
        - np.asarray(any_copula.cdf(u2, v1))
        + np.asarray(any_copula.cdf(u1, v1))
    )
    assert float(np.min(inc)) >= -1e-12


def test_kernel_monotone_in_v(any_copula):
    us = np.linspace(0.01, 0.99, 64)
    vs = np.linspace(0.0, 1.0, 257)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    ker = np.asarray(any_copula.kernel(uu, vv), dtype=float)
    assert float(np.min(np.diff(ker, axis=1))) >= -1e-12
    assert np.allclose(ker[:, 0], 0.0, atol=1e-12)
    assert np.allclose(ker[:, -1], 1.0, atol=1e-12)


def test_kernel_matches_cdf_derivative(any_family):
    spec, copula, params = any_family
    assert max_kernel_fd_mismatch(copula, kernel_u_jumps(spec, params)) <= 1e-5


def test_disintegration(any_family):
    spec, copula, params = any_family
    jumps = kernel_u_jumps(spec, params)
    worst = max(disintegration_gap(copula, v, jumps) for v in np.arange(0.1, 0.95, 0.1))
    assert worst <= 1e-6


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(-1.0, 1.0),
    u=st.floats(0.0, 1.0),
    v=st.floats(0.0, 1.0),
)
def test_fgm_respects_frechet_hoeffding_bounds(theta, u, v):
    cop = make_fgm(theta)
    c = cop.cdf(u, v)
    assert max(u + v - 1.0, 0.0) - 1e-12 <= c <= min(u, v) + 1e-12
    assert -1e-12 <= cop.kernel(u, v) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# closed-form truths of FGM and the Gaussian, against the grid verdicts
# ---------------------------------------------------------------------------

_SIGNED = [-0.9, -0.3, 0.3, 0.9]
_AXIS = GridConfig(n_u=64, n_v=64).u_axis()


def _checked(family, param, value, prop):
    argv = ["check", "--family", family, "--param", f"{param}={value}", "--property", prop, "--grid", "64"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())["results"][0]["status"]


@pytest.mark.parametrize("theta", _SIGNED)
def test_fgm_closed_forms_decide_pqd_and_dtp2(theta):
    cop = make_fgm(theta)
    u, v = np.meshgrid(_AXIS, _AXIS, indexing="ij")
    assert np.max(np.abs(cop.cdf(u, v) - u * v - theta * u * v * (1 - u) * (1 - v))) <= 1e-15
    # c = 1 + theta (1 - 2u)(1 - 2v) is bilinear, so central differences are exact
    # but for rounding: c c_uv - c_u c_v = 4 theta, whose sign is that of d-TP2
    h = 1e-3
    c = cop.density(u, v)
    c_u = (cop.density(u + h, v) - cop.density(u - h, v)) / (2 * h)
    c_v = (cop.density(u, v + h) - cop.density(u, v - h)) / (2 * h)
    corners = cop.density(u + h, v + h) - cop.density(u + h, v - h) - cop.density(u - h, v + h)
    c_uv = (corners + cop.density(u - h, v - h)) / (4 * h * h)
    assert np.max(np.abs(c * c_uv - c_u * c_v - 4 * theta)) <= 1e-8
    want = "holds" if theta >= 0 else "fails"
    assert _checked("fgm", "theta", theta, "pqd") == want
    assert _checked("fgm", "theta", theta, "dtp2") == want


@pytest.mark.parametrize("rho", _SIGNED)
def test_gaussian_closed_forms_decide_pqd_and_dtp2(rho):
    cop = make_gaussian(rho)
    u, v = np.meshgrid(_AXIS, _AXIS, indexing="ij")
    # log c is rho x y / (1 - rho^2) plus terms in x or y alone (x, y the normal
    # scores), so its cross difference on a cell is rho dx dy / (1 - rho^2)
    x = std_normal_quantile(_AXIS)
    log_c = np.log(cop.density(u, v))
    cross = log_c[1:, 1:] + log_c[:-1, :-1] - log_c[1:, :-1] - log_c[:-1, 1:]
    want = rho / (1 - rho * rho) * np.outer(np.diff(x), np.diff(x))
    assert np.max(np.abs(cross - want)) <= 1e-12
    # and C < uv inside the square exactly when rho < 0 (Slepian)
    assert np.all(np.sign(cop.cdf(u, v) - u * v) == np.sign(rho))
    status = "holds" if rho >= 0 else "fails"
    assert _checked("gaussian", "rho", rho, "pqd") == status
    assert _checked("gaussian", "rho", rho, "dtp2") == status
