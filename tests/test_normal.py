import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from mktp2 import normal
from mktp2.core import make_gaussian
from mktp2.errors import ValidationError
from mktp2.grids import GridConfig
from mktp2.normal import bivariate_normal_cdf, bvn_combine, bvn_prep, std_normal_cdf, std_normal_quantile
from mktp2.properties import _grid_eval
from oracles import reference_term


def erf_series(x, terms=60):
    """Maclaurin series of erf, independent of any library implementation."""
    total = 0.0
    for n in range(terms):
        total += (-1) ** n * x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * total


def test_symmetry_points():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_quantile(0.5) == 0.0


def test_table_value_against_series_oracle():
    oracle = 0.5 * (1.0 + erf_series(1.959964 / math.sqrt(2.0)))
    assert abs(oracle - 0.975) < 1e-6
    assert abs(std_normal_cdf(1.959964) - oracle) < 1e-12


def test_quantile_roundtrip():
    p = np.concatenate(
        [np.geomspace(1e-10, 0.5, 200), 1.0 - np.geomspace(1e-10, 0.5, 200)]
    )
    back = std_normal_cdf(std_normal_quantile(p))
    assert np.max(np.abs(back - p)) <= 1e-12


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3, float("nan")])
def test_quantile_rejects_out_of_range(bad):
    with pytest.raises(ValidationError):
        std_normal_quantile(bad)


@pytest.mark.parametrize("rho", [-0.99, -0.5, -0.1, 0.3, 0.5, 0.8, 0.95, 0.999])
def test_median_orthant_closed_form(rho):
    got = bivariate_normal_cdf(0.0, 0.0, rho)
    want = 0.25 + math.asin(rho) / (2.0 * math.pi)
    assert abs(got - want) < 1e-14


@pytest.mark.parametrize(
    "a,b,rho",
    [
        (0.5, -1.2, 0.5),
        (1.0, 2.0, 0.9),
        (-0.3, 0.7, -0.85),
        (0.2, 0.1, 0.99),
        (-2.0, -2.0, 0.97),
        (3.0, -1.0, -0.999),
    ],
)
def test_against_high_precision_quadrature(a, b, rho):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30

    def integrand(t):
        return mpmath.e ** (-(a * a + b * b - 2 * a * b * mpmath.sin(t)) / (2 * mpmath.cos(t) ** 2))

    want = mpmath.ncdf(a) * mpmath.ncdf(b) + mpmath.quad(integrand, [0, mpmath.asin(rho)]) / (
        2 * mpmath.pi
    )
    assert abs(bivariate_normal_cdf(a, b, rho) - float(want)) < 1e-10


def test_degenerate_infinite_arguments():
    assert bivariate_normal_cdf(np.inf, 1.0, 0.5) == pytest.approx(std_normal_cdf(1.0), abs=1e-15)
    assert bivariate_normal_cdf(-np.inf, 1.0, 0.5) == 0.0
    assert bivariate_normal_cdf(np.inf, np.inf, -0.3) == 1.0


def test_rejects_unit_correlation():
    with pytest.raises(ValidationError):
        bivariate_normal_cdf(0.0, 0.0, 1.0)


TAIL_PROBS = (1e-6, 1e-4, 1e-3, 0.05, 0.5, 0.95, 1.0 - 1e-4)


def _quad_reference(h, k, rho):
    """Phi2(h, k; rho) as the integral of a positive integrand over (-inf, h]: no cancellation."""
    s = math.sqrt(1.0 - rho * rho)

    def integrand(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * std_normal_cdf((k - rho * x) / s)

    value, _ = integrate.quad(integrand, -np.inf, h, epsabs=0.0, epsrel=1e-13, limit=200)
    return value


@pytest.mark.parametrize("rho", [0.5, -0.5, 0.9, -0.9])
def test_tail_values_keep_relative_accuracy(rho):
    # LTD divides C(u, v) by u, so the error must stay small against min(u, v), not only in absolute terms
    worst = 0.0
    for u in TAIL_PROBS:
        for v in TAIL_PROBS:
            h, k = std_normal_quantile(u), std_normal_quantile(v)
            err = abs(bivariate_normal_cdf(h, k, rho) - _quad_reference(h, k, rho))
            worst = max(worst, err / min(u, v))
    assert worst <= 1e-12


def _mp_reference(h, k, rho):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    s = mpmath.sqrt(1 - mpmath.mpf(rho) ** 2)
    integrand = lambda x: mpmath.npdf(x) * mpmath.ncdf((k - rho * x) / s)
    return float(mpmath.quad(integrand, [-mpmath.inf, h]))


@pytest.mark.parametrize("rho", [-0.95, -0.5, 0.3, 0.9])
@pytest.mark.parametrize("x", [-3.0, -0.4, 0.7, 2.5])
def test_zero_argument_limits(x, rho):
    # one array call: the copula feeds quantile 0 for every boundary point, mixed with interior points
    got = bivariate_normal_cdf(np.array([0.0, x, 0.0]), np.array([x, 0.0, 0.0]), rho)
    want = [_mp_reference(0.0, x, rho), _mp_reference(x, 0.0, rho), _mp_reference(0.0, 0.0, rho)]
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("rho", [0.5, 0.9, -0.9])
def test_grid_evaluation_memory_is_bounded(rho):
    axis = std_normal_quantile(np.linspace(0.005, 0.995, 512))
    x, y = np.meshgrid(axis, axis, indexing="ij")
    tracemalloc.start()
    try:
        bivariate_normal_cdf(x, y, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a 512 x 512 float64 array is 2 MB; a quadrature node axis would multiply that by its node count
    assert peak <= 32 * 2**20


def test_pointwise_copula_cdf_memory_is_bounded():
    # 10^6 scattered points: the 8 MB result and one chunk's preps and temporaries
    u, v = np.random.default_rng(3).uniform(size=(2, 10**6))
    cdf = make_gaussian(0.5).cdf
    tracemalloc.start()
    try:
        cdf(u, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20, peak / 2**20


# ---------------------------------------------------------------------------
# the per-axis split against the pointwise form it replaced
# ---------------------------------------------------------------------------


def _masked_g(h, c):
    out = np.empty_like(h)
    swap = c > h
    h1, c1 = h[~swap], c[~swap]
    out[~swap] = 0.5 * special.ndtr(-h1) - special.owens_t(h1, c1 / h1)
    h2, c2 = h[swap], c[swap]
    out[swap] = special.owens_t(c2, h2 / c2) - 0.5 * special.ndtr(-c2) * special.erf(h2 * (1.0 / np.sqrt(2.0)))
    return out


def _masked_phi2(h, k, rho):
    """Phi2 of finite h, k in the pointwise form: each term on the mask of its nonzero
    argument, each branch of g on its own mask."""
    s = np.sqrt(1.0 - rho * rho)
    terms = np.zeros_like(h)
    for x, y in ((h, k), (k, h)):
        nz = x != 0.0
        terms[nz] += np.sign(x[nz]) * _masked_g(np.abs(x[nz]), (rho * x[nz] - y[nz]) / s)
    terms[(h == 0.0) & (k == 0.0)] = -np.arcsin(rho) / (2.0 * np.pi)
    return np.clip(0.25 * (1.0 + np.sign(h)) * (1.0 + np.sign(k)) - terms, 0.0, 1.0)


_UNIFORM = GridConfig(n_u=257, n_v=257).u_axis()  # odd: u = 0.5 gives a row of x = 0
_LOGIT = GridConfig(n_u=257, n_v=257, spacing="logit").u_axis()
_TAIL = GridConfig(n_u=200, n_v=200).axis(200, 0.9479, 1.0 - 1e-6)
_RHOS = [0.3, -0.3, 0.9, -0.9, 0.999, -0.999]


@pytest.mark.parametrize("rho", _RHOS)
@pytest.mark.parametrize(
    "us, vs",
    [(_UNIFORM, _UNIFORM), (_LOGIT, _LOGIT), (_TAIL, _TAIL), (_UNIFORM, _TAIL)],
    ids=["uniform", "logit", "tail", "uniform-tail"],
)
def test_per_axis_combine_is_bit_identical_to_the_pointwise_form(us, vs, rho):
    x, y = std_normal_quantile(us), std_normal_quantile(vs)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    want = _masked_phi2(xx, yy, rho)
    got = bvn_combine(bvn_prep(x[:, None], rho), bvn_prep(y[None, :], rho), rho)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(bivariate_normal_cdf(xx, yy, rho).view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("rho", _RHOS)
def test_the_split_cases_hold_zero_rows_and_both_branches(rho):
    x = std_normal_quantile(_UNIFORM)
    assert (x == 0.0).any()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    swap = (rho * xx - yy) / np.sqrt(1.0 - rho * rho) > np.abs(xx)
    assert swap.any() and not swap.all()


# ---------------------------------------------------------------------------
# the swap branch of g at the swap points alone, against both branches everywhere
# ---------------------------------------------------------------------------


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("rho", [0.3, -0.52, 0.99, -0.99])
@pytest.mark.parametrize(
    "us, vs", [(_UNIFORM, _UNIFORM), (_LOGIT, _LOGIT), (_UNIFORM, _TAIL)], ids=["uniform", "logit", "uniform-tail"]
)
def test_term_has_the_bits_of_both_branches_at_every_point(monkeypatch, us, vs, rho):
    # the uniform axis holds u = 0.5, so x = 0; square grids are mirrored, the
    # uniform-tail grid is not
    x, y = std_normal_quantile(us), std_normal_quantile(vs)
    p, s = bvn_prep(x[:, None], rho), np.sqrt(1.0 - rho * rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.array_equal(_bits(normal._term(p, y[None, :], s)), _bits(reference_term(p, y[None, :], s)))
    cdf = make_gaussian(rho).cdf
    got = _grid_eval(cdf, us, vs)
    monkeypatch.setattr(normal, "_term", reference_term)
    assert np.array_equal(_bits(got), _bits(_grid_eval(cdf, us, vs)))


@pytest.mark.parametrize("rho", [-0.99, 0.99])
def test_combine_takes_zero_dimensional_points(rho):
    for h, k in ((-0.4, 1.2), (2.0, -3.0), (0.0, 0.7)):
        point = bvn_combine(bvn_prep(np.array(h), rho), bvn_prep(np.array(k), rho), rho)
        row = bvn_combine(bvn_prep(np.array([h]), rho), bvn_prep(np.array([k]), rho), rho)
        assert np.ndim(point) == 0 and _bits(point) == _bits(row[0])
