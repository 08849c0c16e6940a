import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import REGISTRY_FAMILIES
from mktp2 import sampler
from mktp2.archimedean import arch_copula, make_generator
from mktp2.core import make_baseline
from mktp2.errors import NumericalError, ValidationError
from mktp2.grids import GridConfig
from mktp2.registry import build
from mktp2.sampler import MAX_SAMPLES, sample, write_csv
from oracles import counting_form, empirical_cdf_distance, marginal_ks, whole_batch_sample

GRID = GridConfig()


def test_comonotone_batch_lies_on_diagonal():
    batch = sample(make_baseline("m"), 1000, 7)
    assert float(np.max(np.abs(batch.points[:, 1] - batch.points[:, 0]))) <= 1e-9


def test_independence_batch_matches_model():
    batch = sample(make_baseline("pi"), 10_000, 7)
    assert empirical_cdf_distance(batch, make_baseline("pi"), GRID) <= 0.025
    d_u, d_v = marginal_ks(batch)
    bound = 1.63 / np.sqrt(batch.n)
    assert d_u <= bound and d_v <= bound


def test_wrong_model_distance_is_large():
    batch = sample(make_baseline("pi"), 10_000, 7)
    assert empirical_cdf_distance(batch, make_baseline("m"), GRID) >= 0.2


def test_reproducibility_bitwise():
    _, _, copula = build("evc-log")
    a = sample(copula, 2000, 42)
    b = sample(copula, 2000, 42)
    assert np.array_equal(a.points, b.points)
    c = sample(copula, 2000, 43)
    assert not np.array_equal(a.points, c.points)


def test_evc_log_batch_matches_model():
    _, _, copula = build("evc-log")
    batch = sample(copula, 10_000, 42)
    assert empirical_cdf_distance(batch, copula, GRID) <= 0.025
    d_u, d_v = marginal_ks(batch)
    bound = 1.63 / np.sqrt(batch.n)
    assert d_u <= bound and d_v <= bound


def test_marshall_olkin_atoms_hit_singular_curve():
    _, _, copula = build("mo", {"alpha": 0.5, "beta": 0.5})
    batch = sample(copula, 10_000, 3)
    u, v = batch.points[:, 0], batch.points[:, 1]
    on_curve = np.abs(u**0.5 - v**0.5) <= 1e-8
    assert float(on_curve.mean()) >= 0.05


def test_perfect_comonotone_batch_distance():
    from mktp2.sampler import SampleBatch

    n = 5000
    u = (np.arange(n) + 0.5) / n
    batch = SampleBatch(points=np.column_stack([u, u]), seed=0, n=n, label="perfect-m")
    slack = 1.0 / GRID.n_u
    assert empirical_cdf_distance(batch, make_baseline("m"), GRID) <= 1.0 / n + slack


def test_rejects_empty_batch_request():
    with pytest.raises(ValidationError):
        sample(make_baseline("pi"), 0, 1)


def test_rejects_batch_above_bound_before_evaluating():
    def kernel(u, v):
        raise AssertionError("evaluated the kernel before checking n")

    copula = replace(make_baseline("pi"), kernel=kernel)
    with pytest.raises(ValidationError, match="at most"):
        sample(copula, MAX_SAMPLES + 1, 1)


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_rejects_seed_outside_philox_key_range_before_evaluating(seed):
    def kernel(u, v):
        raise AssertionError("evaluated the kernel before checking the seed")

    copula = replace(make_baseline("pi"), kernel=kernel)
    with pytest.raises(ValidationError, match="seed"):
        sample(copula, 3, seed)


@pytest.mark.parametrize("seed", [0, 2**128 - 1])
def test_samples_at_both_ends_of_seed_range(seed):
    batch = sample(make_baseline("pi"), 3, seed)
    assert batch.seed == seed
    assert batch.points.shape == (3, 2)


def test_csv_format(tmp_path):
    batch = sample(make_baseline("pi"), 5, 123)
    path = tmp_path / "batch.csv"
    write_csv(batch, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().split("\n")
    assert lines[0] == "u,v"
    assert len(lines) == 7  # header + 5 rows + trailing newline
    u0, v0 = (float(x) for x in lines[1].split(","))
    assert (u0, v0) == (batch.points[0, 0], batch.points[0, 1])
    # 17 significant digits survive a round trip
    assert f"{batch.points[0, 0]:.17g}" in lines[1]


def _plain(kernel, density=None):
    """A copula whose kernel is a plain callable, not a per-axis form.

    It keeps the quantile of Π, a wrong guess for these kernels; given a
    ``density``, it declares that density and no quantile, so the sampler
    guesses each draw by the secant on the kernel.
    """
    copula = replace(make_baseline("pi"), label="plain", kernel=kernel)
    return copula if density is None else replace(copula, density=density, quantile=None)


def _fgm_kernel(u, v):
    return v * (1.0 + 0.7 * (1.0 - v) * (1.0 - 2.0 * u))


def _fgm_density(u, v):
    return 1.0 + 0.7 * (1.0 - 2.0 * u) * (1.0 - 2.0 * v)


def _kernel_with_nan(u, v):
    # NaN on the strip u < 1/4, v > 1/2: a NaN kernel value moves the bracket's bottom
    return np.where((u < 0.25) & (v > 0.5), np.nan, v * v)


def _density_with_nan(u, v):
    return np.where((u < 0.25) & (v > 0.5), np.nan, 2.0 * v)


UNREGISTERED = {
    "phi-only-clayton": lambda: arch_copula(
        make_generator(phi=lambda t: (np.power(np.asarray(t, dtype=float), -2.0) - 1.0) / 2.0)
    ),
    "plain-fgm": lambda: _plain(_fgm_kernel),
    "nan-strip": lambda: _plain(_kernel_with_nan),
    "plain-fgm-density": lambda: _plain(_fgm_kernel, _fgm_density),
    "nan-strip-density": lambda: _plain(_kernel_with_nan, _density_with_nan),
}


@pytest.mark.parametrize("n", [1, 2**14 - 1, 2**14 + 1, 3 * 2**14 + 5])
@pytest.mark.parametrize("kernel", list(UNREGISTERED))
def test_chunked_sample_matches_whole_batch_inversion(kernel, n):
    copula = UNREGISTERED[kernel]()
    points = sample(copula, n, 2024).points
    assert points.tobytes() == whole_batch_sample(copula, n, 2024).tobytes()


def test_strict_zero_denominator_error_names_the_first_offender_in_a_later_chunk():
    n, seed = 3 * 2**14 + 5, 5
    u = np.random.Generator(np.random.Philox(key=seed)).random((n, 2))[:, 0]
    cut = float(u[: 2**14].min())
    assert u.min() < cut  # the first offender lies past the first chunk
    spec = make_generator(
        phi=lambda t: -np.log(np.asarray(t, dtype=float)),
        psi=lambda x: np.exp(-np.asarray(x, dtype=float)),
        d_minus_psi=lambda x: np.where(np.asarray(x) > -np.log(cut), 0.0, -np.exp(-np.asarray(x, dtype=float))),
        strict=True,
    )
    copula = arch_copula(spec)
    with pytest.raises(NumericalError) as want:
        whole_batch_sample(copula, n, seed)
    with pytest.raises(NumericalError) as got:
        sample(copula, n, seed)
    assert str(got.value) == str(want.value)


def test_sampler_working_set_does_not_grow_with_the_batch():
    n = 2**18
    # Gumbel guesses each draw's cell by its quantile, evc-log by the secant on
    # its kernel, and evc-jump, with neither, bisects every draw
    for family in (("gumbel", {"alpha": 2.0}), ("evc-log", None), ("evc-jump", None)):
        _, _, copula = build(*family)
        tracemalloc.start()
        try:
            batch = sample(copula, n, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.points.nbytes == 4 * 2**20
        # the (n, 2) result plus one chunk's draws, preps and temporaries
        assert peak <= 10 * 2**20, (family, peak / 2**20)


CHUNK_NS = [1, 2**14 - 1, 2**14 + 1, 3 * 2**14 + 5]
# the registry settings that declare a conditional quantile
QUANTILE_FAMILIES = [f for f in REGISTRY_FAMILIES if build(*f)[2].quantile is not None]


def _family_id(family):
    name, params = family
    return name + "".join(f"-{k}{v!r}" for k, v in (params or {}).items())


def _sample_counting_fallbacks(monkeypatch, copula, n, seed):
    """``sample(copula, n, seed).points`` and the number of draws that went to the bisection,
    with every warning raised as an error."""
    fallbacks, bisect = [], sampler._bisect

    def counted(kernel, pu, w):
        fallbacks.append(w.shape[0])
        return bisect(kernel, pu, w)

    monkeypatch.setattr(sampler, "_bisect", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = sample(copula, n, seed).points
    return points, sum(fallbacks)


def test_closed_form_families_declare_a_quantile():
    assert [_family_id(f) for f in QUANTILE_FAMILIES] == [
        "pi", "m", "w", "frechet-alpha0.5-beta0.25", "frechet-alpha0.5-beta0.0", "fgm-theta0.7",
        "fgm-theta-0.5", "gaussian-rho0.5", "gaussian-rho-0.5", "gumbel-alpha1.5", "gumbel-alpha3.0",
        "mo-alpha0.5-beta0.5", "mo-alpha0.7-beta1.0", "arch-pi",
    ]


@pytest.mark.parametrize("n", CHUNK_NS)
@pytest.mark.parametrize("family", REGISTRY_FAMILIES, ids=_family_id)
def test_quantile_sample_matches_whole_batch_inversion(monkeypatch, family, n):
    copula = build(*family)[2]
    points, fallbacks = _sample_counting_fallbacks(monkeypatch, copula, n, 2024)
    assert points.tobytes() == whole_batch_sample(copula, n, 2024).tobytes()
    if copula.quantile is not None:
        # a quantile the kernel never confirms would bisect every draw unnoticed
        assert fallbacks <= n // 1000, fallbacks
    elif copula.density is None:
        assert fallbacks == n


@pytest.mark.parametrize("family", ["evc-log", "evc-jump", "arch-w"])
def test_kernel_points_per_draw(family):
    # evc-log declares a density, so the secant guesses its draws: 10 kernel
    # points, 2 to confirm the cell and 34 for each draw it misses; evc-jump
    # and arch-w declare neither a density nor a quantile and bisect every draw
    copula = build(family)[2]
    n = 100_000
    kernel, points = counting_form(copula.kernel)
    sample(replace(copula, kernel=kernel), n, 1562337530)
    per_draw = points() / n
    if copula.density is None:
        assert per_draw == 34, per_draw
    else:
        assert per_draw <= 14, per_draw


def _one_cell_low(copula):
    return lambda u, w: copula.quantile(u, w) - 2.0**-34


WRONG_QUANTILES = {
    "constant": lambda copula: lambda u, w: 0.5,
    "nan": lambda copula: lambda u, w: np.full_like(u, np.nan),
    "one-cell-low": _one_cell_low,
    "outside": lambda copula: lambda u, w: np.select(
        [w < 0.25, w < 0.5, w < 0.75], [-np.inf, -1.0 - u, 2.0 + w], np.inf
    ),
}


@pytest.mark.parametrize("wrong", list(WRONG_QUANTILES))
@pytest.mark.parametrize("family", [("gaussian", {"rho": 0.5}), ("mo", {"alpha": 0.5, "beta": 0.5})], ids=_family_id)
def test_a_wrong_quantile_changes_no_bit(monkeypatch, family, wrong):
    copula = build(*family)[2]
    n = 2**14 + 1
    wrong_copula = replace(copula, quantile=WRONG_QUANTILES[wrong](copula))
    points, fallbacks = _sample_counting_fallbacks(monkeypatch, wrong_copula, n, 2024)
    assert points.tobytes() == whole_batch_sample(copula, n, 2024).tobytes()
    assert fallbacks >= 0.99 * n


EDGE_SETTINGS = [
    ("frechet", {"alpha": 0.5, "beta": 0.5}),
    ("frechet", {"alpha": 0.25, "beta": 0.75}),
    ("mo", {"alpha": 1.0, "beta": 0.5}),
    ("mo", {"alpha": 0.0, "beta": 0.5}),
    ("fgm", {"theta": 1.0}),
    ("fgm", {"theta": -1.0}),
    ("gumbel", {"alpha": 1.0}),
]


@pytest.mark.parametrize("family", EDGE_SETTINGS, ids=_family_id)
def test_quantile_at_the_edges_of_a_family_matches_whole_batch_inversion(monkeypatch, family):
    copula = build(*family)[2]
    assert copula.quantile is not None
    n = 2**14 + 1
    points, fallbacks = _sample_counting_fallbacks(monkeypatch, copula, n, 2024)
    assert points.tobytes() == whole_batch_sample(copula, n, 2024).tobytes()
    assert fallbacks <= n // 1000, fallbacks


def test_kernel_u_prep_error_comes_before_any_quantile_work():
    copula = build("gumbel", {"alpha": 1000.0})[2]

    def quantile(u, w):
        raise AssertionError("evaluated the quantile before the kernel's u-prep")

    with pytest.raises(NumericalError) as want:
        whole_batch_sample(copula, 100, 1)
    for declared in (copula, replace(copula, quantile=quantile)):
        with pytest.raises(NumericalError, match=r"D-psi\(phi\(u\)\) evaluated to 0 at u=") as got:
            sample(declared, 100, 1)
        assert str(got.value) == str(want.value)
