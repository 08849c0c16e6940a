import numpy as np
import pytest
from hypothesis import settings

from mktp2.archimedean import make_generator
from mktp2.grids import GridConfig
from mktp2.registry import REGISTRY, build

# every run draws the same Hypothesis examples, with no per-example deadline,
# so a tier-1 result does not depend on the seed or on the machine's load
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def default_grid():
    return GridConfig()


@pytest.fixture(scope="session")
def fast_grid():
    return GridConfig(n_u=64, n_v=64)


# every built-in family the registry can construct, with workable parameters
ALL_FAMILIES = [
    ("pi", None),
    ("m", None),
    ("w", None),
    ("frechet", {"alpha": 0.5, "beta": 0.25}),
    ("frechet", {"alpha": 0.5, "beta": 0.0}),
    ("fgm", {"theta": 0.7}),
    ("fgm", {"theta": -0.5}),
    ("gaussian", {"rho": 0.5}),
    ("gaussian", {"rho": -0.5}),
    ("gumbel", {"alpha": 1.5}),
    ("gumbel", {"alpha": 3.0}),
    ("arch-w", None),
    ("spreeuw", None),
    ("evc-gumbel", {"alpha": 2.0}),
    ("mo", {"alpha": 0.5, "beta": 0.5}),
    ("mo", {"alpha": 0.7, "beta": 1.0}),
    ("tawn-sym", {"theta": 0.2}),
    ("tawn-sym", {"theta": 1.0}),
    ("tawn-mix", {"theta": 1.25, "kappa": -0.25}),
    ("evc-log", None),
    ("evc-jump", None),
]
# the grid-routed settings above, whose witnesses come from the search ladder
GRID_FAMILIES = [f for f in ALL_FAMILIES if REGISTRY[f[0]].kind == "core"]
# the Gaussian and FGM settings nearest the edges of their ranges, and Gaussian
# rho = -0.52, whose TP2 search stops after its first stage
CORE_EDGES = [
    ("gaussian", {"rho": -0.52}),
    ("gaussian", {"rho": 0.99}),
    ("gaussian", {"rho": -0.99}),
    ("fgm", {"theta": -1.0}),
]
CORE_FAMILIES = GRID_FAMILIES + CORE_EDGES
# every generator- and Pickands-level setting above, and the generator of Pi
ANALYTIC_FAMILIES = [f for f in ALL_FAMILIES if REGISTRY[f[0]].kind != "core"] + [("arch-pi", None)]
# every registry family: the settings of ALL_FAMILIES and the parameterless rest
REGISTRY_FAMILIES = ALL_FAMILIES + [(name, None) for name in REGISTRY if name not in dict(ALL_FAMILIES)]


def family_copulas():
    for name, params in ALL_FAMILIES:
        _, _, copula = build(name, params)
        yield copula


@pytest.fixture(scope="session", params=ALL_FAMILIES, ids=lambda fp: f"{fp[0]}-{fp[1]}")
def any_copula(request):
    name, params = request.param
    _, _, copula = build(name, params)
    return copula


@pytest.fixture(scope="session", params=ALL_FAMILIES, ids=lambda fp: f"{fp[0]}-{fp[1]}")
def any_family(request):
    """(spec-or-copula, copula, params) of every built-in family, as ``registry.build`` gives them."""
    name, params = request.param
    _, spec, copula = build(name, params)
    return spec, copula, params


def random_rectangles(rng, n, lo=0.001, hi=0.999):
    u = np.sort(rng.uniform(lo, hi, size=(n, 2)), axis=1)
    v = np.sort(rng.uniform(lo, hi, size=(n, 2)), axis=1)
    return u[:, 0], u[:, 1], v[:, 0], v[:, 1]


def frank_psi(theta):
    """Frank's generator from psi alone: phi is bisected, D-psi a finite difference of psi."""
    c = -np.expm1(-theta)
    psi = lambda x: -np.log1p(-c * np.exp(-np.asarray(x, dtype=float))) / theta
    return make_generator(psi=psi, phi_at_zero=np.inf, strict=True, label=f"frank-psi({theta:g})")


def kinked_exp(x_star, slope=0.5, second=False):
    """psi = e^(-x) with its slope multiplied by ``slope`` from ``x_star`` on, and its
    declared D-psi, which jumps at ``x_star``: so -D-psi is not log-convex, and SI fails.
    With ``second``, psi'' is declared too, and it jumps there as well."""

    def psi(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= x_star, np.exp(-x), np.exp(-(slope * x + (1.0 - slope) * x_star)))

    def d_minus_psi(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= x_star, -np.exp(-x), -slope * np.exp(-(slope * x + (1.0 - slope) * x_star)))

    def psi_second(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= x_star, np.exp(-x), slope * slope * np.exp(-(slope * x + (1.0 - slope) * x_star)))

    label = f"kinked-exp({x_star:g})" if slope == 0.5 else f"kinked-exp({x_star:g}, slope={slope:g})"
    return make_generator(
        psi=psi,
        d_minus_psi=d_minus_psi,
        phi_at_zero=np.inf,
        strict=True,
        psi_second=psi_second if second else None,
        label=label,
    )
