"""Baseline copulas and closed-form families with explicit Markov kernels.

A :class:`Copula` bundles the joint CDF ``C(u,v)``, a version of the Markov
kernel ``K(u, [0,v])`` (the conditional distribution of V given U = u), an
optional density for absolutely continuous families, and metadata used by
the scanners.  All callables are vectorized over numpy arrays and pure; the
built-in families give each as a per-axis :class:`Form`, and any other
callable is run as one with identity preps (:func:`as_form`).

Kernel versions at null sets follow the right-continuous convention: at a
jump point in v (e.g. v = u for the comonotonicity copula), the kernel takes
the upper value, which keeps grid scans deterministic.

:func:`make_gaussian` imports :mod:`mktp2.normal` (and with it SciPy) when it
is called, so a process that builds no Gaussian copula never loads SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError

__all__ = [
    "Copula",
    "Form",
    "as_form",
    "make_baseline",
    "make_frechet",
    "make_fgm",
    "make_gaussian",
    "param_text",
]


@dataclass(frozen=True)
class Copula:
    """A bivariate copula exposed through its CDF and Markov kernel."""

    label: str
    cdf: Callable
    kernel: Callable
    density: Optional[Callable] = None
    params: dict = field(default_factory=dict)

    def __repr__(self):
        return f"Copula({self.label})"


@dataclass(frozen=True)
class Form:
    """A bivariate quantity in per-axis form: ``combine(prep_u(u), prep_v(v))``.

    The preps compute what depends on one coordinate alone, and ``combine``
    broadcasts, so a grid or the sampler can prep an axis once.  Calling a
    form broadcasts u and v, preps and combines (a float for scalar input).
    Each combine does the pointwise formula's float operations in its order,
    so every path gives the same bits.
    """

    combine: Callable
    prep_u: Callable = lambda p: p
    prep_v: Callable = lambda p: p

    def __call__(self, u, v):
        uu, vv = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        out = self.combine(self.prep_u(uu), self.prep_v(vv))
        return float(out) if np.ndim(u) == 0 and np.ndim(v) == 0 else out


def param_text(x):
    """A float parameter's text in a family label: ``:g`` where that reads back as ``x``, else ``repr``."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def as_form(fn):
    """``fn`` if it is a :class:`Form`, else the identity-prep form calling ``fn`` on broadcast u, v."""
    return fn if isinstance(fn, Form) else Form(lambda u, v: fn(*np.broadcast_arrays(u, v)))


# ---------------------------------------------------------------------------
# baselines Pi, M, W
# ---------------------------------------------------------------------------


def make_baseline(name):
    """The three baseline copulas: independence Pi, comonotone M, countermonotone W."""
    key = name.lower()
    if key == "pi":
        return Copula(
            label="Pi",
            cdf=Form(lambda u, v: u * v),
            kernel=Form(lambda u, v: v + 0.0 * u),
            density=Form(lambda u, v: np.ones_like(u * v)),
        )
    if key == "m":
        return Copula(
            label="M",
            cdf=Form(np.minimum),
            kernel=Form(lambda u, v: np.where(v >= u, 1.0, 0.0)),
        )
    if key == "w":
        return Copula(
            label="W",
            cdf=Form(lambda u, v: np.maximum(u + v - 1.0, 0.0)),
            kernel=Form(lambda u, v: np.where(v >= 1.0 - u, 1.0, 0.0)),
        )
    raise ValidationError(f"unknown baseline {name!r}; expected one of Pi, M, W")


# ---------------------------------------------------------------------------
# Frechet mixtures  alpha*M + (1-alpha-beta)*Pi + beta*W
# ---------------------------------------------------------------------------

# alpha + beta may exceed 1 by this much, the rounding of weights that sum to 1
_FRECHET_SUM_TOL = 1e-12


def make_frechet(alpha, beta):
    """Frechet copula: convex mixture of M, Pi and W with weights alpha, beta."""
    alpha = float(alpha)
    beta = float(beta)
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValidationError(f"frechet weights must lie in [0,1], got alpha={alpha}, beta={beta}")
    if alpha + beta > 1.0 + _FRECHET_SUM_TOL:
        raise ValidationError(f"frechet needs alpha + beta <= 1, got {alpha + beta}")
    mid = 1.0 - alpha - beta

    def cdf(u, v):
        return alpha * np.minimum(u, v) + mid * u * v + beta * np.maximum(u + v - 1.0, 0.0)

    def kernel(u, v):
        return (
            alpha * np.where(v >= u, 1.0, 0.0)
            + mid * v
            + beta * np.where(v >= 1.0 - u, 1.0, 0.0)
        )

    density = Form(lambda u, v: np.full_like(u * v, mid)) if alpha == 0.0 and beta == 0.0 else None
    return Copula(
        label=f"frechet(alpha={param_text(alpha)}, beta={param_text(beta)})",
        cdf=Form(cdf),
        kernel=Form(kernel),
        density=density,
        params={"alpha": alpha, "beta": beta},
    )


# ---------------------------------------------------------------------------
# Farlie-Gumbel-Morgenstern
# ---------------------------------------------------------------------------


def make_fgm(theta):
    """FGM copula C(u,v) = uv + theta uv(1-u)(1-v), theta in [-1, 1]."""
    theta = float(theta)
    if not (-1.0 <= theta <= 1.0):
        raise ValidationError(f"fgm needs |theta| <= 1, got {theta}")

    def cdf(u, v):
        return u * v * (1.0 + theta * (1.0 - u) * (1.0 - v))

    def kernel(u, v):
        return v + theta * v * (1.0 - v) * (1.0 - 2.0 * u)

    def density(u, v):
        return 1.0 + theta * (1.0 - 2.0 * u) * (1.0 - 2.0 * v)

    return Copula(
        label=f"fgm(theta={param_text(theta)})",
        cdf=Form(cdf),
        kernel=Form(kernel),
        density=Form(density),
        params={"theta": theta},
    )


# ---------------------------------------------------------------------------
# Gaussian
# ---------------------------------------------------------------------------


def make_gaussian(rho):
    """Gaussian copula with correlation rho, 0 < |rho| < 1 (use Pi for rho = 0)."""
    rho = float(rho)
    if not (-1.0 < rho < 1.0):
        raise ValidationError(f"gaussian needs rho in (-1, 1), got {rho}")
    if rho == 0.0:
        raise ValidationError("gaussian with rho = 0 is the independence copula; use Pi")
    from .normal import bivariate_normal_cdf, std_normal_cdf, std_normal_quantile

    s = np.sqrt(1.0 - rho * rho)

    def quantile_clipped(p):
        # interior evaluation only; boundary handled by masks below
        return std_normal_quantile(np.clip(p, 1e-300, 1.0 - 1e-16))

    def prep(p):
        # off (0, 1) the quantile is taken at 0.5, and the masks below overwrite it
        inside = (p > 0.0) & (p < 1.0)
        return p, inside, quantile_clipped(np.where(inside, p, 0.5))

    def cdf(pu, pv):
        (u, u_int, x), (v, v_int, y) = pu, pv
        return np.where(u_int & v_int, bivariate_normal_cdf(x, y, rho), np.minimum(u, v))

    def kernel_u(u):
        _, u_int, x = prep(u)
        return u_int, rho * x

    def kernel(pu, pv):
        (u_int, rho_x), (v, v_int, y) = pu, pv
        base = std_normal_cdf((y - rho_x) / s)
        # K(u, 0) = 0 and K(u, 1) = 1; 1 at u off (0, 1) by convention
        return np.where(u_int, np.where(v_int, base, v), 1.0)

    def density_prep(p):
        x = quantile_clipped(p)
        return x, 2.0 * rho * x, x * x

    def density(pu, pv):
        (_, two_rho_x, xx), (y, _, yy) = pu, pv
        expo = (two_rho_x * y - rho * rho * (xx + yy)) / (2.0 * s * s)
        return np.exp(expo) / s

    return Copula(
        label=f"gaussian(rho={param_text(rho)})",
        cdf=Form(cdf, prep, prep),
        kernel=Form(kernel, kernel_u, prep),
        density=Form(density, density_prep, density_prep),
        params={"rho": rho},
    )
