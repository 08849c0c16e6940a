"""Baseline copulas and closed-form families with explicit Markov kernels.

A :class:`Copula` bundles the joint CDF ``C(u,v)``, a version of the Markov
kernel ``K(u, [0,v])`` (the conditional distribution of V given U = u), an
optional density for absolutely continuous families, optional analytic
verdicts and an optional conditional quantile ``q(u, w)`` of the kernel.
The CDF, kernel, density and quantile are vectorized over numpy arrays and
pure; the built-in families give each as a per-axis :class:`Form`, and any
other callable is run as one with identity preps (:func:`as_form`).

Kernel versions at null sets follow the right-continuous convention: at a
jump point in v (e.g. v = u for the comonotonicity copula), the kernel takes
the upper value, which keeps grid scans deterministic.

:func:`make_gaussian` imports :mod:`mktp2.normal` (and with it SciPy) when it
is called, so a process that builds no Gaussian copula never loads SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """A bivariate copula exposed through its CDF and Markov kernel; ``analytic(grid, props)``,
    where set, gives the family's generator- or Pickands-level verdicts of ``props`` by property.

    ``density(u, v)``, where set, declares the copula absolutely continuous:
    d-TP2 reads it, and :func:`mktp2.sampler.sample` takes it to mean that
    K(u, [0, v]) is continuous in v, so a copula with a density but no
    quantile has each draw guessed by secant steps on the kernel.

    ``quantile(u, w)``, where set, is a closed form of the kernel's generalized
    inverse inf{v : K(u, [0,v]) >= w} (the conditional distribution method).
    It need not be exact: :func:`mktp2.sampler.sample` takes it only as a guess
    of the 2^-34 cell its bisection would end in, in place of the secant's,
    keeps the guess where the kernel confirms that cell and bisects the draws
    where it does not.  Where the kernel's float values are monotone in v, a
    declared quantile changes no sample bit, only the number of kernel
    evaluations."""

    label: str
    cdf: Callable
    kernel: Callable
    density: Optional[Callable] = None
    analytic: Optional[Callable] = None
    quantile: Optional[Callable] = None

    def __repr__(self):
        return f"Copula({self.label})"


# points per combine of a pointwise call: the preps and the combine's
# temporaries of a chunk stay near 2 MB, whatever the number of points
_CHUNK = 1 << 14


@dataclass(frozen=True)
class Form:
    """A bivariate quantity in per-axis form: ``combine(prep_u(u), prep_v(v))``.

    The preps compute what depends on one coordinate alone, and ``combine``
    broadcasts, so a grid or the sampler can prep an axis once.  Calling a
    form broadcasts u and v, preps and combines (a float for scalar input).
    Each combine does the pointwise formula's float operations in its order,
    so every path gives the same bits; a call combines its points 2^14 at
    a time.

    ``symmetric`` declares that the form at (a, b) has the bits of the form
    at (b, a), for every a and b; a square grid then needs only the values
    on and above its diagonal (:func:`mktp2.properties._row_stream`).
    """

    combine: Callable
    prep_u: Callable = lambda p: p
    prep_v: Callable = lambda p: p
    symmetric: bool = False

    def __call__(self, u, v):
        uu, vv = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        out = np.empty(uu.shape)
        flat = out.reshape(-1)
        for i in range(0, uu.size, _CHUNK):
            at = slice(i, i + _CHUNK)
            flat[at] = self.combine(self.prep_u(uu.flat[at]), self.prep_v(vv.flat[at]))
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
            quantile=Form(lambda u, w: w + 0.0 * u),
        )
    if key == "m":
        return Copula(
            label="M",
            cdf=Form(np.minimum),
            kernel=Form(lambda u, v: np.where(v >= u, 1.0, 0.0)),
            quantile=Form(lambda u, w: u + 0.0 * w),
        )
    if key == "w":
        return Copula(
            label="W",
            cdf=Form(lambda u, v: np.maximum(u + v - 1.0, 0.0)),
            kernel=Form(lambda u, v: np.where(v >= 1.0 - u, 1.0, 0.0)),
            quantile=Form(lambda u, w: 1.0 - u + 0.0 * w),
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

    # the v at which mid * v reaches w, the level less the atoms below v; with
    # mid = 0 it is reached at v = 0 by a level <= 0 and nowhere by one above
    if mid > 0.0:
        level = lambda w: w / mid
    else:
        level = lambda w: np.where(w > 0.0, np.inf, 0.0)

    def quantile(u, w):
        # the first of the atoms at u (weight alpha) and at 1 - u (beta) is at lo
        first = u <= 0.5
        lo, hi = np.where(first, u, 1.0 - u), np.where(first, 1.0 - u, u)
        j_lo, j_hi = np.where(first, alpha, beta), np.where(first, beta, alpha)
        below, between, above = level(w), level(w - j_lo), level(w - j_lo - j_hi)
        return np.where(
            below <= lo,
            below,
            np.where(between <= lo, lo, np.where(between <= hi, between, np.where(above <= hi, hi, above))),
        )

    density = Form(lambda u, v: np.full_like(u * v, mid)) if alpha == 0.0 and beta == 0.0 else None
    return Copula(
        label=f"frechet(alpha={param_text(alpha)}, beta={param_text(beta)})",
        cdf=Form(cdf),
        kernel=Form(kernel),
        density=density,
        quantile=Form(quantile),
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

    def quantile(c, w):
        # the root in [0, 1] of c v^2 - (1 + c) v + w = 0, c = theta (1 - 2u), in
        # the form without cancellation; its denominator is 0 only at c = -1, w = 0
        b = 1.0 + c
        den = b + np.sqrt(np.maximum(b * b - 4.0 * c * w, 0.0))
        return 2.0 * w / np.where(den > 0.0, den, 1.0)

    return Copula(
        label=f"fgm(theta={param_text(theta)})",
        cdf=Form(cdf),
        kernel=Form(kernel),
        density=Form(density),
        quantile=Form(quantile, lambda u: theta * (1.0 - 2.0 * u)),
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
    from .normal import bvn_combine, bvn_prep, std_normal_cdf, std_normal_quantile

    s = np.sqrt(1.0 - rho * rho)

    def quantile_clipped(p):
        # interior evaluation only; boundary handled by masks below
        return std_normal_quantile(np.clip(p, 1e-300, 1.0 - 1e-16))

    def prep(p):
        # off (0, 1) the quantile is taken at 0.5, and the masks below overwrite it
        inside = (p > 0.0) & (p < 1.0)
        return p, inside, quantile_clipped(np.where(inside, p, 0.5))

    def cdf_prep(p):
        p, inside, x = prep(p)
        return (p, inside, *bvn_prep(x, rho))

    def cdf(pu, pv):
        (u, u_int, *px), (v, v_int, *py) = pu, pv
        return np.where(u_int & v_int, bvn_combine(px, py, rho), np.minimum(u, v))

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

    def quantile(pu, s_z):
        # Phi(rho x + s Phi^-1(w)), x = Phi^-1(u)
        return std_normal_cdf(pu[1] + s_z)

    def density(pu, pv):
        (_, two_rho_x, xx), (y, _, yy) = pu, pv
        expo = (two_rho_x * y - rho * rho * (xx + yy)) / (2.0 * s * s)
        return np.exp(expo) / s

    return Copula(
        label=f"gaussian(rho={param_text(rho)})",
        cdf=Form(cdf, cdf_prep, cdf_prep, symmetric=True),
        kernel=Form(kernel, kernel_u, prep),
        density=Form(density, density_prep, density_prep),
        quantile=Form(quantile, kernel_u, lambda w: s * quantile_clipped(w)),
    )
