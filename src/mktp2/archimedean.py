"""Archimedean generators, their Markov kernels, and dependence classification.

An Archimedean copula is C(u,v) = psi(phi(u) + phi(v)) for a convex, strictly
decreasing generator phi with pseudo-inverse (co-generator) psi.  Its kernel
has the closed ratio form

    K(u, [0,v]) = D-psi(phi(u) + phi(v)) / D-psi(phi(u))

on the interior, where D-psi is the left-hand derivative; for non-strict
generators the kernel vanishes below the zero-level curve f0(u), which the
ratio reproduces automatically because D-psi is 0 beyond phi(0).

Classification rests on two exact equivalences: the copula is TP2 (equally,
LTD) iff psi is log-convex, and it is MK-TP2 (equally, SI) iff -D-psi is
log-convex.  A log-convex function is continuous, so the second scan also
reads a jump of D-psi as a violation; no separate test looks for jumps.
Both log-convexity scans sample x = phi(t) over an interior t-grid so the
test concentrates where the copula lives, and see nothing outside it.  A
triple on which -D-psi or psi'' fails maps to a rectangle whose SI, MK-TP2
or d-TP2 defect re-evaluates from the copula alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .core import Copula, Form, param_text
from .errors import NumericalError, ValidationError
from .grids import DEFAULT_GRID, Rectangle, crossing
from .properties import (
    PROPERTIES,
    Status,
    Verdict,
    Witness,
    _band,
    _require_known,
    check_pqd,
    log_convexity_test,
    rectangle_defect,
)

__all__ = [
    "GeneratorSpec",
    "make_generator",
    "builtin_archimedean",
    "arch_copula",
    "classify_archimedean",
    "property_verdicts",
]

_LOG2 = float(np.log(2.0))

# t-grid points whose image under phi the log-convexity scans sample
_X_SAMPLE_POINTS = 2001

# Newton steps of the Gumbel quantile: from its start, 6 steps bring r within
# 1e-14 of the root at every alpha in [1, 999] and (u, w) in [2^-53, 1)^2
# sampled, and a 7th to within rounding
_GUMBEL_NEWTON_STEPS = 7


@dataclass(frozen=True)
class GeneratorSpec:
    """An Archimedean generator with co-generator and one-sided derivative.

    ``phi_at_zero`` is phi(0), which decides :attr:`strict`.  D-psi may
    jump: the SI and MK-TP2 scan of -D-psi reads a jump inside its x-sample
    as a failure of log-convexity, and sees none outside it.
    ``psi_second`` is psi'' where declared (never derived): the d-TP2
    criterion and the density need it.  ``exact_derivative``
    is False when D-psi was not supplied but derived by finite differences;
    the SI and MK-TP2 certificates then carry ``"derivative":
    "finite-difference"``.  ``quantile``, where set, becomes the copula's
    :attr:`~mktp2.core.Copula.quantile`.
    """

    label: str
    phi: Callable
    psi: Callable
    d_minus_psi: Callable
    phi_at_zero: float
    psi_second: Optional[Callable] = None
    exact_derivative: bool = True
    quantile: Optional[Callable] = None

    def __repr__(self):
        return f"GeneratorSpec({self.label})"

    @property
    def strict(self):
        """phi(0) = inf: the copula has no zero region."""
        return self.phi_at_zero == np.inf


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def _fd_d_minus(psi):
    """Backward difference for D-psi, Richardson-extrapolated once.

    Step h = max(1e-7, 1e-7 x), clamped to x/2 so the backward node stays in
    the domain for very small x.
    """

    def d_minus(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        finite = np.isfinite(x) & (x > 0.0)
        xf = x[finite]
        h = np.minimum(np.maximum(1e-7, 1e-7 * xf), 0.5 * xf)
        base = np.asarray(psi(xf), dtype=float)
        d1 = (base - np.asarray(psi(xf - h), dtype=float)) / h
        d2 = (base - np.asarray(psi(xf - 0.5 * h), dtype=float)) / (0.5 * h)
        out[finite] = 2.0 * d2 - d1
        return out

    return d_minus


def _inverse_d_minus(phi, psi, cap):
    """D-psi(x) = 1 / phi'(psi(x)) by the inverse-function rule, for a psi searched from phi.

    phi' is a central difference of the given phi with step 1e-6 t, so each
    point costs one crossing search of psi.  D-psi is 0 at x >= phi(0) and
    wherever psi(x) = 0, which keeps the jump of a non-strict generator at
    phi(0).
    """

    def d_minus(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = (x > 0.0) & (x < cap)
        t = np.asarray(psi(x[inside]), dtype=float)
        h = 1e-6 * t
        with np.errstate(divide="ignore", invalid="ignore"):
            rise = np.asarray(phi(t + h), dtype=float) - np.asarray(phi(t - h), dtype=float)
            out[inside] = np.where(t > 0.0, 1.0 / (rise / (2.0 * h)), 0.0)
        return out

    return d_minus


def _least_at_most(f, level, top):
    """The least double x in (0, top] with f(x) <= level, for a non-increasing f
    above the level at 0: one :func:`~mktp2.grids.crossing` search a point,
    ``top`` where no double qualifies and NaN where the level is NaN.  The
    search evaluates f at neither end, so a top of +inf never reaches f; it
    reaches subnormal and huge x, where f may overflow."""
    below = lambda s: np.asarray(f(s), dtype=float) <= level
    with np.errstate(over="ignore", divide="ignore"):
        _, x = crossing(below, np.zeros_like(level), np.full_like(level, top))
    return np.where(np.isnan(level), np.nan, x)


def _validate_decreasing_convex(fn, xs, name):
    ys = np.asarray(fn(xs), dtype=float)
    finite = np.isfinite(ys)
    xs_f, ys_f = xs[finite], ys[finite]
    if len(xs_f) < 3:
        raise ValidationError(f"{name}: too few finite samples to validate")
    diffs = np.diff(ys_f)
    rising = diffs > 0.0
    if np.any(rising):
        k = int(np.argmax(rising))
        raise ValidationError(
            f"{name} is not non-increasing at t={xs_f[k]:.6g} "
            f"({ys_f[k]:.6g} -> {ys_f[k + 1]:.6g})"
        )
    scale = np.maximum(1.0, np.abs(ys_f[1:-1]))
    second = ys_f[:-2] - 2.0 * ys_f[1:-1] + ys_f[2:]
    bad = second < -1e-9 * scale
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ValidationError(
            f"{name} is not convex at t={xs_f[k + 1]:.6g} (second difference {second[k]:.3g})"
        )
    return ys


def make_generator(
    phi=None,
    psi=None,
    d_minus_psi=None,
    phi_at_zero=None,
    strict=None,
    psi_second=None,
    label="custom",
):
    """Build a :class:`GeneratorSpec` from closed forms of phi and/or psi.

    Whichever of the pair is missing is the exact inverse of the other, by
    one :func:`~mktp2.grids.crossing` search a point: psi(x) is the least t
    in [0, 1] with phi(t) <= x, and phi(t) the least x in [0, +inf] with
    psi(x) <= t, +inf where psi stays above t at every finite double.  A NaN
    argument gives NaN.  A psi-only finite phi(0) is the least x in [0, 1e8]
    with psi(x) = 0.  A missing D-psi is
    1 / phi'(psi(x)) when psi is the searched one, else a one-sided finite
    difference of psi.  The supplied function is validated as convex and
    non-increasing on a 1000-point grid.  A declared ``phi_at_zero`` overrides detection, which
    matters for co-generators that underflow to zero in floating point; it
    decides strictness (phi(0) = inf), and a declared ``strict`` must agree
    with it.  psi'' is never derived: without a declared ``psi_second``,
    d-TP2 reads not-applicable, and its note "not declared
    twice-differentiable" means no ``psi_second``.
    """
    if phi is None and psi is None:
        raise ValidationError("supply phi, psi, or both")

    if phi is not None:
        ts = np.linspace(1e-6, 1.0, 1000)
        _validate_decreasing_convex(lambda t: np.asarray(phi(t), dtype=float), ts, "phi")
        end = float(phi(1.0))
        if not abs(end) <= 1e-9:
            raise ValidationError(f"phi(1) must be 0, got {end:.3g}")
        if phi_at_zero is None:
            with np.errstate(divide="ignore", over="ignore"):
                phi_at_zero = float(phi(0.0))
    else:
        xs = np.linspace(0.0, 20.0, 1000)
        _validate_decreasing_convex(lambda x: np.asarray(psi(x), dtype=float), xs, "psi")
        at0 = float(psi(0.0))
        if not abs(at0 - 1.0) <= 1e-9:
            raise ValidationError(f"psi(0) must be 1, got {at0:.6g}")
        if phi_at_zero is None:
            if float(psi(1e8)) > 0.0:
                phi_at_zero = np.inf
            else:
                phi_at_zero = float(_least_at_most(psi, 0.0, 1e8))

    phi_at_zero = float(phi_at_zero)
    if not phi_at_zero > 0.0:
        raise ValidationError(f"phi(0) must be positive or inf, got {phi_at_zero!r}")
    if strict is not None and bool(strict) != (phi_at_zero == np.inf):
        raise ValidationError(f"declared strict={strict!r} but phi(0) = {phi_at_zero!r}")

    exact = d_minus_psi is not None
    if psi is None:
        cap = phi_at_zero

        def psi(x, _phi=phi, _cap=cap):
            x = np.asarray(x, dtype=float)
            out = np.where(x >= _cap, 0.0, _least_at_most(_phi, x, 1.0))
            return np.where(x <= 0.0, 1.0, out)

        if d_minus_psi is None:
            d_minus_psi = _inverse_d_minus(phi, psi, cap)

    if phi is None:
        def phi(t, _psi=psi, _at_zero=phi_at_zero):
            t = np.asarray(t, dtype=float)
            out = np.where(t <= 0.0, _at_zero, _least_at_most(_psi, t, np.inf))
            return np.where(t >= 1.0, 0.0, out)

    if d_minus_psi is None:
        d_minus_psi = _fd_d_minus(psi)

    return GeneratorSpec(
        label=label,
        phi=phi,
        psi=psi,
        d_minus_psi=d_minus_psi,
        phi_at_zero=phi_at_zero,
        psi_second=psi_second,
        exact_derivative=exact,
    )


# ---------------------------------------------------------------------------
# built-in generators
# ---------------------------------------------------------------------------


def _gumbel_spec(alpha, label):
    a = float(alpha)

    def psi(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            return np.exp(-np.power(x, 1.0 / a) * _LOG2)

    def phi(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            return np.power(-np.log(t) / _LOG2, a)

    def d_minus_psi(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = np.isfinite(x) & (x > 0.0)
        xp = x[pos]
        r = np.power(xp, 1.0 / a)
        out[pos] = -(_LOG2 / a) * np.power(xp, 1.0 / a - 1.0) * np.exp(-r * _LOG2)
        return out

    def psi_second(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = np.isfinite(x) & (x > 0.0)
        xp = x[pos]
        r = np.power(xp, 1.0 / a)
        base = np.exp(-r * _LOG2)
        out[pos] = (
            (_LOG2 / a)
            * np.power(xp, 1.0 / a - 2.0)
            * base
            * ((_LOG2 / a) * r + (1.0 - 1.0 / a))
        )
        return out

    @np.errstate(divide="ignore")
    def neg_log(p):
        return -np.log(p)

    # K(u, v) = w reads z + (a - 1) log z = x + (a - 1) log x - log w for
    # z = (x^a + y^a)^(1/a), x = -log u and y = -log v.  In r = log(z / x) it
    # reads x expm1(r) + (a - 1) r = -log w, convex and increasing in r, so
    # Newton from z = x - log w, which lies right of the root, approaches it
    # from the right; then y = z (1 - exp(-a r))^(1/a) and v = exp(-y)
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def quantile(x, level):
        r = np.log1p(level / x)
        for _ in range(_GUMBEL_NEWTON_STEPS):
            grown = x * np.expm1(r)
            r = r - (grown + (a - 1.0) * r - level) / (grown + x + (a - 1.0))
        return np.exp(-x * np.exp(r) * np.power(-np.expm1(-a * r), 1.0 / a))

    return GeneratorSpec(
        label=label,
        phi=phi,
        psi=psi,
        d_minus_psi=d_minus_psi,
        phi_at_zero=np.inf,
        psi_second=psi_second,
        quantile=Form(quantile, neg_log, neg_log),
    )


def _w_spec():
    def phi(t):
        return 1.0 - np.asarray(t, dtype=float)

    def psi(x):
        return np.maximum(1.0 - np.asarray(x, dtype=float), 0.0)

    def d_minus_psi(x):
        x = np.asarray(x, dtype=float)
        return np.where((x > 0.0) & (x <= 1.0), -1.0, 0.0)

    return GeneratorSpec(
        label="w-generator",
        phi=phi,
        psi=psi,
        d_minus_psi=d_minus_psi,
        phi_at_zero=1.0,
    )


def _spreeuw_spec():
    def psi(x):
        x = np.asarray(x, dtype=float)
        return np.power(x + np.sqrt(1.0 + x * x), -0.1)

    def phi(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):
            return 0.5 * (np.power(t, -10.0) - np.power(t, 10.0))

    def d_minus_psi(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        fin = np.isfinite(x)
        xf = x[fin]
        out[fin] = -psi(xf) / (10.0 * np.sqrt(1.0 + xf * xf))
        return out

    def psi_second(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        fin = np.isfinite(x)
        xf = x[fin]
        s2 = 1.0 + xf * xf
        out[fin] = psi(xf) * (1.0 / (100.0 * s2) + xf / (10.0 * np.power(s2, 1.5)))
        return out

    return GeneratorSpec(
        label="spreeuw",
        phi=phi,
        psi=psi,
        d_minus_psi=d_minus_psi,
        phi_at_zero=np.inf,
        psi_second=psi_second,
    )


def builtin_archimedean(name, **params):
    """Exact built-in generators: gumbel(alpha >= 1), pi, w, spreeuw."""
    key = name.lower()
    if key == "gumbel":
        alpha = float(params.pop("alpha", 1.0))
        if params:
            raise ValidationError(f"gumbel takes only alpha, got extras {sorted(params)}")
        if not alpha >= 1.0:
            raise ValidationError(f"gumbel needs alpha >= 1, got {alpha}")
        if not np.isfinite(alpha):
            raise ValidationError(f"gumbel parameter 'alpha' must be finite, got {alpha}")
        return _gumbel_spec(alpha, f"gumbel(alpha={param_text(alpha)})")
    if params:
        raise ValidationError(f"{name} takes no parameters, got {sorted(params)}")
    if key == "pi":
        return _gumbel_spec(1.0, "pi-generator")
    if key == "w":
        return _w_spec()
    if key == "spreeuw":
        return _spreeuw_spec()
    raise ValidationError(f"unknown archimedean family {name!r}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def arch_copula(spec):
    """Wrap a generator as a :class:`~mktp2.core.Copula` of per-axis forms, each axis
    prepped with phi; the kernel's u-prep also holds D-psi(phi(u)), taken at u = 0.5
    off (0, 1), where the kernel is 1, and raises for a strict generator where it is 0.
    Its ``analytic`` verdicts are :func:`property_verdicts` of ``spec``."""

    def phi_of(p):
        with np.errstate(invalid="ignore"):
            return np.asarray(spec.phi(np.clip(p, 0.0, 1.0)), dtype=float)

    def cdf(x, y):
        with np.errstate(invalid="ignore"):
            total = x + y
            out = np.asarray(spec.psi(np.where(np.isnan(total), np.inf, total)), dtype=float)
        return np.clip(out, 0.0, 1.0)

    def kernel_u(u):
        interior = (u > 0.0) & (u < 1.0)
        x = phi_of(np.where(interior, u, 0.5))
        den = np.asarray(spec.d_minus_psi(x), dtype=float)
        bad = interior & (den == 0.0)
        if spec.strict and np.any(bad):
            offender = float(np.atleast_1d(u)[np.atleast_1d(bad)][0])
            raise NumericalError(
                f"{spec.label}: D-psi(phi(u)) evaluated to 0 at u={offender:.6g} "
                "although the generator is declared strict"
            )
        negative = den < 0.0
        return interior, x, negative, np.where(negative, den, -1.0)

    def kernel(pu, y):
        interior, x, negative, den = pu
        with np.errstate(invalid="ignore"):
            total = x + y
            num = np.asarray(spec.d_minus_psi(np.where(np.isnan(total), np.inf, total)), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(negative, num / den, 0.0)
        # adding +0.0 turns the -0.0 of 0 / D-psi(phi(u)) < 0 into +0.0
        return np.where(interior, np.clip(ratio, 0.0, 1.0) + 0.0, 1.0)

    density = None
    if spec.strict and spec.psi_second is not None:

        # phi, D-psi and psi'' may leave the double range (Gumbel alpha near 1000);
        # the density scans read the non-finite values as inconclusive
        @np.errstate(over="ignore", divide="ignore", invalid="ignore")
        def density_prep(p):
            x = np.asarray(spec.phi(p), dtype=float)
            return x, np.asarray(spec.d_minus_psi(x), dtype=float)

        @np.errstate(over="ignore", divide="ignore", invalid="ignore")
        def density_combine(pu, pv):
            (x, dx), (y, dy) = pu, pv
            return np.asarray(spec.psi_second(x + y), dtype=float) / (dx * dy)

        density = Form(density_combine, density_prep, density_prep)

    cdf, kernel = Form(cdf, phi_of, phi_of), Form(kernel, kernel_u, phi_of)
    return Copula(spec.label, cdf, kernel, density, partial(property_verdicts, spec), spec.quantile)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def generator_x_sample(spec, grid=DEFAULT_GRID):
    """x-grid for log-convexity scans: the image of an interior t-grid under phi,
    where it is a finite normal double (a subnormal phi(t) has lost its digits)."""
    ts = np.linspace(grid.margin, 1.0 - grid.margin, _X_SAMPLE_POINTS)
    xs = np.asarray(spec.phi(ts), dtype=float)
    xs = np.sort(xs[np.isfinite(xs) & (xs >= np.finfo(float).tiny)])
    return np.unique(xs)


# the top edge of the SI and MK-TP2 rectangles: K(u, 1 - 2^-53) rounds to 1, so the
# MK-TP2 cross defect of the rectangle is the SI defect of its bottom edge
_BELOW_ONE = 1.0 - 2.0**-53


def _rectangle_witnesses(copula, rects):
    """The witness of each property on its rectangle, ``{prop: rect} -> {prop: Witness}``:
    each re-evaluates through :func:`rectangle_defect`, so ``check --rect``
    reproduces it bit for bit."""
    witnesses = {}
    for prop, rect in rects.items():
        defect, values = rectangle_defect(copula, prop, rect)
        witnesses[prop] = Witness(points=rect.as_tuple(), values=values, defect=defect, kind="rectangle")
    return witnesses


def _nonstrict_rectangle(spec):
    """One rectangle [a, c]^2 that refutes LTD, SI, TP2 and MK-TP2, a = psi(3/4 phi(0))
    and c = psi(1/8 phi(0)).

    2 phi(a) lies beyond phi(0), so C and K vanish at (a, a) but not at the
    other three corners; at v = a the rectangle also breaks LTD and SI.
    """
    a = float(spec.psi(0.75 * spec.phi_at_zero))
    c = float(spec.psi(0.125 * spec.phi_at_zero))
    return Rectangle(a, c, a, c)


def _kernel_rectangles(spec, triple):
    """SI and MK-TP2 rectangles of a -D-psi triple (x0, x1, x2), one for each
    spacing d, x1 - x0 and then x2 - x1: (psi(x1), psi(x1 - d), psi(d), 1 - 2^-53).

    With f = -D-psi, phi(u2) + phi(v1) = x1 and phi(u1) + phi(v1) = x1 + d, so
    K(u2, v1) - K(u1, v1) = f(x1)/f(x1 - d) - f(x1 + d)/f(x1), positive where log f
    lies above its chord over (x1 - d, x1 + d); at even spacing that is the
    triple's own failure.  Uneven spacing moves the outer point, so the
    spacing x2 - x1 is the second candidate, unless psi(x1 - d) is 1 there
    (d at or near x1).  psi is convex, so 1 - psi(d) >= psi(x1 - d) - psi(x1)
    and v1 < 1 wherever u1 < u2.
    """
    x0, x1, x2 = triple
    u1 = float(spec.psi(x1))
    for d in dict.fromkeys((x1 - x0, x2 - x1)):
        u2 = float(spec.psi(x1 - d)) if d < x1 else 1.0
        if u2 < 1.0:
            yield Rectangle(u1, u2, float(spec.psi(d)), _BELOW_ONE)


def _density_rectangle(spec, triple):
    """The d-TP2 rectangle of a psi'' triple (x0, x1, x2): with d = min(x1 - x0, x2 - x1),
    a2 = (x1 - d)/2 and a1 = a2 + d, the square (psi(a1), psi(a2))^2.

    Its corners sum to phi(u1) + phi(v1) = x1 + d, phi(u2) + phi(v2) = x1 - d and
    x1 off the diagonal, and the D-psi factors of the density cancel in the
    cross ratio, which is g(x1)^2 / (g(x1 - d) g(x1 + d)) with g = psi''.
    """
    x0, x1, x2 = triple
    d = min(x1 - x0, x2 - x1)
    a2 = 0.5 * (x1 - d)
    u1, u2 = float(spec.psi(a2 + d)), float(spec.psi(a2))
    return Rectangle(u1, u2, u1, u2)


def _confirmed(verdict, copula, rects, props, grid):
    """``{prop: verdict}`` for the props that share a failing triple verdict, each with its
    rectangle witness on the first of ``rects`` where every one of them fails.

    Where no rectangle does, all of them read inconclusive, with no witness
    and a note naming the triple, its defect and the best rectangle's.
    """
    best = -np.inf
    for rect in rects:
        found = _rectangle_witnesses(copula, dict.fromkeys(props, rect))
        defect = min(w.defect for w in found.values())
        if _band(defect, grid.tol_eq, grid.tol_strict) is Status.FAILS:
            return {p: replace(verdict, witness=w) for p, w in found.items()}
        best = max(best, defect)
    x0, x1, x2 = verdict.witness.points
    note = (
        f"the triple ({x0:.6g}, {x1:.6g}, {x2:.6g}) breaks log-convexity by {verdict.witness.defect:.3g}, "
        f"but no rectangle built from it re-evaluates above tol_strict (best defect {best:.3g})"
    )
    return dict.fromkeys(props, Verdict(Status.INCONCLUSIVE, None, verdict.certificate, note))


def classify_archimedean(spec, grid=DEFAULT_GRID):
    """Generator-level verdicts of LTD, SI, TP2, MK-TP2 and D-TP2, keyed by property.

    TP2 <-> LTD and MK-TP2 <-> SI are exact equivalences at generator level,
    so each pair shares its status, certificate and note.  Non-strict
    generators short-circuit: their copulas vanish on an interior region,
    which refutes LTD/TP2/SI/MK-TP2 on one rectangle, and each property gets
    its own witness there.  Strict generators run the two log-convexity
    scans, of psi and of -D-psi, on the x-sample of
    :func:`generator_x_sample`; a jump of D-psi inside it breaks the
    log-convexity of -D-psi there, one outside it is not seen.  The d-TP2
    criterion, log-convexity of psi'', runs only on a declared
    ``psi_second``, at the grid tolerances.  A failing -D-psi or psi''
    triple is turned into a rectangle (:func:`_kernel_rectangles`,
    :func:`_density_rectangle`) whose witness re-evaluates through
    :func:`rectangle_defect`; where that rectangle's defect is not above
    ``tol_strict`` the verdict reads inconclusive instead.  A failing psi
    triple (LTD and TP2) is kept as it is.
    """
    if not spec.strict:
        note = "non-strict generator: copula vanishes on an interior region"
        tp2 = mktp2 = Verdict(Status.FAILS, None, {"method": "analytic:non-strict"}, note)
        dtp2 = Verdict(
            Status.NOT_APPLICABLE,
            None,
            {"method": "analytic:non-strict"},
            "non-strict copulas carry a singular part",
        )
    else:
        xs = generator_x_sample(spec, grid)
        if len(xs) < 3:
            raise NumericalError(
                f"{spec.label}: phi is finite and positive at {len(xs)} of {_X_SAMPLE_POINTS} "
                "t-grid points; the generator leaves the double range"
            )
        tol = (grid.tol_eq, grid.tol_strict)
        tp2 = _tag_analytic(log_convexity_test(spec.psi, xs, *tol), "psi-log-convexity")
        neg_d = lambda x: -np.asarray(spec.d_minus_psi(x), dtype=float)
        mktp2 = _tag_analytic(log_convexity_test(neg_d, xs, *tol), "neg-dminus-psi-log-convexity")
        if spec.psi_second is not None:
            dtp2 = _tag_analytic(log_convexity_test(spec.psi_second, xs, *tol), "psi-second-log-convexity")
        else:
            dtp2 = Verdict(
                Status.NOT_APPLICABLE,
                None,
                {"method": "psi-second-log-convexity"},
                "co-generator not declared twice-differentiable",
            )
    if not spec.exact_derivative:
        # the verdict read D-psi, and D-psi was derived, not declared
        derived = {**mktp2.certificate, "derivative": "finite-difference"}
        mktp2 = replace(mktp2, certificate=derived)
    table = {"ltd": tp2, "si": mktp2, "tp2": tp2, "mktp2": mktp2, "dtp2": dtp2}
    if not spec.strict:
        rect = _nonstrict_rectangle(spec)
        found = _rectangle_witnesses(arch_copula(spec), dict.fromkeys(("ltd", "si", "tp2", "mktp2"), rect))
        table.update({p: replace(table[p], witness=w) for p, w in found.items()})
        return table
    if Status.FAILS in (mktp2.status, dtp2.status):
        copula = arch_copula(spec)
        if mktp2.status is Status.FAILS:
            rects = _kernel_rectangles(spec, mktp2.witness.points)
            table.update(_confirmed(mktp2, copula, rects, ("si", "mktp2"), grid))
        if dtp2.status is Status.FAILS:
            rects = [_density_rectangle(spec, dtp2.witness.points)]
            table.update(_confirmed(dtp2, copula, rects, ("dtp2",), grid))
    return table


def _tag_analytic(verdict, name):
    """Mark a criterion verdict as an analytic equivalence, keeping scan details."""
    return replace(
        verdict, certificate={"method": f"analytic:{name}", "scan": verdict.certificate}
    )


def property_verdicts(spec, grid=DEFAULT_GRID, props=PROPERTIES):
    """Verdicts of ``props``: the generator classification's, and PQD, which
    follows from LTD when it holds and otherwise falls back to a grid scan."""
    _require_known(props)
    table = classify_archimedean(spec, grid)
    if "pqd" in props:
        if table["ltd"].status is Status.HOLDS:
            table["pqd"] = Verdict(Status.HOLDS, None, {"method": "analytic:ltd-implies-pqd"})
        else:
            table["pqd"] = check_pqd(arch_copula(spec), grid)
    return {p: table[p] for p in props}
