"""Extreme-value copulas through their Pickands dependence functions.

An EVC is C(u,v) = (uv)^{A(h(u,v))} with h(u,v) = log(u)/log(uv) and a convex
A between max(1-t, t) and 1.  Its Markov kernel is

    K(u, [0,v]) = (C(u,v)/u) * F(h(u,v)),    F(t) = A(t) + (1-t) D+A(t),

with F(1) := 1; F (the kernel's multiplicative cap) is non-decreasing and
non-negative.  Every EVC is TP2 and SI.  Whether it is also MK-TP2 is decided
by a short tree on the right derivative of A at 0:

  * D+A(0) = 0: A == 1, the copula is independence, MK-TP2 holds;
  * D+A(0) in (-1, 0): never MK-TP2 (a witness rectangle is constructible);
  * D+A(0) = -1: MK-TP2 forces A = 1-t up to the single allowed kink of
    D+A, rules out plateaus of F at levels inside (0,1), and otherwise
    reduces to TP2 of F o h, tested via the monotone-ratio criterion
    t -> t(1-t) F'(t)/F(t) non-increasing where A'' is declared.

The witness constructors return rectangles that are re-checkable through the
kernel alone: each accepts a rectangle only when its ``rectangle_defect``
K12*K21 - K11*K22 is above ``tol_strict`` (the banding rule of the grid scans),
so its cross ratio K11*K22 / (K12*K21) falls below one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .core import Copula, Form, param_text
from .errors import SearchFailed, ValidationError
from .grids import DEFAULT_GRID, Rectangle, bisect, bisect_unit, runs
from .properties import PROPERTIES, Status, Verdict, Witness, _require_known, check_dtp2, check_mktp2, rectangle_defect

__all__ = [
    "PickandsSpec",
    "validate_pickands",
    "builtin_pickands",
    "cap_function",
    "h_map",
    "contour",
    "evc_copula",
    "kernel_cross_ratio",
    "classify_evc",
    "construct_witness_gradient",
    "construct_witness_jump",
    "construct_witness_constant",
    "beta_sup_argmin",
    "property_verdicts",
]

_D0_TOL = 1e-8

# scan points of the plateau search and the monotone-ratio criterion (which
# the 3d certificate records)
_PLATEAU_POINTS = 4001
_RATIO_POINTS = 2001

# step budgets of the gradient and jump witness constructions, and the base of
# the jump construction's anchor u1 = _JUMP_ANCHOR_U^(2 t_r)
_MAX_DOUBLINGS = 40
_MAX_SHRINK = 50
_JUMP_ANCHOR_U = 0.5


@dataclass(frozen=True)
class PickandsSpec:
    """A Pickands dependence function with its declared derivative data.

    ``d_plus_A`` is the right derivative D+A and ``declared_jumps`` the
    strictly increasing tuple of its discontinuities in (0, 1) (empty: none).
    ``t_star`` is the supremum of the initial segment where D+A = -1 (0 if
    there is none).  ``second`` is A'' where declared (None: not declared).
    Branch 3d of :func:`classify_evc` runs exactly when A'' is declared, and
    :func:`evc_copula` has a density exactly when A'' is declared and no jump
    is: D+A is then the integral of A'', so no kernel K(u, .) has an atom.
    Both trust the declared jumps, which nothing checks against D+A.
    ``quantile``, where set, becomes the copula's
    :attr:`~mktp2.core.Copula.quantile`.  Users build one through
    :func:`validate_pickands`.
    """

    label: str
    A: Callable
    d_plus_A: Callable
    declared_jumps: tuple = ()
    t_star: float = 0.0
    second: Optional[Callable] = None
    cap: Optional[Callable] = None
    quantile: Optional[Callable] = None

    def __repr__(self):
        return f"PickandsSpec({self.label})"


# ---------------------------------------------------------------------------
# validation and construction
# ---------------------------------------------------------------------------


def validate_pickands(
    A,
    d_plus_A=None,
    declared_jumps=(),
    t_star=None,
    second=None,
    label="custom",
):
    """Check a Pickands function and its declared derivative data on a grid.

    Needs D+A as the callable ``d_plus_A``, its jumps as a strictly
    increasing sequence in (0, 1), and A'' as a callable ``second`` or None;
    what A'' and the jumps decide is told at :class:`PickandsSpec`.  Enforces
    A(0) = A(1) = 1, the envelope max(1-t, t) <= A <= 1, convexity, and
    -1 <= D+A <= 1 non-decreasing.  A missing ``t_star`` is
    inf{t : D+A(t) > -1}, bisected on the declared D+A to within 2^-53.
    """
    if not callable(d_plus_A):
        raise ValidationError("d_plus_A must be a callable giving the right derivative D+A")
    if declared_jumps is None:
        raise ValidationError("declared_jumps must list the jumps of D+A (an empty tuple: none)")
    declared_jumps = tuple(float(t) for t in declared_jumps)
    if not all(0.0 < t < 1.0 for t in declared_jumps) or any(np.diff(declared_jumps) <= 0.0):
        raise ValidationError(f"declared_jumps must increase strictly inside (0, 1), got {declared_jumps}")
    if second is not None and not callable(second):
        raise ValidationError("second must be a callable giving A'' (None: not declared)")

    ts = np.linspace(0.0, 1.0, 1001)
    vals = np.asarray(A(ts), dtype=float)
    if abs(vals[0] - 1.0) > 1e-9 or abs(vals[-1] - 1.0) > 1e-9:
        raise ValidationError(f"A(0) and A(1) must equal 1, got {vals[0]!r}, {vals[-1]!r}")
    lower = np.maximum(1.0 - ts, ts)
    low_bad = vals < lower - 1e-9
    if np.any(low_bad):
        k = int(np.argmax(low_bad))
        raise ValidationError(f"A({ts[k]:.6g}) = {vals[k]:.6g} falls below max(1-t, t)")
    hi_bad = vals > 1.0 + 1e-9
    if np.any(hi_bad):
        k = int(np.argmax(hi_bad))
        raise ValidationError(f"A({ts[k]:.6g}) = {vals[k]:.6g} exceeds 1")
    second_diff = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    conv_bad = second_diff < -1e-9
    if np.any(conv_bad):
        k = int(np.argmax(conv_bad))
        raise ValidationError(f"A is not convex at t={ts[k + 1]:.6g}")

    dts = np.linspace(0.0, 1.0 - 1e-6, 1001)
    dvals = np.asarray(d_plus_A(dts), dtype=float)
    out_of_range = (dvals < -1.0 - 1e-9) | (dvals > 1.0 + 1e-9)
    if np.any(out_of_range):
        k = int(np.argmax(out_of_range))
        raise ValidationError(f"D+A({dts[k]:.6g}) = {dvals[k]:.6g} leaves [-1, 1]")
    decreasing = np.diff(dvals) < -1e-9
    if np.any(decreasing):
        k = int(np.argmax(decreasing))
        raise ValidationError(f"D+A decreases at t={dts[k]:.6g}")

    if t_star is None:
        t_star = _first_crossing(d_plus_A, lambda d: d > -1.0)

    return PickandsSpec(
        label=label,
        A=A,
        d_plus_A=d_plus_A,
        declared_jumps=declared_jumps,
        t_star=float(t_star),
        second=second,
    )


# ---------------------------------------------------------------------------
# built-in Pickands families
# ---------------------------------------------------------------------------


def _independence_pickands(label):
    return PickandsSpec(
        label=label,
        A=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        d_plus_A=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        declared_jumps=(),
        t_star=0.0,
        second=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        cap=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        quantile=Form(lambda u, w: w + 0.0 * u),
    )


# above this alpha the direct forms' powers of t, 1 - t and S = t^a + (1-t)^a
# leave the double range where the forms' values do not (A'' loses digits from
# alpha = 300 and overflows at t = 1/2 from 512, A is 0 there from 1075), so
# the scaled forms take over
_GUMBEL_DIRECT_MAX = 256.0


def _gumbel_scaled_forms(a):
    """A, D+A, A'' and F of the Gumbel Pickands function with m = max(t, 1 - t)
    factored out of S = m^a q, q = 1 + r^a, r = min(t, 1 - t) / m: every power
    then lies in [0, 2], and only A'' divides by m^3 <= 8."""

    def parts(t):
        t = np.asarray(t, dtype=float)
        m = np.maximum(t, 1.0 - t)
        r = np.minimum(t, 1.0 - t) / m
        return t, m, r, 1.0 + np.power(r, a)

    def A(t):
        _, m, _, q = parts(t)
        return m * np.power(q, 1.0 / a)

    def dA(t):
        t, m, _, q = parts(t)
        return np.power(q, 1.0 / a - 1.0) * (np.power(t / m, a - 1.0) - np.power((1.0 - t) / m, a - 1.0))

    def d2A(t):
        _, m, r, q = parts(t)
        return (a - 1.0) * np.power(r, a - 2.0) * np.power(q, 1.0 / a - 2.0) / (m * m * m)

    def cap(t):
        t, m, _, q = parts(t)
        return np.power(t / m, a - 1.0) * np.power(q, 1.0 / a - 1.0)

    return A, dA, d2A, cap


def _gumbel_direct_forms(a):
    """A, D+A, A'' and F of the Gumbel Pickands function, written in t and S."""

    def A(t):
        t = np.asarray(t, dtype=float)
        return np.power(np.power(t, a) + np.power(1.0 - t, a), 1.0 / a)

    def dA(t):
        t = np.asarray(t, dtype=float)
        s = np.power(t, a) + np.power(1.0 - t, a)
        return np.power(s, 1.0 / a - 1.0) * (np.power(t, a - 1.0) - np.power(1.0 - t, a - 1.0))

    def d2A(t):
        # cancellation-free form of the second derivative
        t = np.asarray(t, dtype=float)
        s = np.power(t, a) + np.power(1.0 - t, a)
        return (a - 1.0) * np.power(t * (1.0 - t), a - 2.0) * np.power(s, 1.0 / a - 2.0)

    def cap(t):
        # F = t^{a-1} S^{1/a - 1}; the defining sum cancels near t = 0
        t = np.asarray(t, dtype=float)
        s = np.power(t, a) + np.power(1.0 - t, a)
        return np.power(t, a - 1.0) * np.power(s, 1.0 / a - 1.0)

    return A, dA, d2A, cap


def _gumbel_pickands(alpha):
    a = float(alpha)
    if not a >= 1.0:
        raise ValidationError(f"gumbel needs alpha >= 1, got {a}")
    if a == 1.0:
        return _independence_pickands("evc-gumbel(alpha=1)")
    forms = _gumbel_direct_forms if a <= _GUMBEL_DIRECT_MAX else _gumbel_scaled_forms
    A, dA, d2A, cap = forms(a)
    return PickandsSpec(
        label=f"evc-gumbel(alpha={param_text(a)})",
        A=A,
        d_plus_A=dA,
        declared_jumps=(),
        t_star=0.0,
        second=d2A,
        cap=cap,
    )


def _mo_pickands(alpha, beta):
    a = float(alpha)
    b = float(beta)
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValidationError(f"marshall-olkin needs alpha, beta in [0, 1], got ({a}, {b})")
    label = f"mo(alpha={param_text(a)}, beta={param_text(b)})"
    if a == 0.0 or b == 0.0:
        return _independence_pickands(label)
    tj = a / (a + b)

    def A(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < tj, 1.0 - b * t, 1.0 - a * (1.0 - t))

    def dA(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < tj, -b, a)

    # K(u, v) = (1 - b) u^-b v below the atom at v* = u^(b/a) (where h(u, v) < tj),
    # and v^(1 - a) from v* on
    up = 1.0 / (1.0 - a) if a < 1.0 else np.inf

    @np.errstate(divide="ignore", invalid="ignore")
    def quantile(pu, w):
        _, _, lu = pu
        atom = np.exp(lu * (b / a))
        below = w * np.exp(b * lu) / (1.0 - b)
        return np.where(below < atom, below, np.where(w <= np.power(atom, 1.0 - a), atom, np.power(w, up)))

    return PickandsSpec(
        label=label,
        A=A,
        d_plus_A=dA,
        declared_jumps=(tj,),
        t_star=tj if b == 1.0 else 0.0,
        # A'' = 0 off the jump, declared only at beta = 1: below it D+A(0) =
        # -beta lies inside (-1, 0), and one rounded onto -1 must not reach 3d
        second=(lambda t: np.zeros_like(np.asarray(t, dtype=float))) if b == 1.0 else None,
        cap=lambda t: np.where(np.asarray(t, dtype=float) < tj, 1.0 - b, 1.0),
        quantile=Form(quantile, _log_prep),
    )


def _tawn_symmetric_pickands(theta):
    th = float(theta)
    if not (0.0 <= th <= 1.0):
        raise ValidationError(f"tawn-symmetric needs theta in [0, 1], got {th}")
    if th == 0.0:
        return _independence_pickands("tawn-sym(theta=0)")
    return PickandsSpec(
        label=f"tawn-sym(theta={param_text(th)})",
        A=lambda t: th * np.square(np.asarray(t, dtype=float)) - th * np.asarray(t, dtype=float) + 1.0,
        d_plus_A=lambda t: 2.0 * th * np.asarray(t, dtype=float) - th,
        declared_jumps=(),
        t_star=0.0,
        second=lambda t: np.full_like(np.asarray(t, dtype=float), 2.0 * th),
        cap=lambda t: 1.0 - th * np.square(1.0 - np.asarray(t, dtype=float)),
    )


def _tawn_mixed_pickands(theta, kappa):
    th = float(theta)
    ka = float(kappa)
    constraints = (
        (th >= 0.0, "theta >= 0"),
        (th + 3.0 * ka >= 0.0, "theta + 3*kappa >= 0"),
        (th + ka <= 1.0, "theta + kappa <= 1"),
        (th + 2.0 * ka <= 1.0, "theta + 2*kappa <= 1"),
    )
    for ok, text in constraints:
        if not ok:
            raise ValidationError(f"tawn-asym-mixed parameter constraint violated: {text}")
    if th == 0.0 and ka == 0.0:
        return _independence_pickands("tawn-mix(theta=0, kappa=0)")

    def A(t):
        t = np.asarray(t, dtype=float)
        return 1.0 - (th + ka) * t + th * t * t + ka * t * t * t

    def dA(t):
        t = np.asarray(t, dtype=float)
        return -(th + ka) + 2.0 * th * t + 3.0 * ka * t * t

    def cap(t):
        t = np.asarray(t, dtype=float)
        return (1.0 - th - ka) + 2.0 * th * t + (3.0 * ka - th) * t * t - 2.0 * ka * t**3

    return PickandsSpec(
        label=f"tawn-mix(theta={param_text(th)}, kappa={param_text(ka)})",
        A=A,
        d_plus_A=dA,
        declared_jumps=(),
        t_star=0.0,
        second=lambda t: 2.0 * th + 6.0 * ka * np.asarray(t, dtype=float),
        cap=cap,
    )


def _log_pickands():
    def S(t):
        return np.power(t, 1.5) + np.power(1.0 - t, 1.5)

    def A(t):
        t = np.asarray(t, dtype=float)
        return (2.0 / 3.0) * np.log(S(t)) + 1.0

    def dA(t):
        t = np.asarray(t, dtype=float)
        return (np.sqrt(t) - np.sqrt(1.0 - t)) / S(t)

    def d2A(t):
        t = np.asarray(t, dtype=float)
        root = np.sqrt(t * (1.0 - t))
        return (1.0 + 4.0 * t * (1.0 - t) - 2.0 * root) / (2.0 * root * np.square(S(t)))

    def cap(t):
        t = np.asarray(t, dtype=float)
        s = S(t)
        return (2.0 / 3.0) * np.log(s) + np.sqrt(t) / s

    return PickandsSpec(
        label="evc-log",
        A=A,
        d_plus_A=dA,
        declared_jumps=(),
        t_star=0.0,
        second=d2A,
        cap=cap,
    )


def _jump_pickands():
    def A(t):
        t = np.asarray(t, dtype=float)
        return np.where(
            t < 0.125,
            1.0 - t,
            np.where(t < 0.25, 15.0 / 16.0 - 0.5 * t, 0.75 + np.square(t - 0.5)),
        )

    def dA(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.125, -1.0, np.where(t < 0.25, -0.5, 2.0 * t - 1.0))

    def cap(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.125, 0.0, np.where(t < 0.25, 7.0 / 16.0, t * (2.0 - t)))

    return PickandsSpec(
        label="evc-jump",
        A=A,
        d_plus_A=dA,
        declared_jumps=(0.125,),
        t_star=0.125,
        cap=cap,
    )


# name -> (factory, default parameters); the factory checks the parameter region
_PICKANDS = {
    "gumbel": (_gumbel_pickands, {"alpha": 1.0}),
    "marshall-olkin": (_mo_pickands, {"alpha": 1.0, "beta": 1.0}),
    "tawn-symmetric": (_tawn_symmetric_pickands, {"theta": 0.0}),
    "tawn-asym-mixed": (_tawn_mixed_pickands, {"theta": 0.0, "kappa": 0.0}),
    "log-example": (_log_pickands, {}),
    "jump-example": (_jump_pickands, {}),
}
_PICKANDS_ALIASES = {
    "evc-gumbel": "gumbel", "mo": "marshall-olkin", "tawn-sym": "tawn-symmetric",
    "tawn-mix": "tawn-asym-mixed", "evc-log": "log-example", "evc-jump": "jump-example",
}


def builtin_pickands(name, **params):
    """Exact built-in Pickands families.

    Names: gumbel(alpha >= 1), marshall-olkin(alpha, beta), tawn-symmetric
    (theta), tawn-asym-mixed(theta, kappa), log-example, jump-example.
    """
    key = name.lower()
    canonical = _PICKANDS_ALIASES.get(key, key)
    if canonical not in _PICKANDS:
        raise ValidationError(f"unknown pickands family {name!r}")
    factory, defaults = _PICKANDS[canonical]
    values = [float(params.pop(p, d)) for p, d in defaults.items()]
    if params:
        raise ValidationError(f"{key} got unexpected parameters {sorted(params)}")
    # a NaN fails each factory's own range check
    for p, value in zip(defaults, values):
        if np.isinf(value):
            raise ValidationError(f"{key} parameter {p!r} must be finite, got {value}")
    return factory(*values)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def h_map(u, v):
    """h(u,v) = log(u)/log(uv); decreasing in u, increasing in v.

    At v = 0, where a contour point u^{(1-t)/t} underflows, log v = -inf and
    h takes its limit 0 without a warning.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.log(u) / (np.log(u) + np.log(v))
    return float(out) if out.ndim == 0 else out


def contour(t, u):
    """The v with h(u, v) = t, namely u^{(1-t)/t}."""
    u = np.asarray(u, dtype=float)
    out = np.power(u, (1.0 - t) / t)
    return float(out) if out.ndim == 0 else out


def cap_function(spec, t):
    """F(t) = A(t) + (1-t) D+A(t), with F(1) := 1; the kernel's multiplicative cap.

    Built-in specs carry a cancellation-free closed form of F: the defining
    sum loses all significance near t = 0 whenever D+A(0) = -1.
    """
    t = np.asarray(t, dtype=float)
    tt = np.where(t >= 1.0, 0.5, t)
    if spec.cap is not None:
        val = np.asarray(spec.cap(tt), dtype=float)
    else:
        val = np.asarray(spec.A(tt), dtype=float) + (1.0 - tt) * np.asarray(
            spec.d_plus_A(tt), dtype=float
        )
    out = np.where(t >= 1.0, 1.0, val)
    return float(out) if out.ndim == 0 else out


def _log_prep(p):
    # off (0, 1) the log is taken at 0.5; the boundary values overwrite every result it enters
    inside = (p > 0.0) & (p < 1.0)
    return p, inside, np.log(np.where(inside, p, 0.5))


def evc_copula(spec):
    """Wrap a Pickands spec as a :class:`~mktp2.core.Copula` of per-axis forms,
    each axis prepped with its interior mask and log (the density's: its log);
    its ``analytic`` verdicts are :func:`property_verdicts` of ``spec``."""

    def cdf(pu, pv):
        (u, u_int, lu), (v, v_int, lv) = pu, pv
        ell = lu + lv
        a = np.asarray(spec.A(lu / ell), dtype=float)
        return np.where(u_int & v_int, np.exp(a * ell), np.minimum(u, v))

    def kernel(pu, pv):
        (_, u_int, lu), (v, v_int, lv) = pu, pv
        ell = lu + lv
        h = lu / ell
        a = np.asarray(spec.A(h), dtype=float)
        base = np.exp(a * ell - lu) * np.asarray(cap_function(spec, h), dtype=float)
        return np.clip(np.where(u_int, np.where(v_int, base, v), 1.0), 0.0, 1.0)

    density = None
    if spec.second is not None and not spec.declared_jumps:

        # on the edges of the square a log is -inf or 0, and the density's
        # terms there divide and multiply them into inf or NaN
        @np.errstate(divide="ignore", invalid="ignore", over="ignore")
        def density_prep(p):
            return np.log(p)

        @np.errstate(divide="ignore", invalid="ignore", over="ignore")
        def density_combine(lu, lv):
            ell = lu + lv
            h = lu / ell
            a = np.asarray(spec.A(h), dtype=float)
            da = np.asarray(spec.d_plus_A(h), dtype=float)
            f = a + (1.0 - h) * da
            g = a - h * da
            dd = np.asarray(spec.second(h), dtype=float)
            return np.exp(a * ell - lu - lv) * (f * g + h * (1.0 - h) * dd / (-ell))

        density = Form(density_combine, density_prep, density_prep)

    return Copula(
        label=spec.label,
        cdf=Form(cdf, _log_prep, _log_prep),
        kernel=Form(kernel, _log_prep, _log_prep),
        density=density,
        analytic=partial(property_verdicts, spec),
        quantile=spec.quantile,
    )


def kernel_cross_ratio(spec, rect):
    """K11*K22 / (K12*K21) evaluated through the kernel alone; < 1 refutes MK-TP2.

    Kernel values lie in [0, 1], so a rectangle whose :func:`rectangle_defect`
    K12*K21 - K11*K22 exceeds ``tol_strict`` has a cross ratio below
    1 - ``tol_strict``.
    """
    k11, k12, k21, k22 = rectangle_defect(evc_copula(spec), "mktp2", rect)[1]
    if k12 * k21 <= 0.0:
        raise ValidationError("cross ratio undefined: a denominator kernel value vanishes")
    return (k11 * k22) / (k12 * k21)


# ---------------------------------------------------------------------------
# witness constructors
# ---------------------------------------------------------------------------


def _witness_from_rect(spec, rect):
    """The witness of ``rect`` from one :func:`rectangle_defect` of its kernel corners."""
    defect, k = rectangle_defect(evc_copula(spec), "mktp2", rect)
    return Witness(rect.as_tuple(), k, defect, "rectangle")


def _first_crossing(d_plus_A, reached):
    """inf{t in [0, 1] : reached(D+A(t))} for a monotone ``reached`` of the
    non-decreasing D+A, from one :func:`bisect_unit` to width 2^-53: 0.0 when
    ``reached`` holds at t = 0, else the top of the final cell."""
    pred = lambda t: reached(np.asarray(d_plus_A(t), dtype=float))
    if pred(0.0):
        return 0.0
    lo, half = bisect_unit(pred, (), 2.0**-53)
    return float(lo + 2.0 * half)


def beta_sup_argmin(spec):
    """Supremal argmin of gamma -> A(1/(1+gamma)) over (0, inf).

    For a convex A it is 1/t - 1 at the least minimizer t = inf{t : D+A(t) >= 0}
    of A, read off the declared D+A by :func:`_first_crossing`.  It needs
    D+A(0) < 0, which :func:`construct_witness_gradient` checks first; else
    t = 0 and the division raises ``ZeroDivisionError``.
    """
    return 1.0 / _first_crossing(spec.d_plus_A, lambda d: d >= 0.0) - 1.0


def _g_of(spec, alpha):
    return (1.0 + alpha) * float(spec.A(1.0 / (1.0 + alpha))) - alpha


def construct_witness_gradient(spec, grid=DEFAULT_GRID):
    """Witness rectangle for D+A(0) strictly inside (-1, 0), D+A continuous.

    Construction: anchor u1 = exp(gamma_alpha / 2) with
    v1, v2 on the power contours u1^{beta} and u1^{alpha}, then push u2
    toward 1 along u2 = 1 - 1/n until the rectangle's defect rises above
    tol_strict.
    """
    d0 = float(spec.d_plus_A(0.0))
    if not (-1.0 + _D0_TOL < d0 < -_D0_TOL):
        raise ValidationError(f"gradient witness needs D+A(0) in (-1, 0), got {d0:.6g}")
    beta = beta_sup_argmin(spec)
    alpha = 0.5 * beta
    f_beta = float(cap_function(spec, 1.0 / (1.0 + beta)))
    f_alpha = float(cap_function(spec, 1.0 / (1.0 + alpha)))
    denom = _g_of(spec, alpha) - _g_of(spec, beta)
    gamma = float(np.log(f_beta / f_alpha) / denom)
    if not gamma < 0.0:
        raise SearchFailed("anchor exponent failed to be negative", beta=beta, gamma=gamma)
    u1 = float(np.exp(gamma / 2.0))
    v1 = u1**beta
    v2 = u1**alpha
    n = int(np.ceil(1.0 / (1.0 - u1))) + 1
    last_defect = None
    for _ in range(_MAX_DOUBLINGS):
        u2 = 1.0 - 1.0 / n
        if u2 <= u1 or u2 >= 1.0:
            n *= 2
            continue
        witness = _witness_from_rect(spec, Rectangle(u1, u2, v1, v2))
        if witness.defect > grid.tol_strict:
            return witness
        last_defect = witness.defect
        n *= 2
    raise SearchFailed(
        "no violating rectangle within the doubling budget",
        beta_A=beta,
        gamma_alpha=gamma,
        last_defect=last_defect,
    )


def construct_witness_jump(spec, t_l, t_r, grid=DEFAULT_GRID):
    """Witness rectangle around a jump of the cap function F at t_r.

    Needs t_r among the spec's declared jumps and F continuous and positive
    on [t_l, t_r).  The rectangle keeps
    three corners in the band where F is close to its left limit y while
    the fourth sits on the jump contour, forcing the cross ratio below
    y / (y + jump) < 1.  It is anchored at u1 = (1/2)^(2 t_r), so that u1 and
    the contour point v2 = (1/2)^(2 (1 - t_r)) stay in (1/4, 1), and v1 shrinks
    toward v2 until the rectangle's defect rises above tol_strict.
    """
    t_l = float(t_l)
    t_r = float(t_r)
    if all(abs(t_r - t) > 1e-12 for t in spec.declared_jumps):
        raise ValidationError(f"t_r={t_r:.6g} is not a declared jump of the cap function")
    if not 0.0 < t_l < t_r < 1.0:
        raise ValidationError(f"need 0 < t_l < t_r < 1, got ({t_l}, {t_r})")
    y = float(cap_function(spec, t_r - 1e-9))
    f_r = float(cap_function(spec, t_r))
    delta = f_r - y
    if y <= 0.0:
        raise ValidationError(
            f"cap function must stay positive on [t_l, t_r); left limit at {t_r:.6g} is {y:.3g}"
        )
    if delta <= 0.0:
        raise ValidationError(f"cap function does not jump upward at {t_r:.6g}")
    eps = 0.5 * delta * y / (delta + y)

    # smallest t with F >= y - eps (F non-decreasing and continuous there)
    t_band = t_l
    if float(cap_function(spec, t_l)) < y - eps:
        _, hi = bisect(lambda t: float(cap_function(spec, t)) >= y - eps, t_l, t_r - 1e-9, 0.0, 200)
        t_band = float(hi)

    u1 = _JUMP_ANCHOR_U ** (2.0 * t_r)
    v2 = float(contour(t_r, u1))
    # rounding can leave the contour point just left of the jump (t_r = 0.6)
    while h_map(u1, v2) < t_r:
        v2 = float(np.nextafter(v2, 1.0))
    u_star = v_star = None
    for k in range(2, _MAX_SHRINK):
        cand_u = u1 + (1.0 - u1) * 0.5**k
        cand_v = v2 * (1.0 - 0.5**k)
        if h_map(cand_u, cand_v) >= t_band:
            u_star, v_star = cand_u, cand_v
            break
    if u_star is None:
        raise SearchFailed("could not fit a band rectangle", t_band=t_band, u1=u1, v2=v2)

    u2 = 0.5 * (u1 + u_star)
    last_defect = None
    for j in range(1, _MAX_SHRINK):
        v1 = v2 - (v2 - v_star) * 0.5**j
        if not v_star < v1 < v2:
            continue
        witness = _witness_from_rect(spec, Rectangle(u1, u2, v1, v2))
        if witness.defect > grid.tol_strict:
            return witness
        last_defect = witness.defect
    raise SearchFailed(
        "jump data appear inconsistent: no violating rectangle found",
        t_r=t_r,
        y=y,
        delta=delta,
        last_defect=last_defect,
    )


def construct_witness_constant(spec, t1, t2, c, grid=DEFAULT_GRID):
    """Witness rectangle for a plateau F = c in (0,1) on [t1, t2].

    Construction: extend t2 to the full plateau, pick an
    extension point s beyond it subject to the three bullet conditions,
    anchor u1 so that c < u1^{1/(2s)} F(s), and place the remaining corners
    on the power contours of t1 and s.  The rectangle is taken if its defect
    is above tol_strict.
    """
    t1 = float(t1)
    t2 = float(t2)
    c = float(c)
    if not (0.0 < c < 1.0):
        raise ValidationError(f"plateau level must lie in (0,1), got {c}")
    if not (0.0 < t1 < t2 < 1.0):
        raise ValidationError(f"need 0 < t1 < t2 < 1, got ({t1}, {t2})")
    for t in (t1, 0.5 * (t1 + t2), t2):
        if abs(float(cap_function(spec, t)) - c) > 1e-7:
            raise ValidationError(f"cap function is not {c:.6g} at t={t:.6g} (no plateau)")
    # anchor strictly inside the plateau: contour arithmetic at exactly t1
    # can round h(u2, v1) below a cap jump sitting on the boundary
    t1 = t1 + max(1e-12, 1e-6 * (t2 - t1))
    inner_jumps = [t for t in spec.declared_jumps if t1 < t < 1.0]
    if inner_jumps:
        raise ValidationError(
            f"cap function jumps at {inner_jumps[0]:.6g} inside (t1, 1); use the jump construction"
        )

    # slope and intercept of the linear stretch of A across the plateau
    mid = 0.5 * (t1 + t2)
    a_slope = float(spec.d_plus_A(mid))
    b_icept = float(spec.A(mid)) - a_slope * mid
    if abs(a_slope + b_icept - c) > 1e-7:
        raise ValidationError("plateau is inconsistent with a linear dependence function stretch")

    # full plateau: largest t with F(t) <= c (F is non-decreasing)
    if float(cap_function(spec, 1.0 - 1e-12)) > c + grid.tol_eq:
        lo, _ = bisect(
            lambda t: not float(cap_function(spec, t)) <= c + grid.tol_eq, t2, 1.0 - 1e-12, 0.0, 200
        )
        t2 = float(lo)

    # bullet (ii): admissible s upper bound from the contour-slope inequality
    q = (1.0 - t2) / t2 * t1 / (1.0 - t1)
    s_ii = 1.0 / (1.0 + q * (1.0 - t2) / t2)
    # bullet (iii): A(s) - (a s + b) <= 1/2, monotone in s beyond the plateau
    s_iii = 1.0 - 1e-12
    if float(spec.A(s_iii)) - (a_slope * s_iii + b_icept) > 0.5:
        lo, _ = bisect(
            lambda t: not float(spec.A(t)) - (a_slope * t + b_icept) <= 0.5, t2, s_iii, 0.0, 200
        )
        s_iii = float(lo)
    s = 0.5 * (t2 + min(s_ii, s_iii))
    if not t2 < s < 1.0:
        raise SearchFailed("no admissible extension point", t2=t2, s_ii=s_ii, s_iii=s_iii)
    f_s = float(cap_function(spec, s))
    if not f_s > c:
        raise SearchFailed("cap function fails to rise beyond the plateau", s=s, f_s=f_s, c=c)

    # anchor u1 with c < u1^{1/(2s)} F(s), with square-root slack
    u1 = float(np.power(c / f_s, s))
    e_lo = (1.0 - s) / s * t2 / (1.0 - t2)
    e_hi = (1.0 - t2) / t2 * t1 / (1.0 - t1)
    if not e_lo > e_hi:
        raise SearchFailed("contour exponent interval is empty", e_lo=e_lo, e_hi=e_hi)
    u2 = float(np.power(u1, 0.5 * (e_lo + e_hi)))
    v1 = float(contour(t1, u2))
    v2 = float(contour(s, u1))
    witness = _witness_from_rect(spec, Rectangle(u1, u2, v1, v2))
    if not witness.defect > grid.tol_strict:
        raise SearchFailed("constructed rectangle does not violate", defect=witness.defect, s=s, u1=u1)
    return witness


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _find_plateau(spec, t_star, grid):
    """Maximal stretch where F is constant at a level inside (0, 1)."""
    eps = 1e-9
    lo = max(t_star + eps, eps)
    ts = np.linspace(lo, 1.0 - eps, _PLATEAU_POINTS)
    fs = np.asarray(cap_function(spec, ts), dtype=float)
    flat = np.abs(np.diff(fs)) <= 1e-11 * (1.0 + np.abs(fs[:-1]))
    min_len = 1.0 / float(min(grid.n_u, grid.n_v))
    for i0, i1 in runs(flat):
        t_a, t_b = float(ts[i0]), float(ts[i1])
        level = float(np.median(fs[i0 : i1 + 1]))
        if t_b - t_a >= min_len and grid.tol_strict < level < 1.0 - grid.tol_strict:
            return t_a, t_b, level
    return None


def _ratio_test(spec, t_star, grid):
    """Non-increasingness of r(t) = t(1-t) F'(t)/F(t) on (t_star, 1)."""
    ts = np.linspace(t_star + grid.margin, 1.0 - grid.margin, _RATIO_POINTS)
    fs = np.asarray(cap_function(spec, ts), dtype=float)
    keep = fs > grid.tol_strict
    ts, fs = ts[keep], fs[keep]
    cap_slope = (1.0 - ts) * np.asarray(spec.second(ts), dtype=float)  # F' = (1-t) A''
    rs = ts * (1.0 - ts) * cap_slope / fs
    rises = np.diff(rs) - grid.tol_eq * (1.0 + np.abs(rs[:-1]))
    k = int(np.argmax(rises))
    defect = float(rises[k])
    witness = Witness(
        points=(float(ts[k]), float(ts[k + 1])),
        values=(float(rs[k]), float(rs[k + 1])),
        defect=defect,
        kind="ratio-pair",
    )
    return defect <= 0.0, witness


_NOTE_CAP_GAP = (
    "log-concavity of the cap function alone is necessary below t = 1/2 and "
    "sufficient only above it; the certificate uses the monotone-ratio "
    "criterion on the whole interval instead"
)


def _witness_verdict(construct, method, note, failed_note):
    """``fails`` with the witness ``construct()`` returns, under ``method`` and ``note``.

    If it raises :class:`SearchFailed` or :class:`ValidationError`:
    ``inconclusive`` under ``method`` with ``failed_note: <error>``.
    """
    try:
        witness = construct()
    except (SearchFailed, ValidationError) as exc:
        return Verdict(Status.INCONCLUSIVE, None, {"method": method}, f"{failed_note}: {exc}")
    return Verdict(Status.FAILS, witness, {"method": method}, note)


def classify_evc(spec, grid=DEFAULT_GRID):
    """MK-TP2 of an extreme-value copula: ``(branch, verdict)`` of the first
    rule of the D+A(0) tree that applies.

    The jumps are the spec's declared jumps of D+A.  Branches 1 (holds), 2,
    3a, 3b and 3c (fails through a witness), 3d (the monotone-ratio
    criterion on the declared A'', holds) and 3e (a grid scan).  A witness
    at declared jumps (3a, 3b) that cannot be built contradicts A, so that
    error propagates; a failed construction in 2 or 3c reads as
    inconclusive.
    """
    d0 = float(spec.d_plus_A(0.0))
    if abs(d0) <= _D0_TOL:
        note = "D+A(0) = 0 forces A == 1: the independence copula"
        return "1", Verdict(Status.HOLDS, None, {"method": "analytic:flat-at-zero"}, note)

    jumps = spec.declared_jumps
    if d0 > -1.0 + _D0_TOL:
        # declared jumps are exact, so 1e-9 left of one probes the cap's left limit
        capped = [t for t in jumps if float(cap_function(spec, t - 1e-9)) > grid.tol_strict]
        if capped:
            construct = lambda: construct_witness_jump(spec, 0.5 * capped[0], capped[0], grid)
        else:
            construct = lambda: construct_witness_gradient(spec, grid)
        return "2", _witness_verdict(
            construct,
            "analytic:slope-at-zero", f"D+A(0) = {d0:.6g} lies strictly inside (-1, 0)",
            f"D+A(0) = {d0:.6g} rules out MK-TP2 but no witness was realized",
        )

    # D+A(0) = -1 from here on
    if len(jumps) >= 2:
        t_l, t_r = jumps[0], jumps[1]
        witness = construct_witness_jump(spec, 0.5 * (t_l + t_r), t_r, grid)
        note = "the derivative of A has at least two discontinuities"
        return "3a", Verdict(Status.FAILS, witness, {"method": "analytic:two-jumps"}, note)

    if len(jumps) == 1:
        t_jump = float(jumps[0])
        ts = np.linspace(1e-6, t_jump - 1e-9, 513)
        deviation = float(np.max(np.asarray(spec.A(ts), dtype=float) - (1.0 - ts)))
        if deviation > 1e-9:
            fs = np.asarray(cap_function(spec, ts), dtype=float)
            pos = np.flatnonzero(fs > grid.tol_strict)
            t_l = float(ts[pos[0]]) if len(pos) else 0.5 * t_jump
            witness = construct_witness_jump(spec, t_l, t_jump, grid)
            note = "A bends away from 1-t before the single derivative jump"
            return "3b", Verdict(Status.FAILS, witness, {"method": "analytic:one-jump-curved"}, note)

    plateau = _find_plateau(spec, spec.t_star, grid)
    if plateau is not None:
        t_a, t_b, level = plateau
        return "3c", _witness_verdict(
            lambda: construct_witness_constant(spec, t_a, t_b, level, grid),
            "analytic:cap-plateau",
            f"the cap function is constant at {level:.6g} on [{t_a:.6g}, {t_b:.6g}]",
            "plateau detected but no witness was realized",
        )

    ratio_witness = None
    if spec.second is not None:
        ok, ratio_witness = _ratio_test(spec, spec.t_star, grid)
        if ok:
            certificate = {"method": "analytic:monotone-ratio", "n_points": _RATIO_POINTS}
            return "3d", Verdict(Status.HOLDS, None, certificate, _NOTE_CAP_GAP)

    grid_verdict = check_mktp2(evc_copula(spec), grid)
    if grid_verdict.status is Status.FAILS:
        return "3e", grid_verdict
    witness, note = grid_verdict.witness, "no analytic rule applies and the grid scan found no violation"
    if ratio_witness is not None:
        witness, note = ratio_witness, (
            "the monotone-ratio criterion fails at the witness pair, but it is "
            "only sufficient; no violating rectangle surfaced at this budget"
        )
    return "3e", Verdict(Status.INCONCLUSIVE, witness, grid_verdict.certificate, note)


def property_verdicts(spec, grid=DEFAULT_GRID, props=PROPERTIES):
    """Verdicts of ``props`` implied by the EVC classification.

    Only MK-TP2 runs the decision tree and only D-TP2 scans a grid; PQD, LTD,
    SI and TP2 hold for every EVC.
    """
    _require_known(props)
    table = {}
    for prop in props:
        if prop == "mktp2":
            table[prop] = classify_evc(spec, grid)[1]
        elif prop == "dtp2":
            table[prop] = check_dtp2(evc_copula(spec), grid)
        else:
            table[prop] = Verdict(Status.HOLDS, None, {"method": "analytic:evc"}, "every EVC is TP2 and SI")
    return table
