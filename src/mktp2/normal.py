"""Standard normal CDF/quantile and a closed-form bivariate normal CDF.

The bivariate CDF is Owen's (1956) identity over ``scipy.special.owens_t``,

    Phi2(h, k; rho) = 1/2 Phi(h) + 1/2 Phi(k) - T(h, a_h) - T(k, a_k) - beta,
    a_x = (y - rho x) / (x s),  s = sqrt(1 - rho^2),  (x, y) = (h, k) or (k, h),

with beta = 1/2 if h k < 0 or (h k = 0 and h + k < 0), else 0.  As written
its O(1) terms cancel in the tails, leaving errors up to 1e-10 relative to
min(Phi(h), Phi(k)), which LTD (it scans C/u) reads as inconclusive defects.
So with Q = 1 - Phi and g(h, b) = 1/2 Q(h) - T(h, b), h > 0, the term of
x != 0 becomes -sign(x) g(|x|, b_x), b_x = (rho x - y) / (|x| s), plus 1/2
if x > 0.  Those halves and beta sum to (1 + sign h)(1 + sign k) / 4.  A
zero argument's term, 1/2 Phi(0) - T(0, +-inf), equals its beta and drops
out; at h = k = 0 the terms sum to asin(rho) / 2pi.  g is computed directly
for b <= 1.  Above b = 1, g falls to the size of Q(bh) while T(h, b) stays
near 1/2 Q(h), so g swaps through T(h, b) + T(bh, 1/b) = 1/2 Phi(h) +
1/2 Phi(bh) - Phi(h) Phi(bh) to T(bh, 1/b) - 1/2 Q(bh) erf(h / sqrt 2), both
of whose terms are at most 1/2 Q(bh).

Phi2 is split the way a grid uses it: :func:`bvn_prep` computes what
depends on one argument (once per grid axis), and :func:`bvn_combine` does
only the work of each point, whatever the shapes it broadcasts.
:func:`bivariate_normal_cdf` runs both on its finite arguments as a
:class:`~mktp2.core.Form`, whose call takes them in chunks.  That is why
this module imports :mod:`mktp2.core`: the chunk rule of every pointwise
call lives in ``Form.__call__`` alone.  :mod:`mktp2.core` imports this
module only inside ``make_gaussian``, so loading either never loops.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy import special

from .core import Form
from .errors import ValidationError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def std_normal_cdf(x):
    """Phi(x), vectorized, accurate to full double precision."""
    return special.ndtr(np.asarray(x, dtype=float))


def std_normal_quantile(p):
    """Phi^{-1}(p) for p in (0,1); rejects endpoints and out-of-range values."""
    arr = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValidationError(f"quantile needs p in (0,1), got {p!r}")
    out = special.ndtri(arr)
    return float(out) if np.isscalar(p) or arr.ndim == 0 else out


def bvn_prep(x, rho):
    """What the terms of Phi2 take from one argument array ``x`` alone, for :func:`bvn_combine`:
    x, |x|, rho x, sign x, the mask x == 0, 1/2 Q(|x|), erf(|x| / sqrt 2),
    (1 + sign x) / 4 and 1 + sign x."""
    h = np.abs(x)
    sign = np.sign(x)
    axis = (0.5 * special.ndtr(-h), special.erf(h * _INV_SQRT2), 0.25 * (1.0 + sign), 1.0 + sign)
    return (x, h, rho * x, sign, x == 0.0, *axis)


def _term(p, y, s):
    """sign(x) g(|x|, b_x) at every point of the broadcast of prep ``p`` of x with ``y``.

    It takes c = b_x |x| = (rho x - y) / s, which is also the swap branch's
    b h, and one Owen's T per point, on the branch of c > |x|.  The swap
    branch's Q(c) is evaluated at the swap points alone.
    """
    _, h, rho_x, sign, _, half_q, erf_h, _, _ = p
    c = (rho_x - y) / s
    swap = c > h
    a = np.where(swap, c, h)
    t = special.owens_t(a, np.where(swap, h, c) / a)
    g = np.asarray(half_q - t)  # an array even at a 0-d point, so the swap points can be set
    if swap.any():
        g[swap] = t[swap] - 0.5 * special.ndtr(-c[swap]) * np.broadcast_to(erf_h, t.shape)[swap]
    return sign * g


def bvn_combine(px, py, rho):
    """Phi2(h, k; rho) at every point of the broadcast of :func:`bvn_prep`'s ``px`` of h and
    ``py`` of k, all finite.

    A zero argument's term is 0 * g and adds nothing (g is finite there but
    at h = k = 0, whose terms are overwritten).  The terms sum as 0 + t_h +
    t_k, which has the bits of 0 + t_k + t_h, so Phi2(h, k) and Phi2(k, h)
    agree exactly.
    """
    h, _, _, _, zero_h, _, _, quarter_h, _ = px
    k, _, _, _, zero_k, _, _, _, one_plus_k = py
    s = np.sqrt(1.0 - rho * rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = 0.0 + _term(px, k, s)
        terms += _term(py, h, s)
    if np.any(zero_h) and np.any(zero_k):
        terms = np.where(zero_h & zero_k, -np.arcsin(rho) / (2.0 * np.pi), terms)
    return np.clip(quarter_h * one_plus_k - terms, 0.0, 1.0)


def bivariate_normal_cdf(a, b, rho):
    """P(X <= a, Y <= b) for standard normals with correlation rho in (-1, 1)."""
    if not (-1.0 < rho < 1.0):
        raise ValidationError(f"correlation must lie in (-1, 1), got {rho}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scalar = a.ndim == 0 and b.ndim == 0
    a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))
    finite = np.isfinite(a) & np.isfinite(b)
    prep = partial(bvn_prep, rho=rho)
    out = np.empty(a.shape)
    out[finite] = Form(partial(bvn_combine, rho=rho), prep, prep)(a[finite], b[finite])
    # +-inf arguments bypass the closed form: Phi2 degenerates to a marginal
    out[~finite] = np.minimum(std_normal_cdf(a[~finite]), std_normal_cdf(b[~finite]))
    return float(out[0]) if scalar else out
