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
"""

from __future__ import annotations

import numpy as np
from scipy import special

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


def _g(h, c):
    """g(h, c / h) = 1/2 Q(h) - T(h, c / h) for h > 0, each branch on its own mask."""
    out = np.empty_like(h)
    swap = c > h
    h1, c1 = h[~swap], c[~swap]
    out[~swap] = 0.5 * special.ndtr(-h1) - special.owens_t(h1, c1 / h1)
    h2, c2 = h[swap], c[swap]
    out[swap] = special.owens_t(c2, h2 / c2) - 0.5 * special.ndtr(-c2) * special.erf(h2 * _INV_SQRT2)
    return out


def bivariate_normal_cdf(a, b, rho):
    """P(X <= a, Y <= b) for standard normals with correlation rho in (-1, 1)."""
    if not (-1.0 < rho < 1.0):
        raise ValidationError(f"correlation must lie in (-1, 1), got {rho}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scalar = a.ndim == 0 and b.ndim == 0
    a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))
    finite = np.isfinite(a) & np.isfinite(b)
    h, k = a[finite], b[finite]
    s = np.sqrt(1.0 - rho * rho)
    # sign(x) g summed over both arguments: 0 + t_h + t_k has the bits of 0 + t_k + t_h,
    # so C(u, v) and C(v, u) agree exactly
    terms = np.zeros_like(h)
    for x, y in ((h, k), (k, h)):
        nz = x != 0.0
        # _g takes c = b_x |x| = (rho x - y) / s, which is also the swap branch's b h
        g = _g(np.abs(x[nz]), (rho * x[nz] - y[nz]) / s)
        terms[nz] += np.sign(x[nz]) * g
    terms[(h == 0.0) & (k == 0.0)] = -np.arcsin(rho) / (2.0 * np.pi)
    out = np.empty(a.shape)
    out[finite] = 0.25 * (1.0 + np.sign(h)) * (1.0 + np.sign(k)) - terms
    # +-inf arguments bypass the closed form: Phi2 degenerates to a marginal
    out[~finite] = np.minimum(std_normal_cdf(a[~finite]), std_normal_cdf(b[~finite]))
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out
