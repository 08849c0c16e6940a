"""Rectangles in the open unit square, scan grids, and the numeric primitives all modules share."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# twice the largest grid any search stage uses; one (n, n) float64 array
# then takes 32 MB.  Grids are evaluated and scanned in row blocks: the cdf
# and the density are never held whole, so only MK-TP2 holds a grid, its
# kernel grid for the span sweep, with the sweep's block-sized buffers and
# tile bounds (under 9 MB at 1024^2, 8 MB of it the grid)
MAX_GRID = 2048


@dataclass(frozen=True)
class Rectangle:
    """Axis-parallel rectangle [u1,u2] x [v1,v2] inside the open unit square.

    Degenerate rectangles (u1 == u2 or v1 == v2) are allowed so that point
    and line witnesses share the same carrier type.
    """

    u1: float
    u2: float
    v1: float
    v2: float

    def __post_init__(self):
        if not (0.0 < self.u1 <= self.u2 < 1.0):
            raise ValidationError(f"need 0 < u1 <= u2 < 1, got u1={self.u1}, u2={self.u2}")
        if not (0.0 < self.v1 <= self.v2 < 1.0):
            raise ValidationError(f"need 0 < v1 <= v2 < 1, got v1={self.v1}, v2={self.v2}")

    def as_tuple(self):
        return (self.u1, self.u2, self.v1, self.v2)


@dataclass(frozen=True)
class GridConfig:
    """Resolution, margins and tolerances governing every numeric scan.

    ``tol_eq`` separates exact ties from rounding noise; a defect above
    ``tol_eq`` but at most ``tol_strict`` is treated as inconclusive, and
    only defects above ``tol_strict`` count as genuine violations.
    ``spacing`` selects uniform or logit-spaced interior points; logit
    spacing concentrates points near the boundary where extreme-value
    kernels vary steeply.
    """

    n_u: int = 256
    n_v: int = 256
    margin: float = 0.005
    tol_eq: float = 1e-12
    tol_strict: float = 1e-9
    spacing: str = "uniform"

    def __post_init__(self):
        if self.n_u < 2 or self.n_v < 2:
            raise ValidationError(f"grid needs at least 2 points per axis, got {self.n_u}x{self.n_v}")
        if self.n_u > MAX_GRID or self.n_v > MAX_GRID:
            raise ValidationError(
                f"grid allows at most {MAX_GRID} points per axis, got {self.n_u}x{self.n_v}"
            )
        if not (0.0 < self.margin < 0.5):
            raise ValidationError(f"margin must lie in (0, 0.5), got {self.margin}")
        # a NaN tolerance compares false against every defect, and an infinite
        # one bands every defect away, so either would read as "holds"
        for name in ("tol_eq", "tol_strict"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0.0 <= self.tol_eq <= self.tol_strict):
            raise ValidationError(
                f"need tol_strict >= tol_eq >= 0, got tol_eq={self.tol_eq}, tol_strict={self.tol_strict}"
            )
        if self.spacing not in ("uniform", "logit"):
            raise ValidationError(f"unknown spacing {self.spacing!r}")

    def axis(self, n, lo=None, hi=None):
        """Interior points on [lo, hi] (defaults: [margin, 1-margin])."""
        lo = self.margin if lo is None else lo
        hi = 1.0 - self.margin if hi is None else hi
        if self.spacing == "logit":
            s = np.linspace(_logit(lo), _logit(hi), n)
            return 1.0 / (1.0 + np.exp(-s))
        return np.linspace(lo, hi, n)

    def u_axis(self):
        return self.axis(self.n_u)

    def v_axis(self):
        return self.axis(self.n_v)

    def describe(self):
        """JSON-ready summary, embedded in verdict certificates."""
        return {
            "n_u": self.n_u,
            "n_v": self.n_v,
            "margin": self.margin,
            "tol_eq": self.tol_eq,
            "tol_strict": self.tol_strict,
            "spacing": self.spacing,
        }


def _logit(p):
    return float(np.log(p / (1.0 - p)))


DEFAULT_GRID = GridConfig()


def crossing(pred, lo, hi):
    """The adjacent doubles ``(a, b)`` in ``[lo, hi]`` where a monotone ``pred`` turns true.

    Needs ``0 <= lo <= hi`` with ``pred`` false at ``lo`` and true at ``hi``
    (neither end is evaluated); then ``pred(a)`` is false, ``pred(b)`` true
    and ``b`` is the double after ``a``.  A ``pred`` false everywhere inside
    ends the pair at ``hi``; one true everywhere inside starts it at ``lo``.  A non-negative double orders as its
    bits read as an int64, so the search bisects those integer keys: at most
    63 steps from any bracket, each evaluating ``pred`` once on every point.
    Brackets are vectorized, and each one's result depends only on its own
    point, never on the others searched with it; scalar brackets give scalars.
    """
    # -0.0 + 0.0 is 0.0, whose key is 0
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float) + 0.0, np.asarray(hi, dtype=float) + 0.0)
    a, b = lo.view(np.int64), hi.view(np.int64)
    while np.any(wide := b - a > 1):
        mid = a + (b - a) // 2
        take = wide & pred(mid.view(float)[()])
        b = np.where(take, mid, b)
        a = np.where(wide & ~take, mid, a)
    return a.view(float)[()], b.view(float)[()]


def runs(mask):
    """``[(start, stop), ...]`` of the maximal runs of True in a 1-D mask; ``stop`` is exclusive."""
    padded = np.concatenate(([0], np.asarray(mask, dtype=np.int8), [0]))
    edges = np.flatnonzero(np.diff(padded))
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))

