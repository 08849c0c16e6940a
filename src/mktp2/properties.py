"""Numeric certification and falsification of positive-dependence properties.

Every check scans a finite grid and returns a :class:`Verdict`.  A ``holds``
verdict is always "holds at this grid and tolerance" (the certificate records
both); only the analytic classifiers in :mod:`mktp2.archimedean` and
:mod:`mktp2.extreme_value` can certify a property unconditionally.  A
``fails`` verdict carries a witness whose defect, recomputed from the copula
alone, exceeds the strict tolerance; defects inside the band
``(tol_eq, tol_strict]`` are reported as inconclusive, never as failures.
A grid holding a non-finite value is not scanned and reads as inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import as_form
from .errors import DomainError, ValidationError
from .grids import DEFAULT_GRID, Rectangle, corners

__all__ = [
    "Status",
    "Witness",
    "Verdict",
    "PROPERTIES",
    "check_pqd",
    "check_ltd",
    "check_si",
    "check_tp2",
    "check_mktp2",
    "check_dtp2",
    "log_convexity_test",
    "log_concavity_test",
    "two_increasing_test",
    "counterexample_search",
    "property_verdicts",
    "rectangle_defect",
]


class Status(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class Witness:
    """Location and evaluated values of the worst defect found by a scan.

    ``kind`` names the form of ``points``: ``point`` (u, v) for pointwise
    tests, ``line`` (u1, u2, v) for per-line monotonicity tests,
    ``rectangle`` (u1, u2, v1, v2) for rectangle tests, ``triple``
    (x0, x1, x2) for midpoint tests, ``jump`` (x,) for a D-psi jump and
    ``ratio-pair`` (t1, t2) for the extreme-value monotone-ratio test.  Only
    the first three have a :meth:`rectangle` form.  ``defect`` is oriented
    so that positive means violation.
    """

    points: tuple
    values: tuple
    defect: float
    kind: str

    def rectangle(self):
        if self.kind == "rectangle":
            u1, u2, v1, v2 = self.points
            return Rectangle(u1, u2, v1, v2)
        if self.kind == "line":
            u1, u2, v = self.points
            return Rectangle(u1, u2, v, v)
        if self.kind == "point":
            u, v = self.points
            return Rectangle(u, u, v, v)
        raise ValidationError(f"witness of kind {self.kind!r} has no rectangle form")

    def describe(self):
        return {
            "kind": self.kind,
            "points": [float(p) for p in self.points],
            "values": [float(x) for x in self.values],
            "defect": float(self.defect),
        }


@dataclass(frozen=True)
class Verdict:
    status: Status
    witness: Optional[Witness] = None
    certificate: dict = field(default_factory=dict)
    note: str = ""

    @property
    def holds(self):
        return self.status is Status.HOLDS

    def describe(self):
        out = {
            "status": self.status.value,
            "certificate": self.certificate,
            "witness": self.witness.describe() if self.witness else None,
        }
        if self.note:
            out["note"] = self.note
        return out


PROPERTIES = ("pqd", "ltd", "si", "tp2", "mktp2", "dtp2")


def _band(defect, tol_eq, tol_strict):
    """The tolerance-banding rule: above ``tol_strict`` fails, inside the band is inconclusive."""
    if defect > tol_strict:
        return Status.FAILS
    if defect > tol_eq:
        return Status.INCONCLUSIVE
    return Status.HOLDS


_GRID_BAND_NOTE = "defect inside the tolerance band (tol_eq, tol_strict]"


def _verdict(
    defect, witness, certificate, tol_eq, tol_strict, band_note=_GRID_BAND_NOTE, holds_note=""
):
    """The :class:`Verdict` of :func:`_band`: ``fails`` keeps the witness, the band
    keeps it with ``band_note``, and ``holds`` drops it and carries ``holds_note``."""
    status = _band(defect, tol_eq, tol_strict)
    if status is Status.HOLDS:
        return Verdict(status, None, certificate, holds_note)
    if status is Status.INCONCLUSIVE:
        return Verdict(status, witness, certificate, band_note)
    return Verdict(status, witness, certificate)


def _axes(grid, region):
    if region is None:
        return grid.u_axis(), grid.v_axis()
    return grid.u_axis(region.u1, region.u2), grid.v_axis(region.v1, region.v2)


# points per row block of the grid layer: 256 KB of float64, so an
# evaluation's temporaries for a block stay cache-sized at any grid
BLOCK_POINTS = 32768
# side of the square tiles whose bounds let the MK-TP2 span sweep skip cells.
# Measured against sweeping every cell: at 1024^2, tiles of 64 prune far less
# (FGM theta < 0 takes 0.72 of the full sweep's time, against 0.05 with 32),
# and at 256^2 tiles of 16 cost more in bounds than they save (evc-log 1.7
# times the full sweep, against 1.06 with 32)
TILE = 32
# tiles per chunk of the span sweep's bound pass: 32 KB of float64 per
# array, so the pass adds little to the sweep's mask and buffers; every span
# pair of a 256^2 grid fits one chunk, whose bounds the sweep then keeps
BOUND_CHUNK = 4096


def _row_blocks(n_rows, row_len):
    """``(start, stop)`` row ranges, in order, of blocks of about :data:`BLOCK_POINTS` points."""
    step = max(1, BLOCK_POINTS // max(1, row_len))
    return [(r, min(r + step, n_rows)) for r in range(0, n_rows, step)]


def _grid_eval(fn, us, vs):
    """``fn`` on the grid ``us`` x ``vs`` as a float ``(len(us), len(vs))`` array.

    ``fn`` runs in its per-axis form (:func:`~mktp2.core.as_form`): the u
    column and the v row are prepped once, and each row block combines its
    prepped u rows with the v row, so no meshgrid is built.  Each combine is
    elementwise, so the result is bit for bit that of ``fn`` on the full
    meshgrid, and an error names the same first offending point.
    """
    form = as_form(fn)
    pu = form.prep_u(np.asarray(us, dtype=float)[:, None])
    pv = form.prep_v(np.asarray(vs, dtype=float)[None, :])
    out = np.empty((len(us), len(vs)))
    for r0, r1 in _row_blocks(len(us), len(vs)):
        rows = pu[r0:r1] if isinstance(pu, np.ndarray) else tuple(p[r0:r1] for p in pu)
        out[r0:r1] = form.combine(rows, pv)
    return out


def _non_finite_note(name, values, us, vs):
    """A note naming the first non-finite grid value, or "" when every value is finite."""
    bad = ~np.isfinite(values)
    if not bad.any():
        return ""
    i, j = np.argwhere(bad)[0]
    return f"non-finite {name} value at (u, v) = ({us[i]:.6g}, {vs[j]:.6g})"


def _certificate(method, grid, region=None, **extra):
    cert = {"method": method, "grid": grid.describe()}
    if region is not None:
        cert["region"] = list(region.as_tuple())
    cert.update(extra)
    return cert


# ---------------------------------------------------------------------------
# scans of one evaluated grid: each returns (defect, witness) of the worst cell
# ---------------------------------------------------------------------------


def _scan_pqd(cdf, us, vs, grid):
    defect = np.outer(us, vs) - cdf
    i, j = np.unravel_index(np.argmax(defect), defect.shape)
    w = Witness(
        points=(float(us[i]), float(vs[j])),
        values=(float(cdf[i, j]), float(us[i] * vs[j])),
        defect=float(defect[i, j]),
        kind="point",
    )
    return float(defect[i, j]), w


def _scan_line_monotone(values, us, vs, grid):
    """Worst forward-difference violation of u -> values non-increasing per v-line."""
    defect = values[1:, :] - values[:-1, :]
    i, j = np.unravel_index(np.argmax(defect), defect.shape)
    w = Witness(
        points=(float(us[i]), float(us[i + 1]), float(vs[j])),
        values=(float(values[i, j]), float(values[i + 1, j])),
        defect=float(defect[i, j]),
        kind="line",
    )
    return float(defect[i, j]), w


def _scan_ltd(cdf, us, vs, grid):
    return _scan_line_monotone(cdf / us[:, None], us, vs, grid)


def _rectangle_witness(values, us, vs, i, j, su, sv, defect):
    """Witness of the grid rectangle [us[i], us[i+su]] x [vs[j], vs[j+sv]] with
    its corner values (f11, f12, f21, f22)."""
    return Witness(
        points=(float(us[i]), float(us[i + su]), float(vs[j]), float(vs[j + sv])),
        values=(
            float(values[i, j]),
            float(values[i, j + sv]),
            float(values[i + su, j]),
            float(values[i + su, j + sv]),
        ),
        defect=float(defect),
        kind="rectangle",
    )


def _adjacent_cross_defect(values, us, vs, grid):
    """Worst adjacent-cell violation of f11*f22 - f12*f21 >= 0."""
    f11 = values[:-1, :-1]
    f22 = values[1:, 1:]
    f12 = values[:-1, 1:]
    f21 = values[1:, :-1]
    defect = f12 * f21 - f11 * f22
    i, j = np.unravel_index(np.argmax(defect), defect.shape)
    return float(defect[i, j]), _rectangle_witness(values, us, vs, i, j, 1, 1, defect[i, j])


def _dyadic_spans(n):
    spans = [1]
    while spans[-1] * 2 <= n // 2:
        spans.append(spans[-1] * 2)
    return spans


def _tile_reduce(ufunc, values):
    """``ufunc`` reduced over each :data:`TILE` x :data:`TILE` tile of ``values``
    (the last tile row and column may be partial)."""
    n_u, n_v = values.shape
    full = n_u - n_u % TILE
    rows = [ufunc.reduce(values[:full].reshape(-1, TILE, n_v), axis=1)]
    if full < n_u:
        rows.append(ufunc.reduce(values[full:], axis=0, keepdims=True))
    return ufunc.reduceat(np.concatenate(rows), np.arange(0, n_v, TILE), axis=1)


def _tile_extremes(values):
    """``(hi, lo)``: the max and min of ``values`` over each :data:`TILE` x :data:`TILE` tile.

    Both carry one more tile row and column, of -inf in ``hi`` and +inf in
    ``lo``, for shifted regions that run past the grid.  Rounding bounds the
    defect only on finite values >= 0; where ``values`` hold any other value
    (negative, infinite or NaN), every tile reads ``hi = +inf`` and
    ``lo = 0``, so every tile bound is +inf and no tile is skipped.
    """
    n_u, n_v = values.shape
    hi = np.full((-(-n_u // TILE) + 1, -(-n_v // TILE) + 1), -np.inf)
    lo = np.full_like(hi, np.inf)
    hi[:-1, :-1] = _tile_reduce(np.maximum, values)
    lo[:-1, :-1] = _tile_reduce(np.minimum, values)
    if not (lo.min() >= 0.0 and hi.max() < np.inf):
        hi[:-1, :-1], lo[:-1, :-1] = np.inf, 0.0
    return hi, lo


def _tile_bounds(hi, lo, shape, sus, svs):
    """Tile bounds U of the span pairs ``(su, sv)``, ``su`` in ``sus`` and ``sv`` in
    ``svs``, as an array indexed ``[su index, tile row, sv index, tile column]``.

    Cell ``(i, j)`` of a span pair is the rectangle with corners
    ``f11 = K[i, j]``, ``f12 = K[i, j + sv]``, ``f21 = K[i + su, j]`` and
    ``f22 = K[i + su, j + sv]``; it lies in tile ``(i // TILE, j // TILE)``.
    Over a tile's cells, A and B are the max of the f12 and of the f21
    values, C and D the min of the f11 and of the f22 values, each read from
    :func:`_tile_extremes` on the tiles its shifted region covers: two per
    axis along which the span is not a multiple of :data:`TILE`.  Then
    ``U = fl(fl(A*B) - fl(C*D))``.  A NaN U (both products overflow) reads
    +inf, and a tile that holds no cell of its span pair reads NaN.
    """
    n_u, n_v = shape
    n_rows, n_cols = hi.shape[0] - 1, hi.shape[1] - 1
    sus, svs = np.asarray(sus), np.asarray(svs)
    rows, cols = np.arange(n_rows), np.arange(n_cols)
    r1 = np.minimum(rows + (sus // TILE)[:, None], n_rows)
    r2 = np.minimum(rows - (-sus // TILE)[:, None], n_rows)
    c1 = np.minimum(cols + (svs // TILE)[:, None], n_cols)
    c2 = np.minimum(cols - (-svs // TILE)[:, None], n_cols)
    a = np.maximum(hi[:-1, c1], hi[:-1, c2])
    b = np.maximum(hi[r1, :-1], hi[r2, :-1])
    low = np.minimum(lo[:, c1], lo[:, c2])
    d = np.minimum(low[r1], low[r2])
    with np.errstate(over="ignore", invalid="ignore"):
        bound = a * b[:, :, None, :]
        d *= lo[:-1, None, :-1]
        bound -= d
    np.copyto(bound, np.inf, where=np.isnan(bound))
    empty_rows = rows * TILE >= n_u - sus[:, None]
    empty_cols = cols * TILE >= n_v - svs[:, None]
    np.copyto(bound, np.nan, where=empty_rows[:, :, None, None] | empty_cols)
    return bound


def _live_columns(bound, best):
    """``(first, last)``: per tile row, the first and last tile column whose bound is
    not below ``best`` (``first > last`` when there is none)."""
    live = bound >= best
    cols = np.arange(bound.shape[1])
    first = np.where(live, cols, bound.shape[1]).min(axis=1)
    last = np.where(live, cols, -1).max(axis=1)
    return first.tolist(), last.tolist()


def _spanned_cross_defect(values, us, vs, grid):
    """Worst violation over rectangles with dyadic index spans.

    Rectangles whose lower-right value K(u2, v1) is not above ``grid.tol_eq``
    are skipped: those lie in the kernel's zero region where the TP2
    inequality holds trivially.  That zero-region mask is computed once per
    grid.  The result is the first strict maximum in span-pair-then-row-major
    order: the span pairs ``(su, sv)`` in the order of :func:`_dyadic_spans`,
    ``su`` outer, and within a pair its rectangles row by row.

    The sweep is an exact branch-and-bound over the tiles of
    :func:`_tile_bounds`.  When every grid value is finite and >= 0, rounding
    is monotone (``x <= y`` gives ``fl(x) <= fl(y)``), so ``fl(K12*K21) <=
    fl(A*B)``, ``fl(K11*K22) >= fl(C*D)`` and every kept rectangle's defect is
    at most its tile's U, bit for bit; on any other grid every U is +inf.
    The span pairs are taken in decreasing order of their largest U, and the
    sweep stops at the first pair whose largest U is below ``best``, the
    largest defect found so far.  Within a pair, each row block of
    :func:`_row_blocks` is evaluated, in two block-sized buffers allocated
    once per call, over the columns from its first to its last tile whose U
    is not below ``best``, and is skipped when it has none.  Only a U
    strictly below ``best`` skips a tile, so every rectangle with the final
    defect is evaluated.  Each pair records its own first strict maximum in
    row-major order among the defects that are not NaN (both products
    overflow), whatever the row blocks; at the end the pairs are merged in
    the order above, a later pair winning only with a strictly larger
    defect.  So the defect, the witness and the sign of a zero defect are
    those of sweeping every rectangle in that order.  The witness is built
    once, at the end.

    The bounds of all span pairs are computed first, before the mask and the
    buffers, in chunks of at most :data:`BOUND_CHUNK` tiles.  A grid whose
    bounds fit one chunk keeps them; on a larger grid a pair's bounds are
    computed again when the sweep first needs them (when its smallest U is
    below ``best``), so the sweep holds the bounds of one pair at a time.

    :func:`property_verdicts` skips the sweep when
    :func:`_kernel_tp2_certified` proves its maximum is at most 0.  The
    refine step and :func:`counterexample_search` always sweep: the search
    zooms on each stage's argmax witness, even one with a negative defect.
    """
    n_u, n_v = values.shape
    spans_u, spans_v = _dyadic_spans(n_u), _dyadic_spans(n_v)
    hi, lo = _tile_extremes(values)
    tiles = (hi.shape[0] - 1) * (hi.shape[1] - 1)
    sv_step = min(len(spans_v), max(1, BOUND_CHUNK // tiles))
    su_step = max(1, BOUND_CHUNK // (tiles * sv_step))
    tops = np.empty((len(spans_u), len(spans_v)))
    floors = np.empty_like(tops)
    for r in range(0, len(spans_u), su_step):
        for c in range(0, len(spans_v), sv_step):
            bounds = _tile_bounds(hi, lo, values.shape, spans_u[r : r + su_step], spans_v[c : c + sv_step])
            tops[r : r + su_step, c : c + sv_step] = np.fmax.reduce(bounds, axis=(1, 3))
            floors[r : r + su_step, c : c + sv_step] = np.fmin.reduce(bounds, axis=(1, 3))
    if su_step < len(spans_u) or sv_step < len(spans_v):
        bounds = None
    tops, floors = tops.ravel().tolist(), floors.ravel().tolist()
    skip = ~(values > grid.tol_eq)
    size = min((n_u - 1) * (n_v - 1), max(BLOCK_POINTS, n_v))
    defect_buf = np.empty(size)
    product_buf = np.empty(size)
    best = -np.inf
    found = [None] * len(tops)
    for k in sorted(range(len(tops)), key=lambda k: -tops[k]):
        if tops[k] < best:
            break
        iu, iv = divmod(k, len(spans_v))
        su, sv = spans_u[iu], spans_v[iv]
        width = n_v - sv
        pair_best = -np.inf
        bound = ranged = None
        for r0, r1 in _row_blocks(n_u - su, width):
            c0, c1 = 0, width
            if floors[k] < best:
                if bound is None and bounds is not None:
                    bound = bounds[iu, :, iv]
                elif bound is None:
                    bound = _tile_bounds(hi, lo, values.shape, [su], [sv])[0, :, 0]
                if ranged != best:
                    first, last = _live_columns(bound, best)
                    ranged = best
                t0, t1 = r0 // TILE, (r1 - 1) // TILE + 1
                t_first, t_last = min(first[t0:t1]), max(last[t0:t1])
                if t_first > t_last:
                    continue
                c0, c1 = t_first * TILE, min(t_last * TILE + TILE, width)
            n_cols = c1 - c0
            cells = (r1 - r0) * n_cols
            defect = defect_buf[:cells].reshape(r1 - r0, n_cols)
            product = product_buf[:cells].reshape(r1 - r0, n_cols)
            upper, lower = values[r0:r1], values[r0 + su : r1 + su]
            f11, f12 = upper[:, c0:c1], upper[:, c0 + sv : c1 + sv]
            f21, f22 = lower[:, c0:c1], lower[:, c0 + sv : c1 + sv]
            np.multiply(f12, f21, out=defect)
            np.multiply(f11, f22, out=product)
            np.subtract(defect, product, out=defect)
            np.copyto(defect, -np.inf, where=skip[r0 + su : r1 + su, c0:c1])
            m = int(defect.argmax())
            if np.isnan(defect_buf[m]):
                # argmax stops at the first NaN; the block's maximum may lie past it
                np.copyto(defect, -np.inf, where=np.isnan(defect))
                m = int(defect.argmax())
            d = float(defect_buf[m])
            if d > pair_best:
                pair_best = d
                found[k] = (d, r0 + m // n_cols, c0 + m % n_cols, su, sv)
                best = max(best, d)
    best, best_at = -np.inf, None
    for record in found:
        if record is not None and record[0] > best:
            best, best_at = record[0], record[1:]
    if best_at is None:
        return best, None
    return best, _rectangle_witness(values, us, vs, *best_at, best)


# Veltkamp's splitter for binary64: 2**27 + 1 cuts a double into two halves
# whose pairwise products are exact
_SPLIT = 134217729.0
# positive kernel values the certificate accepts: inside these bounds no
# product, split or product error term can overflow or lose bits to underflow
_CERTIFIED_MIN = 2.0**-450
_CERTIFIED_MAX = 2.0**500


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _product_error(a, b, p):
    """Exact ``a*b - p`` where ``p = fl(a*b)`` (Dekker's two-product)."""
    ah, al = _split(a)
    bh, bl = _split(b)
    return al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _kernel_tp2_certified(values):
    """True when no rectangle :func:`_spanned_cross_defect` keeps can have a positive defect.

    TP2 is local-to-global (Karlin 1968): where K > 0, the cross ratio
    K12*K21 / (K11*K22) of a rectangle is the product of the adjacent-cell
    ratios inside it.  The certificate needs three things:

    * the positive cells form a staircase: each row is positive on a suffix
      ``j >= z_i`` with ``z_i`` non-decreasing in i, so every rectangle with
      K21 > 0 (the sweep keeps only those, as ``tol_eq >= 0``) has a fully
      positive index box;
    * every adjacent cell with four positive corners has K12*K21 <= K11*K22
      exactly on the float values: where the rounded products differ their
      order is exact, since round-to-nearest is monotone; where they tie,
      the product error terms decide;
    * every positive value lies in [2**-450, 2**500], so the error terms
      are exact.

    Then every kept rectangle's exact ratio is at most 1, its rounded
    products keep that order, and its defect is at most 0 <= ``tol_eq``:
    the sweep would read ``holds``.  False means only "not proven"; the
    sweep then decides.
    """
    positive = values > 0.0
    if np.any(positive[:, :-1] > positive[:, 1:]) or np.any(positive[1:] > positive[:-1]):
        return False
    if values.max() > _CERTIFIED_MAX or values.min(where=positive, initial=np.inf) < _CERTIFIED_MIN:
        return False
    # on a staircase a cell's four corners are positive iff its K21 corner is
    cell = positive[1:, :-1]
    f11 = values[:-1, :-1]
    f22 = values[1:, 1:]
    f12 = values[:-1, 1:]
    f21 = values[1:, :-1]
    cross = f12 * f21
    direct = f11 * f22
    if np.any((cross > direct) & cell):
        return False
    tie = cross == direct
    del cross, direct
    tie &= cell
    # products of the same two factors are equal exactly (Pi and M tie on
    # every cell this way), so only the other ties need error terms
    tie &= ~(((f12 == f11) & (f21 == f22)) | ((f12 == f22) & (f21 == f11)))
    i, j = np.nonzero(tie)
    if i.size == 0:
        return True
    a, b, c, d = values[i, j + 1], values[i + 1, j], values[i, j], values[i + 1, j + 1]
    p = a * b
    return not np.any(_product_error(a, b, p) > _product_error(c, d, p))


# ---------------------------------------------------------------------------
# the property table and its one evaluation site
# ---------------------------------------------------------------------------


class _Check(NamedTuple):
    quantity: str  # the Copula callable the scan reads: "cdf", "kernel" or "density"
    scan: Callable  # (values, us, vs, grid) -> (defect, witness)
    method: str  # certificate method
    extra: dict = {}  # further certificate entries


_TABLE = {
    "pqd": _Check("cdf", _scan_pqd, "grid:pqd"),
    "ltd": _Check("cdf", _scan_ltd, "grid:ltd"),
    "si": _Check("kernel", _scan_line_monotone, "grid:si"),
    "tp2": _Check("cdf", _adjacent_cross_defect, "grid:tp2:direct"),
    "mktp2": _Check("kernel", _spanned_cross_defect, "grid:mktp2", {"spans": "adjacent+dyadic"}),
    "dtp2": _Check("density", _adjacent_cross_defect, "grid:dtp2"),
}


def _evaluate(copula, quantity, us, vs, evaluated):
    """``(values, note)`` of one quantity on the axes ``us`` x ``vs``.

    ``evaluated`` holds the quantity grids already evaluated on these axes,
    so properties that read the same quantity share one evaluation.  A
    non-finite value would win a scan's argmax and compare as no violation,
    so a grid holding one must not be scanned: ``note`` then names the first
    offending point, and is "" otherwise.
    """
    if quantity not in evaluated:
        evaluated[quantity] = _grid_eval(getattr(copula, quantity), us, vs)
    values = evaluated[quantity]
    return values, _non_finite_note(quantity, values, us, vs)


def _scan(copula, prop, us, vs, grid, evaluated):
    """``(defect, witness, note)`` of one property's scan on the axes ``us`` x ``vs``;
    ``(None, None, note)`` when the quantity grid holds a non-finite value."""
    values, note = _evaluate(copula, _TABLE[prop].quantity, us, vs, evaluated)
    if note:
        return None, None, note
    return (*_TABLE[prop].scan(values, us, vs, grid), "")


def _refine_rectangle(copula, witness, grid, n_local=64):
    """Re-scan MK-TP2 on a small window around a violating rectangle at finer resolution."""
    us, vs = _window_axes(witness, n_local, 1.0, 1e-6, 1e-9)
    return _scan(copula, "mktp2", us, vs, grid, {})


def property_verdicts(copula, grid=DEFAULT_GRID, props=PROPERTIES, region=None):
    """Grid verdicts of ``props`` for one copula, keyed by property.

    Each grid quantity (``cdf``, ``kernel``, ``density``) is evaluated once
    and shared by every property that reads it, in the order
    :data:`PROPERTIES` first needs it.  ``region`` restricts the scan to a
    rectangle.  A ``fails`` MK-TP2 witness is refined on a finer local
    window.  MK-TP2 first tries :func:`_kernel_tp2_certified` on the kernel
    grid and runs the span sweep only when that does not prove ``holds``.
    A quantity with a non-finite grid value makes the properties reading it
    ``inconclusive``; a copula without a density makes ``dtp2`` not
    applicable.
    """
    for prop in props:
        if prop not in _TABLE:
            raise ValidationError(f"unknown property {prop!r}; expected one of {PROPERTIES}")
    us, vs = _axes(grid, region)
    evaluated = {}
    out = {}
    for prop in PROPERTIES:
        if prop not in props:
            continue
        check = _TABLE[prop]
        cert = _certificate(check.method, grid, region, **check.extra)
        if getattr(copula, check.quantity) is None:
            note = f"{copula.label} exposes no density (not absolutely continuous)"
            out[prop] = Verdict(Status.NOT_APPLICABLE, None, cert, note=note)
            continue
        values, note = _evaluate(copula, check.quantity, us, vs, evaluated)
        if note:
            out[prop] = Verdict(Status.INCONCLUSIVE, None, cert, note)
            continue
        if prop == "mktp2" and _kernel_tp2_certified(values):
            out[prop] = Verdict(Status.HOLDS, None, cert)
            continue
        defect, witness = check.scan(values, us, vs, grid)
        if prop == "mktp2" and defect > grid.tol_strict:
            refined_defect, refined_witness, refined_note = _refine_rectangle(copula, witness, grid)
            if not refined_note and refined_defect > defect:
                defect, witness = refined_defect, refined_witness
        out[prop] = _verdict(defect, witness, cert, grid.tol_eq, grid.tol_strict)
    return out


def check_pqd(copula, grid=DEFAULT_GRID, region=None):
    """C(u,v) >= uv on the interior grid."""
    return property_verdicts(copula, grid, ("pqd",), region)["pqd"]


def check_ltd(copula, grid=DEFAULT_GRID, region=None):
    """u -> C(u,v)/u non-increasing for every grid v."""
    return property_verdicts(copula, grid, ("ltd",), region)["ltd"]


def check_si(copula, grid=DEFAULT_GRID, region=None):
    """u -> K(u,[0,v]) non-increasing for every grid v."""
    return property_verdicts(copula, grid, ("si",), region)["si"]


def check_tp2(copula, grid=DEFAULT_GRID, region=None):
    """TP2 of the copula itself: adjacent-cell cross products of the CDF
    (adjacent quadruples generate grid TP2 for these smooth, a.e.-positive
    surfaces)."""
    return property_verdicts(copula, grid, ("tp2",), region)["tp2"]


def check_mktp2(copula, grid=DEFAULT_GRID, region=None):
    """TP2 of the Markov kernel over adjacent cells and dyadic index spans.

    Wide spans matter here: kernels may jump, and jump-driven violations are
    invisible to adjacent quadruples alone.  Rectangles with
    K(u2,[0,v1]) ~ 0 are skipped (zero-region reduction).

    The span sweep runs only when :func:`_kernel_tp2_certified` cannot prove
    ``holds`` first; either way the report is the same.
    """
    return property_verdicts(copula, grid, ("mktp2",), region)["mktp2"]


def check_dtp2(copula, grid=DEFAULT_GRID, region=None):
    """TP2 of the density; not applicable when the family has no density."""
    return property_verdicts(copula, grid, ("dtp2",), region)["dtp2"]


# ---------------------------------------------------------------------------
# reusable 1-D and 2-D shape testers
# ---------------------------------------------------------------------------


def _midpoint_scan(f, points, orient, tol_eq, tol_strict):
    xs = np.asarray(points, dtype=float)
    if xs.ndim != 1 or len(xs) < 3:
        raise ValidationError("need a sorted sample of at least 3 points")
    if np.any(np.diff(xs) <= 0.0):
        raise ValidationError("sample points must be strictly increasing")
    ys = np.asarray(f(xs), dtype=float)
    bad = ~(ys > 0.0)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DomainError(f"function must be positive on the sample; f({xs[k]:.6g}) = {ys[k]:.6g}")
    logs = np.log(ys)
    x0, x1, x2 = xs[:-2], xs[1:-1], xs[2:]
    l0, l1, l2 = logs[:-2], logs[1:-1], logs[2:]
    chord = l0 + (l2 - l0) * (x1 - x0) / (x2 - x0)
    defect = orient * (l1 - chord)
    k = int(np.argmax(defect))
    witness = Witness(
        points=(float(x0[k]), float(x1[k]), float(x2[k])),
        values=(float(ys[k]), float(ys[k + 1]), float(ys[k + 2])),
        defect=float(defect[k]),
        kind="triple",
    )
    cert = {
        "method": "midpoint-chord",
        "n_points": int(len(xs)),
        "tol_eq": tol_eq,
        "tol_strict": tol_strict,
    }
    band_note = "defect inside the tolerance band"
    return _verdict(float(defect[k]), witness, cert, tol_eq, tol_strict, band_note)


def log_convexity_test(f, points, tol_eq=1e-12, tol_strict=1e-9):
    """Midpoint test of convexity of log f on consecutive triples of the sample."""
    return _midpoint_scan(f, points, +1.0, tol_eq, tol_strict)


def log_concavity_test(f, points, tol_eq=1e-12, tol_strict=1e-9):
    """Mirror of :func:`log_convexity_test` with the reversed inequality."""
    return _midpoint_scan(f, points, -1.0, tol_eq, tol_strict)


def two_increasing_test(g, u_axis, v_axis, grid=DEFAULT_GRID, mask=None):
    """Adjacent-quadruple check that g has non-negative rectangle increments.

    ``mask``, when given, marks grid nodes that belong to the test region;
    only quadruples with all four corners inside count.  A non-finite value
    at a node inside the region makes the result inconclusive.
    """
    us = np.asarray(u_axis, dtype=float)
    vs = np.asarray(v_axis, dtype=float)
    vals = _grid_eval(g, us, vs)
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        vals = np.where(m, vals, 0.0)  # excluded nodes may hold -inf/nan
    cert = {"method": "two-increasing", "grid": grid.describe()}
    note = _non_finite_note("g", vals, us, vs)
    if note:
        return Verdict(Status.INCONCLUSIVE, None, cert, note)
    inc = vals[1:, 1:] + vals[:-1, :-1] - vals[:-1, 1:] - vals[1:, :-1]
    defect = -inc
    if mask is not None:
        ok = m[1:, 1:] & m[:-1, :-1] & m[:-1, 1:] & m[1:, :-1]
        defect = np.where(ok, defect, -np.inf)
    i, j = np.unravel_index(np.argmax(defect), defect.shape)
    witness = _rectangle_witness(vals, us, vs, i, j, 1, 1, defect[i, j])
    return _verdict(float(defect[i, j]), witness, cert, grid.tol_eq, grid.tol_strict)


# ---------------------------------------------------------------------------
# coarse-to-fine falsification
# ---------------------------------------------------------------------------


def _window_axes(witness, n, pad_factor=2.0, min_pad=0.02, floor=1e-6):
    """Axes of ``n`` points on the witness's extent padded by ``pad_factor`` times
    its width (at least ``min_pad``) on each side, clipped to ``[floor, 1 - floor]``."""
    u_lo, u_hi, v_lo, v_hi = witness.rectangle().as_tuple()
    du = max((u_hi - u_lo) * pad_factor, min_pad)
    dv = max((v_hi - v_lo) * pad_factor, min_pad)
    us = np.linspace(max(u_lo - du, floor), min(u_hi + du, 1.0 - floor), n)
    vs = np.linspace(max(v_lo - dv, floor), min(v_hi + dv, 1.0 - floor), n)
    return us, vs


def counterexample_search(copula, prop, grid=DEFAULT_GRID, stages=(64, 256, 1024)):
    """Coarse-to-fine deterministic search for a property violation.

    Scans the full domain at the first stage resolution, then repeatedly
    zooms on the worst defect seen so far.  Returns the most violating
    witness found, or a budget-qualified holds verdict.
    """
    if prop not in PROPERTIES:
        raise ValidationError(f"unknown property {prop!r}")
    if prop == "dtp2" and copula.density is None:
        return Verdict(
            Status.NOT_APPLICABLE,
            None,
            {"method": "search:dtp2"},
            note=f"{copula.label} exposes no density",
        )
    cert = {
        "method": f"search:{prop}",
        "stages": list(stages),
        "grid": grid.describe(),
    }
    us = vs = grid.axis(stages[0])
    best_defect, best_witness, note = _scan(copula, prop, us, vs, grid, {})
    for n in stages[1:]:
        # with no rectangle kept (every K21 at most tol_eq) there is nothing to zoom on
        if note or best_witness is None:
            break
        us, vs = _window_axes(best_witness, n)
        d, w, note = _scan(copula, prop, us, vs, grid, {})
        if not note and d > best_defect:
            best_defect, best_witness = d, w
    if note:
        return Verdict(Status.INCONCLUSIVE, None, cert, note)
    return _verdict(
        best_defect,
        best_witness,
        cert,
        grid.tol_eq,
        grid.tol_strict,
        "defect inside the tolerance band",
        "no violation within the search budget",
    )


# ---------------------------------------------------------------------------
# dispatch and witness re-evaluation
# ---------------------------------------------------------------------------


def rectangle_defect(copula, prop, rect):
    """Re-evaluate a property defect on one rectangle, from the copula alone.

    Used to confirm witnesses independently of the scan that produced them.
    Pointwise (pqd) uses the rectangle's lower-left corner; per-line checks
    (ltd, si) use [u1, u2] at v = v1.  Returns ``(defect, values)`` with the
    convention that positive defect means violation.
    """
    u1, u2, v1, v2 = rect.as_tuple()
    if prop == "pqd":
        c = float(copula.cdf(u1, v1))
        return u1 * v1 - c, (c, u1 * v1)
    if prop == "ltd":
        r1 = float(copula.cdf(u1, v1)) / u1
        r2 = float(copula.cdf(u2, v1)) / u2
        return r2 - r1, (r1, r2)
    if prop == "si":
        k1 = float(copula.kernel(u1, v1))
        k2 = float(copula.kernel(u2, v1))
        return k2 - k1, (k1, k2)
    if prop in ("tp2", "mktp2", "dtp2"):
        fn = getattr(copula, _TABLE[prop].quantity)
        if fn is None:
            raise DomainError(f"{copula.label} exposes no density")
        f11, f12, f21, f22 = values = corners(fn, rect)
        return f12 * f21 - f11 * f22, values
    raise ValidationError(f"unknown property {prop!r}")
