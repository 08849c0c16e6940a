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

import mmap
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import as_form
from .errors import DomainError, ValidationError
from .grids import DEFAULT_GRID, Rectangle

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
    "counterexample_search",
    "property_verdicts",
    "rectangle_defect",
    "rectangle_witness",
    "confirming_witnesses",
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
    (x0, x1, x2) for midpoint tests and ``ratio-pair`` (t1, t2) for the
    extreme-value monotone-ratio test.  Only the first three have a :meth:`rectangle` form.  ``defect`` is oriented
    so that positive means violation.  A ``triple`` comes only from
    :func:`log_convexity_test` and never reaches a report: a classifier maps
    it to a rectangle, or reads inconclusive with no witness.
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


def _require_known(props):
    """Raise a :class:`ValidationError` naming the first of ``props`` not in :data:`PROPERTIES`."""
    for prop in props:
        if prop not in PROPERTIES:
            raise ValidationError(f"unknown property {prop!r}; expected one of {PROPERTIES}")


_GRID_BAND_NOTE = "defect inside the tolerance band (tol_eq, tol_strict]"


def _verdict(
    defect, witness, certificate, tol_eq, tol_strict, band_note=_GRID_BAND_NOTE, holds_note="", note=""
):
    """The :class:`Verdict` of :func:`_band`: ``fails`` keeps the witness, the band
    keeps it with ``band_note``, and ``holds`` drops it and carries ``holds_note``.
    A scan's ``note`` (a non-finite grid value, with ``defect`` None, or a NaN
    defect) makes any other verdict inconclusive, with no witness."""
    status = Status.INCONCLUSIVE if defect is None else _band(defect, tol_eq, tol_strict)
    if status is Status.FAILS:
        return Verdict(status, witness, certificate)
    if note:
        return Verdict(Status.INCONCLUSIVE, None, certificate, note)
    if status is Status.HOLDS:
        return Verdict(status, None, certificate, holds_note)
    return Verdict(status, witness, certificate, band_note)


# points per row block of the grid layer: 256 KB of float64, so an
# evaluation's temporaries and a scan's defects for a block stay cache-sized
# at any grid; the cdf and the density are scanned block by block and never
# held whole, so a scan's memory does not grow with the grid
BLOCK_POINTS = 32768
# side of the square tiles whose bounds let the MK-TP2 span sweep skip cells.
# Measured against sweeping every cell: at 1024^2, tiles of 64 prune far less
# (FGM theta < 0 takes 0.72 of the full sweep's time, against 0.05 with 32),
# and at 256^2 tiles of 16 cost more in bounds than they save (evc-log 1.7
# times the full sweep, against 1.06 with 32)
TILE = 32
# tiles per chunk of the span sweep's bound pass: 32 KB of float64 per
# array, so the pass adds little to the sweep's block buffers; every span
# pair of a 256^2 grid fits one chunk, whose bounds the sweep then keeps
BOUND_CHUNK = 4096


def _row_blocks(n_rows, row_len):
    """``(start, stop)`` row ranges, in order, of blocks of about :data:`BLOCK_POINTS` points."""
    step = max(1, BLOCK_POINTS // max(1, row_len))
    return [(r, min(r + step, n_rows)) for r in range(0, n_rows, step)]


def _prep_slice(prep, index):
    """``index`` taken of a prep: an array, or each array of a tuple."""
    return prep[index] if isinstance(prep, np.ndarray) else tuple(p[index] for p in prep)


def _row_stream(fn, us, vs, whole=None):
    """Yield ``(start, fresh, block)``: ``fn`` on the grid ``us`` x ``vs``, one row block
    of :func:`_row_blocks` at a time, as grid rows ``start`` onwards.  Row 0
    repeats the previous block's last row when ``fresh`` is 1, so every pair
    of adjacent rows lies in one block.  ``block`` is a view of a buffer the
    next block overwrites, or of ``whole``, which then holds the full grid.

    ``fn`` runs in its per-axis form (:func:`~mktp2.core.as_form`): the u column
    and the v row are prepped once and each block combines its u rows with the
    v row, elementwise, so no meshgrid is built, every value is bit for bit
    that of ``fn`` on the full meshgrid and an error names the same point.

    A form declared ``symmetric`` on a square grid (``us`` equal to ``vs``)
    is mirrored: each block combines only its columns from its own first row
    on, and takes the columns left of it, by transposition, from the values
    earlier blocks computed.  That halves the evaluations at 1024^2 (and an
    error may name the mirror image of the point).  Those values come from
    ``whole``, or else from block m's piece ``C[:b0, b0:b1]`` (rows ``b0:b1``),
    a :func:`_grid_buffer` of its own: each earlier block writes its rows
    into every later piece, and a piece is dropped, and unmapped, once its
    block has copied it in.  So the values held are those a later block
    still reads, at most about n^2 / 4 (2 MB at 1024^2).
    """
    form = as_form(fn)
    us, vs = np.asarray(us, dtype=float), np.asarray(vs, dtype=float)
    pu = form.prep_u(us[:, None])
    pv = form.prep_v(vs[None, :])
    blocks = _row_blocks(len(us), len(vs))
    mirror = form.symmetric and len(blocks) > 1 and np.array_equal(us.view(np.int64), vs.view(np.int64))
    pieces = [_grid_buffer(b0, b1 - b0) for b0, b1 in blocks[1:]] if mirror and whole is None else None
    buf, last = None, 0
    for k, (r0, r1) in enumerate(blocks):
        c0 = r0 if mirror else 0
        values = form.combine(_prep_slice(pu, np.s_[r0:r1]), _prep_slice(pv, np.s_[:, c0:]) if c0 else pv)
        fresh = 1 if r0 else 0
        if whole is not None:
            whole[r0:r1, c0:] = values
            if mirror:
                whole[r0:r1, :c0] = whole[:c0, r0:r1].T
            yield r0 - fresh, fresh, whole[r0 - fresh : r1]
            continue
        if buf is None:
            buf = np.empty((r1 - r0 + 1, len(vs)))
        buf[0] = buf[last]
        last = r1 - r0
        buf[1 : 1 + last, c0:] = values
        if pieces is not None:
            if c0:
                buf[1 : 1 + last, :c0] = pieces.pop(0).T
            for m, (b0, b1) in enumerate(blocks[k + 1 :]):
                pieces[m][r0:r1] = values[:, b0 - r0 : b1 - r0]
        yield r0 - fresh, fresh, buf[1 - fresh : 1 + last]


def _grid_buffer(n_u, n_v):
    """A float ``(n_u, n_v)`` array in a private anonymous memory map of its own.

    A whole grid (8 MB at 1024^2), or a piece a mirrored :func:`_row_stream`
    keeps for a later block, is a large array held across many small
    allocations.  From the malloc heap it would be reused in place by the
    next one unless a long-lived object had landed in its space, in which
    case the heap grows by another grid; which of the two happens varies
    from one process to the next.  Its own map is returned to the system
    when the array is dropped, so peak memory does not depend on the heap's
    layout.  A map of at least 2 MiB asks for huge pages where the platform
    has them, as NumPy does for its own large arrays, so a fresh grid costs
    a few page faults rather than one per 4 KB.  Smaller maps do not: the
    system merges adjacent maps with the same advice, and the pieces would
    then fault in 2 MB at a time.
    """
    if not hasattr(mmap, "MAP_PRIVATE"):  # no private anonymous maps (Windows)
        return np.empty((n_u, n_v))
    size = n_u * n_v * 8
    buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    if size >= 1 << 21 and hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=float).reshape(n_u, n_v)


def _grid_eval(fn, us, vs):
    """``fn`` on the grid ``us`` x ``vs`` as a float ``(len(us), len(vs))`` array, filled
    block by block by :func:`_row_stream`."""
    out = _grid_buffer(len(us), len(vs))
    for _ in _row_stream(fn, us, vs, out):
        pass
    return out


def _non_finite_note(name, values, us, vs):
    """A note naming the first non-finite grid value, or "" when every value is finite."""
    bad = ~np.isfinite(values)
    if not bad.any():
        return ""
    i, j = np.argwhere(bad)[0]
    return f"non-finite {name} value at (u, v) = ({us[i]:.6g}, {vs[j]:.6g})"


# ---------------------------------------------------------------------------
# block scans: each returns the defects of one row block and their witnesses
# ---------------------------------------------------------------------------


class _Max:
    """The first strict maximum of a scan's defects in scan order, among those that
    are not NaN (both products of a cross defect overflow), with its witness
    (None while no defect is above -inf), and a note naming the first NaN.

    Scan order is that of ``rank``, then that of the blocks :meth:`add`
    merges under one rank: a block's maximum wins when it is strictly larger
    than the kept one, or equal to it under a smaller rank.  So the result
    depends neither on the blocks nor on the order in which ranks come.
    """

    __slots__ = ("defect", "witness", "rank", "nan_note", "nan_rank")

    def __init__(self):
        self.defect, self.witness, self.rank = -np.inf, None, np.inf
        self.nan_note, self.nan_rank = "", np.inf

    def add(self, defect, witness_at, rank=0):
        """Merge one block's ``defect`` array, read in row-major order;
        ``witness_at(m, d)`` is the witness of its flat index ``m`` with defect ``d``."""
        if defect.size == 0:
            return
        m = int(defect.argmax())
        d = float(defect.flat[m])
        if d != d:
            # argmax stops at the first NaN; the block's maximum may lie past it
            if rank < self.nan_rank:
                w = witness_at(m, d)
                self.nan_note = f"NaN defect at {w.kind} ({', '.join(f'{p:.6g}' for p in w.points)})"
                self.nan_rank = rank
            np.copyto(defect, -np.inf, where=np.isnan(defect))
            m = int(defect.argmax())
            d = float(defect.flat[m])
        if d > self.defect or (d == self.defect > -np.inf and rank < self.rank):
            self.defect, self.witness, self.rank = d, witness_at(m, d), rank

    def result(self):
        return self.defect, self.witness, self.nan_note


def _scan_pqd(cdf, fresh, us, vs):
    cdf, us = cdf[fresh:], us[fresh:]
    defect = np.outer(us, vs) - cdf

    def witness_at(m, d):
        i, j = divmod(m, len(vs))
        values = (float(cdf[i, j]), float(us[i] * vs[j]))
        return Witness((float(us[i]), float(vs[j])), values, d, "point")

    return defect, witness_at


def _scan_line_monotone(values, fresh, us, vs):
    """Forward-difference violations of u -> values non-increasing per v-line."""
    defect = values[1:] - values[:-1]

    def witness_at(m, d):
        i, j = divmod(m, len(vs))
        points = (float(us[i]), float(us[i + 1]), float(vs[j]))
        return Witness(points, (float(values[i, j]), float(values[i + 1, j])), d, "line")

    return defect, witness_at


def _scan_ltd(cdf, fresh, us, vs):
    return _scan_line_monotone(cdf / us[:, None], fresh, us, vs)


def _rectangle_witness(values, us, vs, i, j, su, sv, defect):
    """Witness of the grid rectangle [us[i], us[i+su]] x [vs[j], vs[j+sv]] with
    its corner values (f11, f12, f21, f22)."""
    points = (float(us[i]), float(us[i + su]), float(vs[j]), float(vs[j + sv]))
    corner_values = (values[i, j], values[i, j + sv], values[i + su, j], values[i + su, j + sv])
    return Witness(points, tuple(float(x) for x in corner_values), float(defect), "rectangle")


def _adjacent_cross_defect(values, fresh, us, vs):
    """Adjacent-cell violations of f11*f22 - f12*f21 >= 0."""
    defect = values[:-1, 1:] * values[1:, :-1] - values[:-1, :-1] * values[1:, 1:]

    def witness_at(m, d):
        return _rectangle_witness(values, us, vs, *divmod(m, len(vs) - 1), 1, 1, d)

    return defect, witness_at


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


def _live_columns(bound, best, strict):
    """``(first, last)``: per tile row, the first and last tile column whose bound is
    above ``best``, or with ``strict`` false not below it (``first > last`` when
    there is none)."""
    live = bound > best if strict else bound >= best
    cols = np.arange(bound.shape[1])
    first = np.where(live, cols, bound.shape[1]).min(axis=1)
    last = np.where(live, cols, -1).max(axis=1)
    return first.tolist(), last.tolist()


@np.errstate(over="ignore", invalid="ignore")
def _spanned_cross_defect(values, us, vs, grid):
    """``(defect, witness, nan_note)`` of the worst violation over rectangles with
    dyadic index spans.

    Rectangles whose lower-right value K(u2, v1) is not above ``grid.tol_eq``
    are skipped: those lie in the kernel's zero region where the TP2
    inequality holds trivially.  That zero-region mask is built for each
    evaluated block, into a block-sized buffer, and only when the minimum
    of a tile its K21 values lie in is not above ``grid.tol_eq``.  The
    result is the first strict maximum in span-pair-then-row-major order:
    the span pairs ``(su, sv)`` in the order of :func:`_dyadic_spans`, ``su``
    outer, and within a pair its rectangles row by row.

    The sweep is an exact branch-and-bound over the tiles of
    :func:`_tile_bounds`.  When every grid value is finite and >= 0, rounding
    is monotone (``x <= y`` gives ``fl(x) <= fl(y)``), so ``fl(K12*K21) <=
    fl(A*B)``, ``fl(K11*K22) >= fl(C*D)`` and every kept rectangle's defect is
    at most its tile's U, bit for bit; on any other grid every U is +inf.
    The span pairs are taken in decreasing order of their largest U, and the
    sweep stops at the first pair whose largest U is below ``best``, the
    largest defect found so far.  One :class:`_Max`, ranked by the pairs'
    order above, keeps the first strict maximum among the defects that are
    not NaN (both products overflow), whatever the row blocks and whatever
    the order in which the pairs are visited: a defect equal to ``best``
    replaces it only from an earlier span pair, never from a later pair or
    a later cell of the pair that holds it.  So while ``best`` is finite a
    pair after that one is skipped when its largest U equals ``best``, and
    from that pair on a tile is live only when its U is above ``best``;
    before it, a tile is live when its U is not below ``best``.  Within a
    pair, each row block of :func:`_row_blocks` is evaluated, in
    block-sized buffers allocated once per call, over the columns from its
    first to its last live tile, and is skipped when it has none.  So every
    rectangle whose defect could replace the kept one is evaluated, and the
    defect, the witness and the sign of a zero defect are those of sweeping
    every rectangle in that order.  ``nan_note`` names the first NaN defect
    in that order: a NaN defect's tile bound is +inf, above every finite
    ``best``, and at ``best = inf`` no tie is skipped, so no NaN rectangle
    is ever skipped.

    The bounds of all span pairs are computed first, before the buffers, in
    chunks of at most :data:`BOUND_CHUNK` tiles.  A grid whose bounds fit
    one chunk keeps them; on a larger grid a pair's bounds are
    computed again when the sweep first needs them (when its smallest U is
    not above ``best``), so the sweep holds the bounds of one pair at a time.

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
    size = min((n_u - 1) * (n_v - 1), max(BLOCK_POINTS, n_v))
    defect_buf = np.empty(size)
    product_buf = np.empty(size)
    skip_buf = np.empty(size, dtype=bool)
    # tile minima read 0 unless every grid value is finite and >= 0, so where
    # every minimum is above tol_eq no K21 is skipped
    gated = lo.min() <= grid.tol_eq
    best = -np.inf
    found = _Max()
    for k in sorted(range(len(tops)), key=lambda k: -tops[k]):
        if tops[k] < best:
            break
        if tops[k] == best < np.inf and k > found.rank:
            continue
        iu, iv = divmod(k, len(spans_v))
        su, sv = spans_u[iu], spans_v[iv]
        width = n_v - sv
        bound = ranged = None
        for r0, r1 in _row_blocks(n_u - su, width):
            c0, c1 = 0, width
            if floors[k] <= best:
                if bound is None and bounds is not None:
                    bound = bounds[iu, :, iv]
                elif bound is None:
                    bound = _tile_bounds(hi, lo, values.shape, [su], [sv])[0, :, 0]
                strict = k >= found.rank and best < np.inf
                if ranged != (best, strict):
                    first, last = _live_columns(bound, best, strict)
                    ranged = (best, strict)
                t0, t1 = r0 // TILE, (r1 - 1) // TILE + 1
                t_first, t_last = min(first[t0:t1]), max(last[t0:t1])
                if t_first > t_last:
                    continue
                c0, c1 = t_first * TILE, min(t_last * TILE + TILE, width)
            n_cols = c1 - c0
            cells = (r1 - r0) * n_cols
            defect = defect_buf[:cells].reshape(r1 - r0, n_cols)
            product = product_buf[:cells].reshape(r1 - r0, n_cols)
            skip = skip_buf[:cells].reshape(r1 - r0, n_cols)
            upper, lower = values[r0:r1], values[r0 + su : r1 + su]
            f11, f12 = upper[:, c0:c1], upper[:, c0 + sv : c1 + sv]
            f21, f22 = lower[:, c0:c1], lower[:, c0 + sv : c1 + sv]
            np.multiply(f12, f21, out=defect)
            np.multiply(f11, f22, out=product)
            np.subtract(defect, product, out=defect)
            # skip the K21 values at or below tol_eq, and NaN ones, unless every
            # tile they lie in has its minimum above tol_eq
            k21_tiles = lo[(r0 + su) // TILE : (r1 + su - 1) // TILE + 1, c0 // TILE : (c1 - 1) // TILE + 1]
            if gated and k21_tiles.min() <= grid.tol_eq:
                np.greater(f21, grid.tol_eq, out=skip)
                np.logical_not(skip, out=skip)
                np.copyto(defect, -np.inf, where=skip)
            at = lambda m, d: _rectangle_witness(values, us, vs, r0 + m // n_cols, c0 + m % n_cols, su, sv, d)
            found.add(defect, at, k)
            best = found.defect
    return found.result()


# largest kernel value the certificate accepts: below it no product of two
# values overflows, so no defect of a certified grid is NaN
_CERTIFIED_MAX = 2.0**500


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
      exactly on the float values: its :func:`_adjacent_cross_defect` is
      negative, which proves the strict inequality since round-to-nearest
      is monotone, or zero between the same two factors, which is how Pi
      and M tie;
    * every value is at most 2**500, so no product overflows.

    Then every kept rectangle's exact ratio is at most 1, its rounded
    products keep that order, and its defect is at most 0 <= ``tol_eq``:
    the sweep would read ``holds``.  False means only "not proven" (a
    rounded tie between other factors is not decided here); the sweep then
    decides.  The grid is walked in the row blocks of :func:`_row_blocks`,
    each overlapping the one before by a row, so no full-grid temporary is
    built.
    """
    for r0, r1 in _row_blocks(*values.shape):
        block = values[max(r0 - 1, 0) : r1]
        positive = block > 0.0
        if np.any(positive[:, :-1] > positive[:, 1:]) or np.any(positive[1:] > positive[:-1]):
            return False
        if block.max() > _CERTIFIED_MAX:
            return False
        defect, _ = _adjacent_cross_defect(block, 0, None, None)
        f11, f12, f21, f22 = block[:-1, :-1], block[:-1, 1:], block[1:, :-1], block[1:, 1:]
        same = ((f12 == f11) & (f21 == f22)) | ((f12 == f22) & (f21 == f11))
        # on a staircase a cell's four corners are positive iff its K21 corner is
        if np.any(positive[1:, :-1] & ~((defect < 0.0) | (defect == 0.0) & same)):
            return False
    return True


# ---------------------------------------------------------------------------
# the property table and its one evaluation site
# ---------------------------------------------------------------------------


class _Check(NamedTuple):
    quantity: str  # the Copula callable the scan reads: "cdf", "kernel" or "density"
    scan: Optional[Callable]  # block scan (block, fresh, us, vs) -> (defects, witness_at); None: the sweep
    method: str  # certificate method
    extra: dict = {}  # further certificate entries


_TABLE = {
    "pqd": _Check("cdf", _scan_pqd, "grid:pqd"),
    "ltd": _Check("cdf", _scan_ltd, "grid:ltd"),
    "si": _Check("kernel", _scan_line_monotone, "grid:si"),
    "tp2": _Check("cdf", _adjacent_cross_defect, "grid:tp2:direct"),
    "mktp2": _Check("kernel", None, "grid:mktp2", {"spans": "adjacent+dyadic"}),
    "dtp2": _Check("density", _adjacent_cross_defect, "grid:dtp2"),
}


def _scan_quantity(copula, quantity, props, us, vs, grid, certify):
    """``{prop: (defect, witness, note)}`` of ``props``, which all read ``quantity``.

    Each block of :func:`_row_stream` has its own rows checked for a
    non-finite value, which would win an argmax and compare as no violation,
    and is then scanned by each property but MK-TP2 into its :class:`_Max`.
    From the first non-finite value on nothing is scanned, though the blocks
    are still evaluated (so a later error is raised as before), and every
    property reads ``(None, None, note)``, ``note`` naming that point;
    otherwise ``note`` names the scan's first NaN defect, or is "".  Only
    MK-TP2 holds its grid whole, for the span sweep.  With ``certify`` it
    first tries :func:`_kernel_tp2_certified`, whose proof reads as a zero
    defect, and refines a failing witness on a finer local window.
    """
    whole = _grid_buffer(len(us), len(vs)) if "mktp2" in props else None
    found = {prop: _Max() for prop in props if prop != "mktp2"}
    note = ""
    for start, fresh, block in _row_stream(getattr(copula, quantity), us, vs, whole):
        rows = us[start : start + len(block)]
        note = note or _non_finite_note(quantity, block[fresh:], rows[fresh:], vs)
        if note:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            for prop, best in found.items():
                best.add(*_TABLE[prop].scan(block, fresh, rows, vs))
    if note:
        return {prop: (None, None, note) for prop in props}
    out = {prop: best.result() for prop, best in found.items()}
    if whole is not None and certify and _kernel_tp2_certified(whole):
        out["mktp2"] = (0.0, None, "")
    elif whole is not None:
        defect, witness, nan_note = _spanned_cross_defect(whole, us, vs, grid)
        if certify and defect > grid.tol_strict:
            refined_defect, refined_witness, _ = _refine_rectangle(copula, witness, grid)
            if refined_defect is not None and refined_defect > defect:
                defect, witness = refined_defect, refined_witness
        out["mktp2"] = (defect, witness, nan_note)
    return out


def _scan(copula, props, us, vs, grid, certify=False):
    """``{prop: (defect, witness, note)}`` of :func:`_scan_quantity` on the axes ``us`` x
    ``vs``, once for each quantity ``props`` read, in the order :data:`PROPERTIES`
    first needs it; a quantity the copula does not expose is left out."""
    out = {}
    for quantity in dict.fromkeys(_TABLE[prop].quantity for prop in PROPERTIES if prop in props):
        if getattr(copula, quantity) is not None:
            reading = [prop for prop in PROPERTIES if prop in props and _TABLE[prop].quantity == quantity]
            out.update(_scan_quantity(copula, quantity, reading, us, vs, grid, certify))
    return out


# points per axis of the local window a fails MK-TP2 witness is refined on
_REFINE_POINTS = 64


def _refine_rectangle(copula, witness, grid):
    """Re-scan MK-TP2 on a small window around a violating rectangle at finer resolution."""
    us, vs = _window_axes(witness, _REFINE_POINTS, 1.0, 1e-6, 1e-9)
    return _scan(copula, ("mktp2",), us, vs, grid)["mktp2"]


def property_verdicts(copula, grid=DEFAULT_GRID, props=PROPERTIES):
    """Grid verdicts of ``props`` for one copula, keyed by property.

    Each grid quantity (``cdf``, ``kernel``, ``density``) is evaluated once
    and shared by every property that reads it, in the order
    :data:`PROPERTIES` first needs it.  The cdf and the density are
    evaluated, checked and scanned one row block at a time; only the kernel
    grid is held whole, for the MK-TP2 span sweep, in a private map of its
    own (:func:`_grid_buffer`, 8 MB at 1024²) that tracemalloc does not
    see, and at 1024² tracemalloc reads a peak of 1.3-2.6 MB besides it
    (W, Pi, FGM, Gaussian, Gumbel, Marshall-Olkin).  MK-TP2 first tries
    :func:`_kernel_tp2_certified` and runs the span sweep only when that
    does not prove ``holds``; a ``fails`` MK-TP2 witness is refined on a
    finer local window.  A non-finite grid value, or a NaN defect where the
    scan does not fail, makes a verdict ``inconclusive``; a copula without a
    density makes ``dtp2`` not applicable.
    """
    _require_known(props)
    found = _scan(copula, props, grid.u_axis(), grid.v_axis(), grid, certify=True)
    out = {}
    for prop in PROPERTIES:
        if prop not in props:
            continue
        check = _TABLE[prop]
        cert = {"method": check.method, "grid": grid.describe(), **check.extra}
        if prop not in found:
            note = f"{copula.label} exposes no density (not absolutely continuous)"
            out[prop] = Verdict(Status.NOT_APPLICABLE, None, cert, note=note)
            continue
        defect, witness, note = found[prop]
        out[prop] = _verdict(defect, witness, cert, grid.tol_eq, grid.tol_strict, note=note)
    return out


def check_pqd(copula, grid=DEFAULT_GRID):
    """C(u,v) >= uv on the interior grid."""
    return property_verdicts(copula, grid, ("pqd",))["pqd"]


def check_ltd(copula, grid=DEFAULT_GRID):
    """u -> C(u,v)/u non-increasing for every grid v."""
    return property_verdicts(copula, grid, ("ltd",))["ltd"]


def check_si(copula, grid=DEFAULT_GRID):
    """u -> K(u,[0,v]) non-increasing for every grid v."""
    return property_verdicts(copula, grid, ("si",))["si"]


def check_tp2(copula, grid=DEFAULT_GRID):
    """TP2 of the copula itself: adjacent-cell cross products of the CDF (adjacent
    quadruples generate grid TP2 for these smooth, a.e.-positive surfaces)."""
    return property_verdicts(copula, grid, ("tp2",))["tp2"]


def check_mktp2(copula, grid=DEFAULT_GRID):
    """TP2 of the Markov kernel over adjacent cells and dyadic index spans: kernels
    may jump, and jump-driven violations are invisible to adjacent quadruples
    alone.  Rectangles with K(u2,[0,v1]) ~ 0 are skipped (zero-region reduction)."""
    return property_verdicts(copula, grid, ("mktp2",))["mktp2"]


def check_dtp2(copula, grid=DEFAULT_GRID):
    """TP2 of the density; not applicable when the family has no density."""
    return property_verdicts(copula, grid, ("dtp2",))["dtp2"]


# ---------------------------------------------------------------------------
# reusable 1-D and 2-D shape testers
# ---------------------------------------------------------------------------


def log_convexity_test(f, points, tol_eq=1e-12, tol_strict=1e-9):
    """Midpoint test of convexity of log f on consecutive triples of the sample.

    f is evaluated once.  A value of 0, +inf or NaN has no finite log, so the
    verdict is inconclusive, with a note naming the first such point (psi''
    of Gumbel alpha >= 100 leaves the double range); a negative value,
    checked after those, raises :class:`DomainError`.
    """
    xs = np.asarray(points, dtype=float)
    if xs.ndim != 1 or len(xs) < 3:
        raise ValidationError("need a sorted sample of at least 3 points")
    # an infinite point makes a chord NaN, and a NaN defect would read as holds
    if not np.all(np.isfinite(xs)) or np.any(np.diff(xs) <= 0.0):
        raise ValidationError("sample points must be finite and strictly increasing")
    with np.errstate(over="ignore", divide="ignore"):
        ys = np.asarray(f(xs), dtype=float)
    cert = {"method": "midpoint-chord", "n_points": int(len(xs)), "tol_eq": tol_eq, "tol_strict": tol_strict}
    lost = (ys == 0.0) | (ys == np.inf) | np.isnan(ys)
    if np.any(lost):
        k = int(np.argmax(lost))
        note = f"the scanned function is {ys[k]:.6g} at x={xs[k]:.6g}, where its log is not finite"
        return Verdict(Status.INCONCLUSIVE, None, cert, note)
    if np.any(negative := ys < 0.0):
        k = int(np.argmax(negative))
        raise DomainError(f"function must be positive on the sample; f({xs[k]:.6g}) = {ys[k]:.6g}")
    logs = np.log(ys)
    x0, x1, x2 = xs[:-2], xs[1:-1], xs[2:]
    l0, l1, l2 = logs[:-2], logs[1:-1], logs[2:]
    defect = l1 - (l0 + (l2 - l0) * (x1 - x0) / (x2 - x0))
    k = int(np.argmax(defect))
    points, values = (float(x0[k]), float(x1[k]), float(x2[k])), tuple(float(y) for y in ys[k : k + 3])
    witness = Witness(points, values, float(defect[k]), "triple")
    return _verdict(float(defect[k]), witness, cert, tol_eq, tol_strict, "defect inside the tolerance band")


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

    A ``tp2`` zoom stage is skipped, once its axes are built, when the kept
    defect fails and exceeds twice the stage's largest cell area
    ``max(diff(us)) * max(diff(vs))``, since no cross defect of a CDF can
    beat it there.  With C11, C12, C21, C22 the CDF at a cell's corners
    (u1, v1), (u1, v2), (u2, v1), (u2, v2), 2-increasingness gives
    C22 >= C12 + C21 - C11, and monotone, 1-Lipschitz margins give
    0 <= C12 - C11 <= dv and 0 <= C21 - C11 <= du, so, as C11 >= 0,

        C12 C21 - C11 C22 <= (C12 - C11)(C21 - C11) <= du dv.

    The factor 2 leaves one cell area of margin for the rounding of the
    CDF, at least 9.5e-11 for any window at ``MAX_GRID`` points, whatever
    ``tol_strict`` is.  A skipped stage is never scanned for a non-finite
    CDF value, so where scanning it would have made the search
    ``inconclusive``, the search keeps its ``fails`` witness, which
    re-evaluates through :func:`rectangle_defect`.
    """
    _require_known((prop,))
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
    best_defect, best_witness, note = _scan(copula, (prop,), us, vs, grid)[prop]
    for n in stages[1:]:
        # with no rectangle kept (every K21 at most tol_eq) there is nothing to zoom on
        if best_defect is None or best_witness is None:
            break
        us, vs = _window_axes(best_witness, n)
        if prop == "tp2" and best_defect > max(grid.tol_strict, 2.0 * np.diff(us).max() * np.diff(vs).max()):
            continue
        d, w, stage_note = _scan(copula, (prop,), us, vs, grid)[prop]
        if d is None:
            best_defect, note = None, stage_note
            break
        note = note or stage_note
        if d > best_defect:
            best_defect, best_witness = d, w
    band_note, holds_note = "defect inside the tolerance band", "no violation within the search budget"
    return _verdict(best_defect, best_witness, cert, grid.tol_eq, grid.tol_strict, band_note, holds_note, note)


# ---------------------------------------------------------------------------
# dispatch and witness re-evaluation
# ---------------------------------------------------------------------------


def rectangle_defect(copula, prop, rect):
    """Re-evaluate a property defect on one rectangle, from the copula alone.

    Used to confirm witnesses independently of the grid that produced them.
    The property's quantity is evaluated once, on the rectangle's 2 x 2
    corner grid (u1, u2) x (v1, v2), and read by the property's block scan
    of :data:`_TABLE` (MK-TP2 by :func:`_adjacent_cross_defect`) at its
    first index: so pqd reads the lower-left corner, the per-line checks
    (ltd, si) [u1, u2] at v = v1, and the cross checks the four corners.
    Returns ``(defect, values)``, the defect and the values of that scan's
    witness, with the convention that positive defect means violation.
    """
    _require_known((prop,))
    check = _TABLE[prop]
    fn = getattr(copula, check.quantity)
    if fn is None:
        raise DomainError(f"{copula.label} exposes no density")
    u1, u2, v1, v2 = rect.as_tuple()
    us, vs = np.array([u1, u2]), np.array([v1, v2])
    _, _, block = next(_row_stream(fn, us, vs))
    with np.errstate(over="ignore", invalid="ignore"):
        defect, witness_at = (check.scan or _adjacent_cross_defect)(block, 0, us, vs)
    d = float(defect.flat[0])
    return d, witness_at(0, d).values


def rectangle_witness(copula, prop, rect):
    """The ``rectangle`` witness of ``prop`` on ``rect``, from one :func:`rectangle_defect`,
    so ``check --rect`` reproduces it bit for bit."""
    defect, values = rectangle_defect(copula, prop, rect)
    return Witness(rect.as_tuple(), values, defect, "rectangle")


def confirming_witnesses(copula, props, rects, grid):
    """``(found, defects)``: ``{prop: rectangle_witness}`` of ``props`` on the first of
    ``rects`` where all of them fail by :func:`_band` (None where none does), and the
    smallest defect of each rectangle tried.  The one place a constructed rectangle
    becomes a ``fails`` witness, for the generator- and Pickands-level classifiers."""
    defects = []
    for rect in rects:
        found = {p: rectangle_witness(copula, p, rect) for p in props}
        defects.append(min(w.defect for w in found.values()))
        if _band(defects[-1], grid.tol_eq, grid.tol_strict) is Status.FAILS:
            return found, defects
    return None, defects
