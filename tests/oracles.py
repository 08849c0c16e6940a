"""Reference implementations that tests compare the library against.

No command or classifier runs these; they re-derive a quantity by an
independent route (quadrature of the kernel, finite differences of the CDF,
a telescoping product of the h-map, empirical distributions of a sample,
every rectangle of the MK-TP2 span sweep, every stage of the counterexample
ladder, a whole-batch kernel inversion, a rectangle's defect written out per
property on pointwise calls, Owen's T terms with both branches at every point)
so tests can bound or match the library's answer by it, or test a shape
(log-concavity, 2-increasingness) that no command reads.
"""

from dataclasses import replace

import numpy as np
from scipy import special

from mktp2.archimedean import GeneratorSpec
from mktp2.core import as_form
from mktp2.errors import DomainError, ValidationError
from mktp2.extreme_value import PickandsSpec, h_map
from mktp2.grids import DEFAULT_GRID, bisect
from mktp2.properties import (
    Status,
    Verdict,
    Witness,
    _TABLE,
    _dyadic_spans,
    _grid_eval,
    _midpoint_scan,
    _non_finite_note,
    _rectangle_witness,
    _require_known,
    _scan,
    _verdict,
    _window_axes,
)

# ---------------------------------------------------------------------------
# where the Markov kernel jumps in u
# ---------------------------------------------------------------------------


def zero_level(spec, u):
    """The zero-curve f0(u) = psi(phi(0) - phi(u)); 0 for strict generators."""
    u = np.asarray(u, dtype=float)
    if spec.strict:
        out = np.zeros_like(u)
        return float(out) if out.ndim == 0 else out
    out = np.asarray(spec.psi(spec.phi_at_zero - np.asarray(spec.phi(u), dtype=float)), dtype=float)
    return float(out) if out.ndim == 0 else out


def kernel_u_jumps(spec, params=None):
    """v -> the u-locations where ``u -> K(u,[0,v])`` jumps, or None for a smooth kernel.

    ``spec`` is what ``registry.build`` returns second: a generator, a
    Pickands spec, or the copula itself for the core families; ``params``
    are the parameters it was built with.
    """
    if isinstance(spec, GeneratorSpec):
        return None if spec.strict else (lambda v: (float(zero_level(spec, v)),))
    if isinstance(spec, PickandsSpec):
        ts = spec.declared_jumps
        if not ts:
            return None
        return lambda v: tuple(sorted(float(v) ** (t / (1.0 - t)) for t in ts))
    # a Frechet mixture's M part jumps at u = v, its W part at u = 1 - v
    params = params or {}
    alpha, beta = {"M": (1.0, 0.0), "W": (0.0, 1.0)}.get(
        spec.label, (params.get("alpha", 0.0), params.get("beta", 0.0))
    )
    if alpha == 0.0 and beta == 0.0:
        return None

    def jumps(v):
        out = []
        if alpha > 0.0:
            out.append(float(v))
        if beta > 0.0:
            out.append(float(1.0 - v))
        return tuple(sorted(out))

    return jumps


# ---------------------------------------------------------------------------
# the Markov kernel against its defining properties
# ---------------------------------------------------------------------------


def _simpson(fn, a, b, panels):
    xs, step = np.linspace(a, b, 2 * panels + 1, retstep=True)
    ys = fn(xs)
    return (step / 3.0) * (
        ys[0] + ys[-1] + 4.0 * np.sum(ys[1:-1:2]) + 2.0 * np.sum(ys[2:-2:2])
    )


def _graded_simpson(fn, a, b, panels, levels=30):
    """Composite Simpson on [a, b] with geometric grading toward both ends.

    Kernels can have unbounded u-derivatives at the domain boundary (e.g.
    the Gaussian family); grading restores full quadrature accuracy there
    without raising the panel budget.
    """
    fracs = np.concatenate(
        [0.5 ** np.arange(levels, 0, -1), 1.0 - 0.5 ** np.arange(1, levels + 1), [0.0, 1.0]]
    )
    breaks = a + (b - a) * np.unique(fracs)
    total = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        seg_panels = max(4, int(round(panels * (hi - lo) / (b - a))))
        total += _simpson(fn, lo, hi, seg_panels)
    return total


def disintegration_gap(copula, v, jumps=None, panels=10_000):
    """|integral over u of K(u,[0,v]) - v|, by piecewise composite Simpson.

    The kernel is integrated between its jump locations in u, ``jumps(v)``
    (one smooth piece per segment, endpoints nudged inward), so step-function
    kernels integrate at full quadrature accuracy rather than O(panel width).
    """
    v = float(v)
    cuts = []
    if jumps is not None:
        cuts = [float(x) for x in jumps(v) if 0.0 < x < 1.0]
    edges = [0.0] + sorted(set(cuts)) + [1.0]
    total = 0.0
    nudge = 1e-12
    for a, b in zip(edges[:-1], edges[1:]):
        width = b - a
        if width <= 2 * nudge:
            continue
        seg_panels = max(16, int(round(panels * width)))
        total += _graded_simpson(
            lambda u: np.asarray(copula.kernel(u, v), dtype=float),
            a + nudge,
            b - nudge,
            seg_panels,
        )
    return abs(total - v)


def max_kernel_fd_mismatch(copula, jumps=None, n=101, margin=0.01, h=1e-6, exclusion=1e-3):
    """Worst |kernel - central u-difference of the CDF| on an interior grid.

    Points within ``exclusion`` of a kernel jump in u, ``jumps(v)``, are
    skipped: there the CDF has a kink and the kernel value is a one-sided
    version.
    """
    us = np.linspace(margin, 1.0 - margin, n)
    vs = np.linspace(margin, 1.0 - margin, n)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    ker = np.asarray(copula.kernel(uu, vv), dtype=float)
    fd = (np.asarray(copula.cdf(uu + h, vv), dtype=float)
          - np.asarray(copula.cdf(uu - h, vv), dtype=float)) / (2.0 * h)
    gap = np.abs(ker - fd)
    if jumps is not None:
        for j, v in enumerate(vs):
            for x in jumps(v):
                gap[np.abs(us - x) <= exclusion, j] = 0.0
    return float(np.max(gap))


# ---------------------------------------------------------------------------
# the MK-TP2 span sweep
# ---------------------------------------------------------------------------


def reference_sweep(values, us, vs, grid):
    """The dyadic span sweep with no tiles, buffers or row blocks: one full-grid
    np.where and one argmax per span pair, the pairs in their canonical order.

    On a grid whose defects hold no NaN it gives the defect and witness of
    ``properties._spanned_cross_defect`` bit for bit.
    """
    best = -np.inf
    best_w = None
    for su in _dyadic_spans(len(us)):
        for sv in _dyadic_spans(len(vs)):
            f11 = values[:-su, :-sv]
            f22 = values[su:, sv:]
            f12 = values[:-su, sv:]
            f21 = values[su:, :-sv]
            defect = f12 * f21 - f11 * f22
            defect = np.where(f21 > grid.tol_eq, defect, -np.inf)
            i, j = np.unravel_index(np.argmax(defect), defect.shape)
            d = float(defect[i, j])
            if d > best:
                best = d
                best_w = Witness(
                    points=(float(us[i]), float(us[i + su]), float(vs[j]), float(vs[j + sv])),
                    values=(float(f11[i, j]), float(f12[i, j]), float(f21[i, j]), float(f22[i, j])),
                    defect=d,
                    kind="rectangle",
                )
    return best, best_w


# ---------------------------------------------------------------------------
# the counterexample ladder
# ---------------------------------------------------------------------------


def reference_search(copula, prop, grid=DEFAULT_GRID, stages=(64, 256, 1024)):
    """``properties.counterexample_search`` scanning every stage of the ladder.

    No stage is skipped, whatever its cell area, so where the library skips
    a ``tp2`` stage the two must still give the same verdict.
    """
    _require_known((prop,))
    if prop == "dtp2" and copula.density is None:
        note = f"{copula.label} exposes no density"
        return Verdict(Status.NOT_APPLICABLE, None, {"method": "search:dtp2"}, note=note)
    cert = {"method": f"search:{prop}", "stages": list(stages), "grid": grid.describe()}
    us = vs = grid.axis(stages[0])
    best_defect, best_witness, note = _scan(copula, (prop,), us, vs, grid)[prop]
    for n in stages[1:]:
        if best_defect is None or best_witness is None:
            break
        us, vs = _window_axes(best_witness, n)
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
# the bivariate normal's Owen's T terms
# ---------------------------------------------------------------------------


def reference_term(p, y, s):
    """``normal._term`` with both branches of g evaluated at every point and one
    picked by ``np.where``; its bits are those of the library's term."""
    _, h, rho_x, sign, _, half_q, erf_h, _, _ = p
    c = (rho_x - y) / s
    swap = c > h
    a = np.where(swap, c, h)
    t = special.owens_t(a, np.where(swap, h, c) / a)
    g = np.where(swap, t - 0.5 * special.ndtr(-c) * erf_h, half_q - t)
    return sign * g


# ---------------------------------------------------------------------------
# witness re-evaluation
# ---------------------------------------------------------------------------


def corners(fn, rect):
    """``(f11, f12, f21, f22)``: ``fn`` at (u1,v1), (u1,v2), (u2,v1), (u2,v2) of ``rect``."""
    u1, u2, v1, v2 = rect.as_tuple()
    return tuple(float(fn(u, v)) for u, v in ((u1, v1), (u1, v2), (u2, v1), (u2, v2)))


def reference_rectangle_defect(copula, prop, rect):
    """``properties.rectangle_defect`` written out per property, on pointwise calls.

    Pointwise (pqd) uses the rectangle's lower-left corner; per-line checks
    (ltd, si) use [u1, u2] at v = v1; the cross checks (tp2, mktp2, dtp2)
    use its four corners.
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
    fn = getattr(copula, _TABLE[prop].quantity)
    if fn is None:
        raise DomainError(f"{copula.label} exposes no density")
    f11, f12, f21, f22 = values = corners(fn, rect)
    return f12 * f21 - f11 * f22, values


# ---------------------------------------------------------------------------
# 1-D and 2-D shape testers
# ---------------------------------------------------------------------------


def log_concavity_test(f, points, tol_eq=1e-12, tol_strict=1e-9):
    """Mirror of ``properties.log_convexity_test`` with the reversed inequality."""
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
    defect = -(vals[1:, 1:] + vals[:-1, :-1] - vals[:-1, 1:] - vals[1:, :-1])
    if mask is not None:
        ok = m[1:, 1:] & m[:-1, :-1] & m[:-1, 1:] & m[1:, :-1]
        defect = np.where(ok, defect, -np.inf)
    i, j = np.unravel_index(np.argmax(defect), defect.shape)
    witness = _rectangle_witness(vals, us, vs, i, j, 1, 1, defect[i, j])
    return _verdict(float(defect[i, j]), witness, cert, grid.tol_eq, grid.tol_strict)


# ---------------------------------------------------------------------------
# extreme-value h-map arithmetic
# ---------------------------------------------------------------------------


def cross_ratio_identity_check(a, rect):
    """Telescoping product that must equal 1 for every exponent a and rectangle.

    Regression check for the h/contour arithmetic: with h_ij = h(u_i, v_j),
    u1^{a(h11-h12)} v1^{a(h11-h21)} u2^{a(h22-h21)} v2^{a(h22-h12)} == 1.
    """
    u1, u2, v1, v2 = rect.as_tuple()
    h11, h12, h21, h22 = corners(h_map, rect)
    log_product = a * (
        (h11 - h12) * np.log(u1)
        + (h11 - h21) * np.log(v1)
        + (h22 - h21) * np.log(u2)
        + (h22 - h12) * np.log(v2)
    )
    return float(np.exp(log_product))


# ---------------------------------------------------------------------------
# samples against the copula they were drawn from
# ---------------------------------------------------------------------------


def empirical_cdf_distance(batch, copula, grid=DEFAULT_GRID):
    """Sup distance between the batch's empirical CDF and the copula CDF on a grid."""
    if batch.n < 1:
        raise ValidationError("empty batch")
    us = grid.u_axis()
    vs = grid.v_axis()
    edges_u = np.concatenate([[0.0], us, [1.0 + 1e-12]])
    edges_v = np.concatenate([[0.0], vs, [1.0 + 1e-12]])
    hist, _, _ = np.histogram2d(batch.points[:, 0], batch.points[:, 1], bins=[edges_u, edges_v])
    # cumulative counts at (us[i], vs[j]): points with u <= us[i], v <= vs[j]
    cum = hist.cumsum(axis=0).cumsum(axis=1)[: len(us), : len(vs)]
    emp = cum / batch.n
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    model = np.asarray(copula.cdf(uu, vv), dtype=float)
    return float(np.max(np.abs(emp - model)))


def marginal_ks(batch):
    """One-sample Kolmogorov sup distances of the two coordinates against uniform."""
    out = []
    for col in range(2):
        x = np.sort(batch.points[:, col])
        k = np.arange(1, batch.n + 1)
        d_plus = np.max(k / batch.n - x)
        d_minus = np.max(x - (k - 1) / batch.n)
        out.append(float(max(d_plus, d_minus)))
    return tuple(out)


def whole_batch_sample(copula, n, seed):
    """The points of ``sampler.sample(copula, n, seed)`` by one whole-batch inversion.

    All n draws come from one Philox call, u is prepped once for the batch,
    and :func:`mktp2.grids.bisect` runs n brackets of [0, 1] to width 1e-10
    (34 steps); the result is the (n, 2) array of u and each bracket's top.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    draws = rng.random((n, 2))
    u, w = draws[:, 0], draws[:, 1]
    kernel = as_form(copula.kernel)
    pu = kernel.prep_u(u)
    take = lambda mid: np.asarray(kernel.combine(pu, kernel.prep_v(mid)), dtype=float) >= w
    _, hi = bisect(take, np.zeros(n), np.ones(n), 1e-10, 200)
    return np.column_stack([u, hi])


def counting_form(fn):
    """``(form, points)``: ``fn`` as a :class:`~mktp2.core.Form` with the same preps and
    bits, and ``points()``, the number of points its combine has evaluated so far."""
    form = as_form(fn)
    count = [0]

    def combine(pu, pv):
        out = form.combine(pu, pv)
        count[0] += np.size(out)
        return out

    return replace(form, combine=combine), lambda: count[0]


def bisected_psi(phi, cap):
    """The psi of a phi-only ``archimedean.make_generator`` by :func:`mktp2.grids.bisect`.

    psi(x) solves phi(t) = x on [0, 1], bisected to width 1e-12 (40 steps),
    and is the bracket's midpoint; it is 1 at x <= 0 and 0 at x >= ``cap``,
    the generator's phi(0).
    """

    def psi(x):
        x = np.asarray(x, dtype=float)
        take = lambda s: -np.asarray(phi(s), dtype=float) >= -x
        lo, hi = bisect(take, np.zeros_like(x), np.ones_like(x), 1e-12, 200)
        out = np.where(x >= cap, 0.0, 0.5 * (lo + hi))
        return np.where(x <= 0.0, 1.0, out)

    return psi
