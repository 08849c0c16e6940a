"""Sampling from a copula by conditional inversion of its Markov kernel.

Each draw takes u uniform and solves K(u, [0, v]) = w for a second uniform w
by monotone bisection.  Because v -> K(u, [0, v]) is non-decreasing and
right-continuous, the bisection limit is the generalized inverse: atoms of
the conditional law (kernels with jumps, e.g. Marshall-Olkin) receive their
mass exactly, and flat stretches resolve to their left endpoint.  The kernel
runs in its per-axis form (:class:`~mktp2.core.Form`): the draws go 2^14 at
a time, each chunk's u is prepped once, and each of the 34 bisection steps
preps only the chunk's midpoints in v.  So the working set stays near 2 MB
whatever n is; the (n, 2) result is the only array that grows with it.

The generator is Philox (counter-based, 64-bit, stream-stable across
platforms), so a (seed, copula, n) triple reproduces a batch bit for bit;
drawing it in chunks gives the numbers of one whole-batch draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _CHUNK, as_form
from .errors import ValidationError
from .grids import bisect_unit

__all__ = [
    "MAX_SAMPLES",
    "SampleBatch",
    "sample",
    "write_csv",
    "write_grid_csv",
]

# every bracket of [0, 1] halves exactly in lockstep, so all reach this width
# after the same 34 steps
_BISECT_TOL = 1e-10

# only the (n, 2) result grows with n, by 16 bytes a sample: a million
# samples peak near 53 MB of RSS (31 MB after import; 71 MB for a Gaussian,
# which loads SciPy), so the bound keeps a batch under 200 MB
MAX_SAMPLES = 10_000_000

# Philox takes a 128-bit key
_SEED_BOUND = 2**128

# values formatted per '%' operation by the CSV writer: one block's text and
# tuple of floats stay well under 1 MB, where all rows of a large batch at
# once would hold them for every value
_BLOCK_VALUES = 8192


@dataclass(frozen=True)
class SampleBatch:
    points: np.ndarray  # shape (n, 2), columns u, v
    seed: int
    n: int
    label: str

    def __post_init__(self):
        if self.points.shape != (self.n, 2):
            raise ValidationError(f"batch shape {self.points.shape} does not match n={self.n}")


def sample(copula, n, seed):
    """Draw n points from the copula measure; identical inputs give identical batches."""
    n = int(n)
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if n > MAX_SAMPLES:
        raise ValidationError(f"sample allows at most {MAX_SAMPLES} points, got {n}")
    seed = int(seed)
    if not 0 <= seed < _SEED_BOUND:
        raise ValidationError(f"need 0 <= seed < 2**128, got {seed}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    kernel = as_form(copula.kernel)
    points = np.empty((n, 2))
    for start in range(0, n, _CHUNK):
        u, w = rng.random((min(_CHUNK, n - start), 2)).T
        pu = kernel.prep_u(u)
        below = lambda mid: np.asarray(kernel.combine(pu, kernel.prep_v(mid)), dtype=float) >= w
        lo, half = bisect_unit(below, u.shape, _BISECT_TOL)
        points[start : start + u.size, 0] = u
        points[start : start + u.size, 1] = lo + 2.0 * half
    return SampleBatch(points=points, seed=seed, n=n, label=copula.label)


def _write_blocks(path, header, values, template):
    """Write ``header``, then the rows of the 2-D float array ``values`` through ``template``.

    ``template(start, stop)`` is the text of rows ``start:stop`` with one
    ``%.17g`` per value, in row-major order.  Each block of rows is formatted
    by one ``%`` operation; ``"%.17g" % x`` gives the bytes of
    ``f"{x:.17g}"`` (17 significant digits, ``1`` for 1.0, the same exponent
    forms, ``inf`` and ``nan``).  Lines end in LF on every platform.
    """
    n_rows, per_row = values.shape
    step = _BLOCK_VALUES // per_row  # rows are at most MAX_GRID = 2048 values wide
    with open(path, "w", newline="\n") as fh:
        fh.write(header)
        for start in range(0, n_rows, step):
            stop = min(start + step, n_rows)
            fh.write(template(start, stop) % tuple(values[start:stop].ravel().tolist()))


def write_csv(batch, path):
    """CSV export: header u,v then one pair per line, 17 significant digits, LF endings."""
    _write_blocks(path, "u,v\n", batch.points, lambda start, stop: "%.17g,%.17g\n" * (stop - start))


def write_grid_csv(us, vs, values, path):
    """CSV export of ``values[i, j]`` at (us[i], vs[j]): header u,v,value, then u-major lines.

    Each u and v is formatted once: the text of grid row i is u_i joined
    between the per-v pieces, so no meshgrid of u and v is built.
    """
    u_text = ["%.17g" % u for u in us.tolist()]
    row = [""] + [",%.17g,%%.17g\n" % v for v in vs.tolist()]
    _write_blocks(
        path, "u,v,value\n", values, lambda start, stop: "".join(t.join(row) for t in u_text[start:stop])
    )
