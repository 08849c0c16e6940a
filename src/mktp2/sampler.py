"""Sampling from a copula by conditional inversion of its Markov kernel.

Each draw takes u uniform and solves K(u, [0, v]) = w for a second uniform w:
v is the top of the 2^-34 cell [L, L + 2^-34] (L a multiple of 2^-34) where
the predicate ``K(u, v) >= w`` turns from false at L to true at L + 2^-34.
Because v -> K(u, [0, v]) is non-decreasing and right-continuous, that is the
generalized inverse to within 2^-34: atoms of the conditional law (kernels
with jumps, e.g. Marshall-Olkin) receive their mass exactly, and flat
stretches resolve to their left end.

Each draw's cell comes from a guess of v, where there is one, confirmed by
the kernel.  A copula that declares a conditional quantile q(u, w)
(:attr:`~mktp2.core.Copula.quantile`, the conditional distribution method)
guesses q; one that declares a density but no quantile has a kernel
continuous in v, and guesses the iterate of ``_SECANT_STEPS`` lockstep secant
steps on K(u, .) - w (ten kernel evaluations a draw); any other copula
(kernels that may jump in v, such as arch-w, evc-jump or a generator given
by phi alone) makes no guess.  Each guess is rounded down to its cell and
the kernel is evaluated at the cell's two ends: the cell is taken where the
predicate reads false at L (or L = 0) and true at L + 2^-34 (or
L + 2^-34 = 1).  Every other draw, and every draw of a copula with no
guess, goes into a queue that bisects [0, 1] 34 times in lockstep
(``_bisect``) for 2^14 draws at a time, and for the rest at the end.
Where the float predicate is monotone in v, one cell has false at its
bottom and true at its top, and the bisection ends in it; so a
guess, even a wrong one, changes no bit of the batch, only the number of
kernel evaluations: 2 per confirmed draw (and 10 more for a secant guess)
against 34.

The kernel runs in its per-axis form (:class:`~mktp2.core.Form`): the draws
go 2^14 at a time, each chunk's u is prepped once before any guess (so a
u-prep error comes first), the secant preps only its iterates in v, and the
bisection preps the queued draws' u again and, at each of its steps, their
midpoints in v.  A copula with no guess queues each whole chunk, which the
queue bisects at once, so its u is prepped only there.  The working set
stays near 2 MB whatever n is; the (n, 2) result is the only array that
grows with it.

The generator is Philox (counter-based, 64-bit, stream-stable across
platforms), so a (seed, copula, n) triple reproduces a batch bit for bit;
drawing it in chunks gives the numbers of one whole-batch draw.

CSV export (:func:`write_csv`, and :func:`write_grid_csv` for ``grid-export``)
writes every value as the bytes of ``f"{x:.17g}"`` through one block writer.
A value in [1e-4, 10), which is every sampled coordinate and most cdf,
kernel and density values, gets its 17 significant digits exactly from
64-bit integer arithmetic in NumPy, in place of the big-integer path that
CPython's correctly rounded float-to-decimal conversion takes for 17 digits.
Every other value goes through one batched ``%`` per block.  Each block is
laid out as bytes in buffers allocated once per file and written with one
``np.compress`` and one binary write.  A grid's u and v axes are laid out
once, and each block gathers its lines' slots from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _CHUNK, as_form
from .errors import ValidationError

__all__ = [
    "MAX_SAMPLES",
    "SampleBatch",
    "sample",
    "write_csv",
    "write_grid_csv",
]

# every bracket of [0, 1] halves exactly in lockstep, so after the same 34
# steps each is a cell [L, L + _CELL] with L a multiple of _CELL (< 1e-10)
_CELLS = 2**34
_CELL = 1.0 / _CELLS

# lockstep secant steps on the kernel that guess a draw of a copula with a
# density and no quantile
_SECANT_STEPS = 10

# only the (n, 2) result grows with n, by 16 bytes a sample: a million
# samples peak near 53 MB of RSS (31 MB after import; 71 MB for a Gaussian,
# which loads SciPy), so the bound keeps a batch under 200 MB
MAX_SAMPLES = 10_000_000

# Philox takes a 128-bit key
_SEED_BOUND = 2**128

# values per block of the CSV writer.  Its buffers, allocated once per
# file, take 28 bytes of text and 28 of keep mask per value, and the digit
# arithmetic's uint64 work arrays 8 bytes per value each: near 2 MB in all,
# whatever the file's size.  Smaller blocks pay more per-call overhead
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
    guess = _guesser(copula, kernel)
    points = np.empty((n, 2))
    queue = _Queue(kernel, points)
    for start in range(0, n, _CHUNK):
        u, w = rng.random((min(_CHUNK, n - start), 2)).T
        out = points[start : start + u.size]
        out[:, 0] = u
        if guess is None:
            miss = np.arange(u.size)
        else:
            pu = kernel.prep_u(u)
            out[:, 1], confirmed = _confirm(kernel, pu, w, guess(u, pu, w))
            miss = np.flatnonzero(~confirmed)
        queue.put(start + miss, w[miss])
    queue.drain()
    return SampleBatch(points=points, seed=seed, n=n, label=copula.label)


def _guesser(copula, kernel):
    """``guess(u, pu, w)`` of each draw's v, or None where the copula offers none.

    A declared quantile gives the guess.  Else, where the copula has a
    density, K(u, .) is continuous and the guess is the secant's on it
    (:func:`_secant`).  A kernel without either may jump in v, and the secant
    would miss nearly every draw, so those draws all go to the bisection.
    """
    if copula.quantile is not None:
        quantile = as_form(copula.quantile)
        return lambda u, pu, w: quantile.combine(quantile.prep_u(u), quantile.prep_v(w))
    if copula.density is not None:
        return lambda u, pu, w: _secant(kernel, pu, w)
    return None


def _secant(kernel, pu, w):
    """The root in v of K(u, v) - w after ``_SECANT_STEPS`` lockstep secant steps.

    The steps start from (1, 1 - w) and (w, K(u, w) - w).  Every iterate
    stays in [2^-34, 1 - 2^-34], where the bisection evaluates the kernel
    too, and a draw whose step is not finite (equal kernel values, a NaN)
    keeps its previous iterate.  The kernel is evaluated at w and at every
    iterate but the last: ten evaluations a draw.
    """
    x0, f0 = 1.0, 1.0 - w
    x1 = np.clip(w, _CELL, 1.0 - _CELL)
    for _ in range(_SECANT_STEPS):
        f1 = np.asarray(kernel.combine(pu, kernel.prep_v(x1)), dtype=float) - w
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = x1 - f1 * (x1 - x0) / (f1 - f0)
        x = np.where(np.isfinite(x), np.clip(x, _CELL, 1.0 - _CELL), x1)
        x0, f0, x1 = x1, f1, x
    return x1


class _Queue:
    """Draws whose cell no guess confirmed, bisected 2^14 at a time.

    Whatever share of a chunk misses, every bisection but the last runs on a
    full chunk, so its arrays have the size of the other per-chunk work.  A
    queued draw keeps its w in the v column of ``points`` until it is
    bisected, and the queue holds only the draws' rows, in one buffer.
    """

    def __init__(self, kernel, points):
        self.kernel, self.points = kernel, points
        self.rows, self.size = np.empty(2 * _CHUNK, dtype=np.intp), 0

    def put(self, rows, w):
        self.points[rows, 1] = w
        self.rows[self.size : self.size + rows.size] = rows
        self.size += rows.size
        if self.size >= _CHUNK:
            self._solve(self.rows[:_CHUNK])
            self.size -= _CHUNK
            self.rows[: self.size] = self.rows[_CHUNK : _CHUNK + self.size]

    def drain(self):
        self._solve(self.rows[: self.size])
        self.size = 0

    def _solve(self, rows):
        if rows.size:
            u, w = self.points[rows, 0], self.points[rows, 1]
            self.points[rows, 1] = _bisect(self.kernel, self.kernel.prep_u(u), w)


def _confirm(kernel, pu, w, guess):
    """The top of each guess's 2^-34 cell, and where the kernel confirms that cell.

    A guess is rounded down to its cell [L, L + 2^-34]; NaN and values from 1
    up take the top cell, values below 0 the bottom one.  The cell is
    confirmed where ``K(u, L) >= w`` reads false (or L = 0) and
    ``K(u, L + 2^-34) >= w`` true (or L + 2^-34 = 1).
    """
    # the bottom of the guessed cell, then its top, in one array; a NaN
    # guess takes the top cell, as 1 does (fmin keeps the number)
    end = np.clip(np.broadcast_to(np.asarray(guess, dtype=float), w.shape), 0.0, 1.0)
    end *= _CELLS
    np.floor(end, out=end)
    np.fmin(end, _CELLS - 1, out=end)
    end *= _CELL
    # the kernel is evaluated only where the bisection may evaluate it, in (0, 1)
    confirmed = (end == 0.0) | ~_reaches(kernel, pu, np.where(end == 0.0, 0.5, end), w)
    end += _CELL
    confirmed &= (end == 1.0) | _reaches(kernel, pu, np.where(end == 1.0, 0.5, end), w)
    return end, confirmed


def _reaches(kernel, pu, v, w):
    """The sampler's predicate K(u, v) >= w, with u prepped as ``pu``; NaN reads false."""
    return np.asarray(kernel.combine(pu, kernel.prep_v(v)), dtype=float) >= w


def _bisect(kernel, pu, w):
    """The top of the 2^-34 cell where ``K(u, .) >= w`` turns true, by bisection of [0, 1].

    Every draw's bracket is ``[lo, lo + width]``, with one dyadic width for
    all, so ``lo + width / 2`` is the exact midpoint; where the predicate
    holds there the bracket keeps its lower half, elsewhere (a NaN included)
    its upper half, until the width is ``_CELL``.
    """
    lo, width = np.zeros(w.shape), 1.0
    while width > _CELL:
        width *= 0.5
        mid = lo + width
        lo = np.where(_reaches(kernel, pu, mid, w), lo, mid)
    return lo + width


def _words(data):
    """The native uint32 words of ``data``: four bytes of a text slot each."""
    return np.frombuffer(data, dtype=np.uint32)


# Each value of a block is laid out in a slot of 28 bytes, read as 7 uint32
# words, with a keep mask of the same shape; the kept bytes, in order, are
# its CSV text.  Byte 24 is the separator, "," or the LF that ends a line.
# A value in [1e-4, 10) takes its 17 digits from _fixed_digits, laid out as
#
#     byte   0    1    2    3-5    6     7    8-23
#           " "  "0"  "."  "000"  lead  "."  the other 16 digits, 4 to a word
#
# Below 1 it keeps "0.", its zeros after the point and the lead digit; from
# 1 on, the lead digit and a "." that a nonzero digit follows.  Either way
# the other 16 digits end at the last nonzero one.  Every other value takes
# bytes 0-23 from "%-24.17g": 24 characters is the widest "%.17g" text (as
# in "-2.2250738585072014e-308"), and none holds a space.
_SLOT = 28
_SEP = 24
_POINT = 7
_WIDE = "%-24.17g"
_WIDE_WORDS = 6

_U64 = np.uint64
_LOW32 = _U64(2**32 - 1)
# by i, the number of the bounds 1, 0.1, 0.01 and 0.001 above x: the 17
# digits are x * 10**(16 + i), and 10**(16 + i) = 5**(16 + i) * 2**(16 + i)
_POW5 = np.array([5 ** (16 + i) for i in range(5)], dtype=_U64)
_POW5_LO, _POW5_HI = _POW5 & _LOW32, _POW5 >> _U64(32)
_HEAD_TEXT = _words(b" 0.0")[0]
# by i, the kept bytes 0-3 and 4-7: "0." below 1, i - 1 zeros and the lead digit
_HEAD_KEEP = _words(b"\0\0\0\0" b"\0\1\1\0" b"\0\1\1\0" b"\0\1\1\0" b"\0\1\1\1")
_LEAD_KEEP = _words(b"\0\0\1\0" b"\0\0\1\0" b"\0\1\1\0" b"\1\1\1\0" b"\1\1\1\0")
_LEAD_TEXT = _words(b"".join(b"00%d." % d for d in range(10)))
_GROUP_ALL = _words(b"\1\1\1\1")[0]


def _group_words():
    """The text and keep words of each group of 4 digits, 0000 to 9999.

    A group keeps its digits up to its last nonzero one: those a value's
    text ends with.  The tables are built at import from those of the 100
    pairs of digits: formatting the 10 000 groups one by one, or computing
    their digits in one array, added 0.3-0.6 MB to every command's peak RSS.
    """
    pair_text = np.frombuffer(b"".join(b"%02d" % p for p in range(100)), dtype=np.uint16)
    pair_keep = np.frombuffer(b"".join(bytes((p > 0, p % 10 > 0)) for p in range(100)), dtype=np.uint16)
    text = np.empty((100, 100, 2), dtype=np.uint16)
    keep = np.empty((100, 100, 2), dtype=np.uint16)
    text[:, :, 0], text[:, :, 1] = pair_text[:, None], pair_text
    keep[:, :, 0], keep[:, :, 1] = pair_keep[:, None], pair_keep
    keep[:, 1:, 0] = np.frombuffer(b"\1\1", dtype=np.uint16)  # a nonzero second pair follows
    return text.view(np.uint32).ravel(), keep.view(np.uint32).ravel()


_GROUP_TEXT, _GROUP_KEEP = _group_words()


def _split(q, unit):
    """``divmod(q, unit)`` of a uint64 array.  NumPy vectorizes the floor
    division by a scalar but not the remainder."""
    top = q // _U64(unit)
    return top, q - top * _U64(unit)


def _fixed_digits(x, text, keep):
    """Lay out the ``%.17g`` text of each x of ``x`` in [1e-4, 10) in the
    slots ``text`` and ``keep`` (bytes 0-23; any other x leaves garbage).

    The 17 digits are x * 10**(16 + i) rounded half to even, where i counts
    the bounds 1, 0.1, 0.01 and 0.001 above x.  The count is exact: 1 is a
    double, and the double nearest each 10**-k lies above it, so a double is
    below 10**-k exactly when it is below that double.  With x = m * 2**-s
    (m < 2**53), the digits are m * 5**(16 + i), under 2**100 and held as two
    uint64 halves built from 32-bit pieces, shifted right by s - 16 - i (33
    to 46) bits.

    Returns the mask of the values whose digits came out as exactly 17.  No
    double in [1e-4, 10) rounds up to 10**17 (the one below 10**-k,
    k = -1..3, ends 8 or more units below it), so the mask is only a check.
    """
    bits = x.view(_U64)
    m = (bits & _U64(2**52 - 1)) | _U64(2**52)
    i = (x < 1.0).astype(_U64)
    for bound in (1e-1, 1e-2, 1e-3):
        i += x < bound
    ii = i.view(np.int64)
    f_lo, f_hi = _POW5_LO.take(ii), _POW5_HI.take(ii)
    m_lo, m_hi = m & _LOW32, m >> _U64(32)
    low = m_lo * f_lo
    mid = m_lo * f_hi + m_hi * f_lo  # under 2**54
    lo = low + (mid << _U64(32))  # mod 2**64
    hi = m_hi * f_hi + (mid >> _U64(32)) + (lo < low)
    shift = _U64(1075 - 16) - (bits >> _U64(52)) - i
    q = (hi << (_U64(64) - shift)) | (lo >> shift)
    half = _U64(1) << (shift - _U64(1))
    rest = lo & (half + half - _U64(1))
    q += (rest > half) | ((rest == half) & ((q & _U64(1)) == 1))
    exact = (q >= _U64(10**16)) & (q < _U64(10**17))

    upper, lower = _split(q, 10**8)
    lead, upper = _split(upper, 10**8)
    groups = (*_split(upper, 10**4), *_split(lower, 10**4))  # words 2-5
    words, kept = text.view(np.uint32), keep.view(np.uint32)
    words[:, 0] = _HEAD_TEXT
    kept[:, 0] = _HEAD_KEEP.take(ii)
    # a lead "digit" of 10 (a carry to 10**17, which ``exact`` rejects) clips to 9
    words[:, 1] = _LEAD_TEXT.take(lead.view(np.int64), mode="clip")
    kept[:, 1] = _LEAD_KEEP.take(ii)
    # a group keeps all its digits when a nonzero digit follows it
    follows = np.zeros(x.shape, dtype=bool)
    for word in (5, 4, 3, 2):
        group = groups[word - 2]
        g = group.view(np.int64)
        words[:, word] = _GROUP_TEXT.take(g)
        kept[:, word] = np.where(follows, _GROUP_ALL, _GROUP_KEEP.take(g))
        follows |= group != 0
    np.logical_and(follows, i == 0, out=keep[:, _POINT])
    return exact


def _format_block(values, x, text, keep):
    """Lay out the CSV text of the float array ``values`` in the slots ``text`` and ``keep``.

    ``x`` is a float buffer of the same size.  Values in [1e-4, 10) take the
    integer digits of :func:`_fixed_digits`; every other value (0, -0,
    x < 1e-4, x >= 10, negatives, inf, nan) and any value whose digits did
    not come out as exactly 17 takes one batched ``%`` of the block.
    """
    fast = (values >= 1e-4) & (values < 10.0)
    # the other values go through the arithmetic as 1.0; their slots are overwritten
    x.fill(1.0)
    np.copyto(x, values, where=fast)
    fast &= _fixed_digits(x, text, keep)
    slow = np.flatnonzero(~fast)
    if slow.size:
        wide = (_WIDE * slow.size % tuple(values[slow].tolist())).encode("ascii")
        wide = np.frombuffer(wide, dtype=np.uint8).reshape(slow.size, 4 * _WIDE_WORDS)
        text.view(np.uint32)[slow, :_WIDE_WORDS] = wide.view(np.uint32)
        keep.view(np.uint32)[slow, :_WIDE_WORDS] = (wide != ord(" ")).view(np.uint32)


def _write_lines(path, header, n_lines, per_line, layout):
    """Write ``header``, then ``n_lines`` CSV lines of ``per_line`` values each.

    ``layout(start, stop, text, keep)`` lays out the values of lines
    ``start:stop`` in the slots ``text`` and ``keep``, of shape
    ``(stop - start, per_line, _SLOT)``, bytes 0-23 of each slot (the
    separators are set here).  Every value is written as the bytes of
    ``f"{x:.17g}"`` (17 significant digits, ``1`` for 1.0, the same exponent
    forms, ``inf`` and ``nan``), and lines end in LF on every platform.  Each
    block of lines is written with one ``np.compress`` of its kept bytes and
    one binary write; the buffers are allocated once per file.
    """
    step = _BLOCK_VALUES // per_line
    text = np.zeros((step, per_line, _SLOT), dtype=np.uint8)
    keep = np.zeros((step, per_line, _SLOT), dtype=bool)
    text[:, :, _SEP] = np.frombuffer(b"," * (per_line - 1) + b"\n", dtype=np.uint8)
    keep[:, :, _SEP] = True
    out = np.empty(text.size, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for start in range(0, n_lines, step):
            k = min(step, n_lines - start)
            layout(start, start + k, text[:k], keep[:k])
            kept = keep[:k].ravel()
            n = np.count_nonzero(kept)
            np.compress(kept, text[:k].ravel(), out=out[:n])
            fh.write(out[:n])


def write_csv(batch, path):
    """CSV export: header u,v then one pair per line, 17 significant digits, LF endings."""
    x = np.empty(_BLOCK_VALUES)

    def layout(start, stop, text, keep):
        values = batch.points[start:stop].ravel()
        _format_block(values, x[: values.size], text.reshape(-1, _SLOT), keep.reshape(-1, _SLOT))

    _write_lines(path, "u,v\n", batch.n, 2, layout)


def _axis_words(values):
    """The text and keep words 0-5 of each value's slot, laid out once for a grid axis."""
    text = np.zeros((values.size, _SLOT), dtype=np.uint8)
    keep = np.zeros((values.size, _SLOT), dtype=bool)
    _format_block(values, np.empty(values.size), text, keep)
    return text.view(np.uint32)[:, :_WIDE_WORDS], keep.view(np.uint32)[:, :_WIDE_WORDS]


def write_grid_csv(us, vs, values, path):
    """CSV export of ``values[i, j]`` at (us[i], vs[j]): header u,v,value, then u-major lines.

    Each axis is laid out once; a block gathers the slots of its lines' u and
    v, so only the values are formatted per line and no meshgrid is built.
    """
    flat = np.asarray(values, dtype=float).reshape(-1)
    n_v = len(vs)
    u_words, v_words = (_axis_words(np.asarray(axis, dtype=float)) for axis in (us, vs))
    x = np.empty(_BLOCK_VALUES // 3)

    def layout(start, stop, text, keep):
        i, j = np.divmod(np.arange(start, stop), n_v)
        words, kept = text.view(np.uint32), keep.view(np.uint32)
        for column, (axis_text, axis_keep), at in ((0, u_words, i), (1, v_words, j)):
            words[:, column, :_WIDE_WORDS] = axis_text[at]
            kept[:, column, :_WIDE_WORDS] = axis_keep[at]
        _format_block(flat[start:stop], x[: stop - start], text[:, 2], keep[:, 2])

    _write_lines(path, "u,v,value\n", flat.size, 3, layout)
