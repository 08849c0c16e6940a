import numpy as np
import pytest

from mktp2.grids import bisect, persistent_jumps, runs


def _runs_loop(mask):
    """Reference: the run grouping as an index walk."""
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        return []
    out = []
    start = prev = idx[0]
    for k in idx[1:]:
        if k != prev + 1:
            out.append((start, prev + 1))
            start = k
        prev = k
    out.append((start, prev + 1))
    return out


@pytest.mark.parametrize("seed", range(5))
def test_runs_matches_loop_reference(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 7, 50):
        mask = rng.random(n) < 0.5
        assert runs(mask) == _runs_loop(mask)
    assert runs(np.ones(4, dtype=bool)) == [(0, 4)]
    assert runs(np.zeros(4, dtype=bool)) == []


def test_bisect_matches_loop_reference():
    target = np.linspace(0.05, 0.95, 9)
    fn = lambda t: t**3
    lo, hi = np.zeros_like(target), np.ones_like(target)
    ref_lo, ref_hi = lo.copy(), hi.copy()
    for _ in range(200):
        mid = 0.5 * (ref_lo + ref_hi)
        take = fn(mid) >= target
        ref_hi = np.where(take, mid, ref_hi)
        ref_lo = np.where(take, ref_lo, mid)
        if np.max(ref_hi - ref_lo) <= 1e-12:
            break
    got_lo, got_hi = bisect(lambda t: fn(t) >= target, lo, hi, 1e-12, 200)
    assert np.array_equal(got_lo, ref_lo) and np.array_equal(got_hi, ref_hi)
    # scalar brackets, no tolerance: the bracket collapses onto the root
    _, root = bisect(lambda t: float(t) ** 2 >= 2.0, 1.0, 2.0, 0.0, 200)
    assert float(root) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_persistent_jumps_rule():
    xs = np.array([0.2, 0.5, 0.8])
    # a unit step at 0.5, a steep line of slope 120, and nothing
    step = lambda x: np.where(x >= 0.5, 1.0, 0.0)
    steep = lambda x: 120.0 * x
    for fn, expected in ((step, [False, True, False]), (steep, [False, False, False])):
        gaps, mask = persistent_jumps(lambda d: np.abs(fn(xs + d) - fn(xs - d)))
        assert gaps.shape == (3, 3)
        assert mask.tolist() == expected
