import numpy as np
import pytest

from mktp2.grids import crossing, runs


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


@pytest.mark.parametrize("hi", [1.0, 1e8, np.finfo(float).max])
@pytest.mark.parametrize("level", [5e-324, 1e-150, 0.3, 1.0])
def test_crossing_ends_on_adjacent_doubles(hi, level):
    calls = []

    def pred(t):
        calls.append(t)
        return np.sqrt(t) >= level

    a, b = crossing(pred, 0.0, hi)
    assert len(calls) <= 63
    assert isinstance(a, float) and isinstance(b, float)
    assert np.nextafter(a, np.inf) == b
    assert not pred(a) and pred(b)


def test_crossing_of_a_batch_gives_each_bracket_its_own_bits():
    target = np.array([1e-300, 0.05, 0.5, 0.95, 2.0, 1e6])
    lo = np.array([0.0, 0.0, 0.25, -0.0, 1.0, 0.0])
    hi = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 1e100])
    fn = lambda t: t * t * t
    a, b = crossing(lambda t: fn(t) >= target, lo, hi)
    assert a.shape == b.shape == target.shape
    for k in range(len(target)):
        alone = crossing(lambda t: fn(t) >= target[k], lo[k], hi[k])
        assert (a[k].hex(), b[k].hex()) == (alone[0].hex(), alone[1].hex()), k
    assert np.array_equal(np.nextafter(a, np.inf), b)
    assert not np.any(fn(a) >= target) and np.all(fn(b) >= target)
