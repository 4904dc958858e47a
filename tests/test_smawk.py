"""Tall-matrix row maxima."""

import random

import pytest

from knapsolve import BOTTOM, is_bottom, row_maxima


def breakpoints_to_argmax(breaks, nrows):
    """Expand column breakpoints into a per-row leftmost argmax list."""
    out = [0] * (nrows + 1)
    for col in range(1, len(breaks)):
        for row in range(breaks[col - 1], breaks[col]):
            out[row] = col
    return out[1:]


def naive_leftmost_argmax(nrows, ncols, value):
    out = []
    for i in range(1, nrows + 1):
        best, best_j = BOTTOM, 1
        for j in range(1, ncols + 1):
            v = value(i, j)
            if not is_bottom(v) and (is_bottom(best) or v > best):
                best, best_j = v, j
        out.append(best_j)
    return out


def make_concave_staircase(rng, nrows, ncols, cut):
    """Concave totally monotone test matrix, optionally upper-triangular cut."""
    offs = [rng.randint(-40, 40) for _ in range(ncols)]
    incs = sorted((rng.randint(-9, 9) for _ in range(nrows + ncols)), reverse=True)
    f = [0]
    for d in incs:
        f.append(f[-1] + d)

    def value(i, j):
        if cut and j > i:
            return BOTTOM
        return offs[j - 1] + f[i - j + ncols]

    return value


def test_row_maxima_single_cell():
    assert row_maxima(1, 1, lambda i, j: 5) == [1, 2]


def test_row_maxima_staircase_example():
    rows = [(0, BOTTOM), (1, 3), (2, 4)]
    breaks = row_maxima(3, 2, lambda i, j: rows[i - 1][j - 1])
    assert breaks == [1, 2, 4]
    assert breakpoints_to_argmax(breaks, 3) == [1, 2, 2]


def test_row_maxima_rejects_empty():
    with pytest.raises(ValueError):
        row_maxima(0, 3, lambda i, j: 0)
    with pytest.raises(ValueError):
        row_maxima(3, 0, lambda i, j: 0)


def test_row_maxima_matches_naive_on_random_matrices():
    rng = random.Random(7331)
    for _ in range(200):
        ncols = rng.randint(1, 12)
        nrows = rng.randint(ncols, 60)
        value = make_concave_staircase(rng, nrows, ncols, rng.random() < 0.5)
        breaks = row_maxima(nrows, ncols, value)
        assert breaks[0] == 1 and breaks[-1] == nrows + 1
        assert all(breaks[i] <= breaks[i + 1] for i in range(len(breaks) - 1))
        assert breakpoints_to_argmax(breaks, nrows) == naive_leftmost_argmax(
            nrows, ncols, value
        )

