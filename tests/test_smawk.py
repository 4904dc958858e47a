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



def _reference_smawk_dense(rows, cols, value):
    """The dict-based SMAWK that ``row_maxima`` used before its list rewrite.

    Frozen as a reference: the list version must evaluate the same entries.
    """
    if not rows:
        return {}
    stack = []
    for c in cols:
        while stack and value(rows[len(stack) - 1], stack[-1]) < value(rows[len(stack) - 1], c):
            stack.pop()
        if len(stack) < len(rows):
            stack.append(c)
    cols = stack
    if len(rows) == 1:
        return {rows[0]: cols[0]}
    sol = _reference_smawk_dense(rows[1::2], cols, value)
    pos_of = {c: k for k, c in enumerate(cols)}
    out = {}
    lo = 0
    for k, r in enumerate(rows):
        if k % 2 == 1:
            out[r] = sol[r]
            lo = pos_of[sol[r]]
            continue
        hi = pos_of[sol[rows[k + 1]]] if k + 1 < len(rows) else len(cols) - 1
        best = None
        best_c = cols[lo]
        for p in range(lo, hi + 1):
            v = value(r, cols[p])
            if best is None or v > best:
                best = v
                best_c = cols[p]
        out[r] = best_c
    return out


def reference_row_maxima(nrows, ncols, value):
    """Frozen ``row_maxima`` over the dict-based SMAWK, segments and all."""
    segments = []

    def emit(rlo, rhi, col):
        if segments and segments[-1][2] == col and segments[-1][1] == rlo - 1:
            segments[-1] = (segments[-1][0], rhi, col)
        else:
            segments.append((rlo, rhi, col))

    def solve(rlo, rhi, clo, chi):
        if rlo > rhi:
            return
        if clo == chi:
            emit(rlo, rhi, clo)
            return
        m = rhi - rlo + 1
        n = chi - clo + 1
        cols = list(range(clo, chi + 1))
        if m <= 2 * n:
            amax = _reference_smawk_dense(list(range(rlo, rhi + 1)), cols, value)
            run_start = rlo
            run_col = amax[rlo]
            for r in range(rlo + 1, rhi + 1):
                if amax[r] != run_col:
                    emit(run_start, r - 1, run_col)
                    run_start = r
                    run_col = amax[r]
            emit(run_start, rhi, run_col)
            return
        step = m // n
        sampled = list(range(rlo + step - 1, rhi + 1, step))
        if sampled[-1] != rhi:
            sampled.append(rhi)
        amax = _reference_smawk_dense(sampled, cols, value)
        prev_row = rlo - 1
        prev_col = clo
        for s in sampled:
            cs = amax[s]
            solve(prev_row + 1, s - 1, prev_col, cs)
            emit(s, s, cs)
            prev_row = s
            prev_col = cs

    solve(1, nrows, 1, ncols)
    breakpoints = [1] * (ncols + 2)
    last_col = 0
    for rlo, rhi, col in segments:
        for j in range(last_col + 1, col + 1):
            breakpoints[j] = rlo
        last_col = max(last_col, col)
    for j in range(last_col + 1, ncols + 2):
        breakpoints[j] = nrows + 1
    breakpoints[1] = 1
    return breakpoints[1:]


def counted(value):
    """``value`` plus a list of the (row, col) pairs it was asked for."""
    calls = []

    def wrapped(i, j):
        calls.append((i, j))
        return value(i, j)

    return wrapped, calls


def make_tied_staircase(rng, nrows, ncols, cut):
    """Like ``make_concave_staircase`` over a tiny value range: many ties."""
    offs = [rng.randint(0, 1) for _ in range(ncols)]
    incs = sorted((rng.randint(-1, 0) for _ in range(nrows + ncols)), reverse=True)
    f = [0]
    for d in incs:
        f.append(f[-1] + d)

    def value(i, j):
        if cut and j > i:
            return BOTTOM
        return offs[j - 1] + f[i - j + ncols]

    return value


@pytest.mark.parametrize("shape", ["square", "tall", "wide", "single-row", "single-col"])
def test_row_maxima_matches_frozen_reference(shape):
    # same breakpoints and the same entries evaluated, in the same order, as
    # the dict-based version on concave, tie-heavy and bottom-padded matrices
    rng = random.Random(f"row-maxima-{shape}")
    for _ in range(120):
        n = rng.randint(1, 14)
        nrows, ncols = {
            "square": (n, n),
            "tall": (n * rng.randint(8, 60), n),
            "wide": (n, n + rng.randint(1, 30)),
            "single-row": (1, n),
            "single-col": (rng.randint(1, 200), 1),
        }[shape]
        make = rng.choice((make_concave_staircase, make_tied_staircase))
        value = make(rng, nrows, ncols, rng.random() < 0.5)
        got_value, got_calls = counted(value)
        want_value, want_calls = counted(value)
        got = row_maxima(nrows, ncols, got_value)
        assert got == reference_row_maxima(nrows, ncols, want_value)
        assert got_calls == want_calls
        assert breakpoints_to_argmax(got, nrows) == naive_leftmost_argmax(nrows, ncols, value)
