"""Row maxima of totally monotone staircase matrices.

``row_maxima`` finds, for every row of an implicitly defined m x n matrix,
the leftmost column holding the row maximum.  The matrix must be convex
totally monotone: whenever a later column strictly beats an earlier column
in some row, it also strictly beats it in every row below.  Matrices built
from concave sequence convolutions have this property, including their
bottom (-inf) padding; the hint-propagating engine's extension step calls
it on such matrices.

The output is compact: n + 1 breakpoints r_1 <= ... <= r_{n+1} with r_1 = 1
and r_{n+1} = m + 1, such that column j is the leftmost maximum for all rows
r_j <= i < r_{j+1}.  Tall matrices (m >> n) are handled by sampling every
(m/n)-th row, solving the sampled square matrix, and recursing on the row
gaps with the column range bracketed by neighboring sampled answers; this
keeps the number of entry evaluations at O(n * (1 + log2(ceil(m / n)))).
"""

from __future__ import annotations


def _smawk_dense(rows: list[int], cols: list[int], value) -> dict[int, int]:
    """Classic SMAWK: leftmost row-maximum column per row, O(m + n) evals.

    ``rows`` and ``cols`` are actual matrix indices in increasing order.
    Ties are resolved to the leftmost column throughout (the column-reduce
    step only discards a candidate when strictly beaten).
    """
    if not rows:
        return {}
    # Column reduce: keep at most len(rows) columns that can hold a maximum.
    stack: list[int] = []
    for c in cols:
        while stack and value(rows[len(stack) - 1], stack[-1]) < value(rows[len(stack) - 1], c):
            stack.pop()
        if len(stack) < len(rows):
            stack.append(c)
    cols = stack
    if len(rows) == 1:
        return {rows[0]: cols[0]}
    sol = _smawk_dense(rows[1::2], cols, value)
    # Interpolate even-position rows between their odd neighbors' answers.
    pos_of = {c: k for k, c in enumerate(cols)}
    out: dict[int, int] = {}
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


def row_maxima(nrows: int, ncols: int, value) -> list[int]:
    """Breakpoints of leftmost row maxima for a convex totally monotone matrix.

    ``value(i, j)`` is evaluated with 1-based row i in [1, nrows] and column
    j in [1, ncols]; it may return BOTTOM.  Returns breakpoints
    [r_1, ..., r_{ncols+1}] as described in the module docstring.
    """
    if nrows < 1 or ncols < 1:
        raise ValueError("matrix must be nonempty")
    segments: list[tuple[int, int, int]] = []  # (row_start, row_end, col)

    def emit(rlo: int, rhi: int, col: int) -> None:
        if segments and segments[-1][2] == col and segments[-1][1] == rlo - 1:
            segments[-1] = (segments[-1][0], rhi, col)
        else:
            segments.append((rlo, rhi, col))

    def solve(rlo: int, rhi: int, clo: int, chi: int) -> None:
        if rlo > rhi:
            return
        if clo == chi:
            emit(rlo, rhi, clo)
            return
        m = rhi - rlo + 1
        n = chi - clo + 1
        cols = list(range(clo, chi + 1))
        if m <= 2 * n:
            amax = _smawk_dense(list(range(rlo, rhi + 1)), cols, value)
            run_start = rlo
            run_col = amax[rlo]
            for r in range(rlo + 1, rhi + 1):
                if amax[r] != run_col:
                    emit(run_start, r - 1, run_col)
                    run_start = r
                    run_col = amax[r]
            emit(run_start, rhi, run_col)
            return
        # Tall: sample ~n evenly spaced rows, then recurse on the gaps with
        # the column range pinned between neighboring sampled answers.
        step = m // n
        sampled = list(range(rlo + step - 1, rhi + 1, step))
        if sampled[-1] != rhi:
            sampled.append(rhi)
        amax = _smawk_dense(sampled, cols, value)
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
    # r_j = first row whose argmax column is >= j (m + 1 when none).
    last_col = 0
    for rlo, rhi, col in segments:
        for j in range(last_col + 1, col + 1):
            breakpoints[j] = rlo
        last_col = max(last_col, col)
    for j in range(last_col + 1, ncols + 2):
        breakpoints[j] = nrows + 1
    breakpoints[1] = 1
    return breakpoints[1:]

