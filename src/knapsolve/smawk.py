"""Row maxima of totally monotone staircase matrices.

``row_maxima`` finds, for every row of an implicitly defined m x n matrix,
the leftmost column holding the row maximum.  The matrix must be convex
totally monotone: whenever a later column strictly beats an earlier column
in some row, it also strictly beats it in every row below.  Matrices built
from concave sequence convolutions have this property, including their
bottom (-inf) padding; the hint-propagating engine's extension step calls
it on such matrices when their profit function takes more than two items.
A shorter one holds at most three real entries per row, which the engine
scans directly instead (``hinted._row_winners``).

The output is compact: n + 1 breakpoints r_1 <= ... <= r_{n+1} with r_1 = 1
and r_{n+1} = m + 1, such that column j is the leftmost maximum for all rows
r_j <= i < r_{j+1}.  Tall matrices (m >> n) are handled by sampling every
(m/n)-th row, solving the sampled square matrix, and recursing on the row
gaps with the column range bracketed by neighboring sampled answers; this
keeps the number of entry evaluations at O(n * (1 + log2(ceil(m / n)))).

The square solver keeps everything in lists.  After the column reduce and
the recursion on the odd rows, each even row scans the reduced columns from
its upper neighbor's answer to its lower neighbor's; consecutive scans
share only their end column, so one left-to-right walk over the reduced
columns serves every even row.  Rows are settled in increasing order with
nondecreasing columns, so each breakpoint is written once, when the first
row reaching its column settles.
"""

from __future__ import annotations


def _smawk_dense(rows: list[int], cols: list[int], value) -> list[int]:
    """Classic SMAWK: leftmost row-maximum column per row, O(m + n) evals.

    ``rows`` and ``cols`` are actual matrix indices in increasing order; the
    result lists each row's argmax column, in row order.  Ties are resolved
    to the leftmost column throughout (the column-reduce step only discards
    a candidate when strictly beaten).
    """
    nrows = len(rows)
    # Column reduce: keep at most len(rows) columns that can hold a maximum;
    # stack[k - 1] is the top, compared in row rows[k - 1].
    stack: list[int] = []
    k = 0
    for c in cols:
        while k and value(rows[k - 1], stack[k - 1]) < value(rows[k - 1], c):
            stack.pop()
            k -= 1
        if k < nrows:
            stack.append(c)
            k += 1
    if nrows == 1:
        return stack
    odd = _smawk_dense(rows[1::2], stack, value)
    if nrows % 2:
        odd.append(stack[-1])  # the last row scans to the last column
    # Interpolate even-position rows between their odd neighbors' answers:
    # each scans from the previous answer up to the next one, so one walk
    # over the reduced columns serves them all.
    out: list[int] = []
    p = 0
    for r, stop in zip(rows[::2], odd):
        best_c = c = stack[p]
        best = value(r, c)
        while c != stop:
            p += 1
            c = stack[p]
            v = value(r, c)
            if v > best:
                best = v
                best_c = c
        out.append(best_c)
        out.append(stop)
    del out[nrows:]
    return out


def row_maxima(nrows: int, ncols: int, value) -> list[int]:
    """Breakpoints of leftmost row maxima for a convex totally monotone matrix.

    ``value(i, j)`` is evaluated with 1-based row i in [1, nrows] and column
    j in [1, ncols]; it may return BOTTOM.  Returns breakpoints
    [r_1, ..., r_{ncols+1}] as described in the module docstring.
    """
    if nrows < 1 or ncols < 1:
        raise ValueError("matrix must be nonempty")
    # starts[j - 1] = first row whose leftmost maximum lies in a column >= j;
    # rows are settled in increasing order and their columns never decrease
    starts: list[int] = []

    def settle(row: int, col: int) -> None:
        if col > len(starts):
            starts.extend([row] * (col - len(starts)))

    def solve(rlo: int, rhi: int, clo: int, chi: int) -> None:
        if rlo > rhi:
            return
        if clo == chi:
            settle(rlo, clo)
            return
        m = rhi - rlo + 1
        n = chi - clo + 1
        cols = list(range(clo, chi + 1))
        if m <= 2 * n:
            amax = _smawk_dense(list(range(rlo, rhi + 1)), cols, value)
            for r, col in enumerate(amax, rlo):
                settle(r, col)
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
        for s, cs in zip(sampled, amax):
            solve(prev_row + 1, s - 1, prev_col, cs)
            settle(s, cs)
            prev_row = s
            prev_col = cs

    solve(1, nrows, 1, ncols)
    return starts + [nrows + 1] * (ncols + 1 - len(starts))
