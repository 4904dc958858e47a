"""Row maxima of totally monotone staircase matrices, and DP batch updates.

``row_maxima`` finds, for every row of an implicitly defined m x n matrix,
the leftmost column holding the row maximum.  The matrix must be convex
totally monotone: whenever a later column strictly beats an earlier column
in some row, it also strictly beats it in every row below.  Matrices built
from concave sequence convolutions (below) have this property, including
their bottom (-inf) padding.

The output is compact: n + 1 breakpoints r_1 <= ... <= r_{n+1} with r_1 = 1
and r_{n+1} = m + 1, such that column j is the leftmost maximum for all rows
r_j <= i < r_{j+1}.  Tall matrices (m >> n) are handled by sampling every
(m/n)-th row, solving the sampled square matrix, and recursing on the row
gaps with the column range bracketed by neighboring sampled answers; this
keeps the number of entry evaluations at O(n * (1 + log2(ceil(m / n)))).
"""

from __future__ import annotations

import numpy as np

from .core import BOTTOM, is_bottom


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


def concave_maxplus_conv(a: list, b: list, with_argmax: bool = False):
    """(max, +) convolution of a sequence with a concave sequence.

    Computes c[i] = max over j of a[j] + b[i - j] for i in
    [0, len(a) + len(b) - 2], where the max runs over indices with both terms
    defined.  ``a`` may contain BOTTOM entries; ``b`` must be finite with
    nonincreasing increments (concave).  Runs one tall-matrix row-maxima call
    on the matrix A[i][j] = a[j] + b[i - j].

    Out-of-window positions (i - j beyond the end of ``b``) are filled with a
    steeply decreasing concave extension so the matrix stays totally
    monotone; winners from the extension are mapped back to BOTTOM, which is
    the true windowed value in that case.
    """
    n = len(a)
    m = len(b)
    if n == 0 or m == 0:
        raise ValueError("sequences must be nonempty")
    if any(is_bottom(v) for v in b):
        raise ValueError("concave sequence must be finite")
    assert all(
        b[x + 1] - b[x] <= b[x] - b[x - 1] for x in range(1, m - 1)
    ), "sequence increments must be nonincreasing"

    out_len = n + m - 1
    finite_a = [v for v in a if not is_bottom(v)]
    if not finite_a:
        empty = [BOTTOM] * out_len
        return (empty, [-1] * out_len) if with_argmax else empty
    # Steep extension: strictly worse than any real candidate at equal index.
    big = (max(finite_a) - min(finite_a)) + (max(b) - min(b)) + 1

    def value(i: int, j: int):
        ii = i - 1
        jj = j - 1
        if jj > ii:
            return BOTTOM
        av = a[jj]
        if is_bottom(av):
            return BOTTOM
        x = ii - jj
        if x < m:
            return av + b[x]
        return av + b[m - 1] - (x - (m - 1)) * big

    bp = row_maxima(out_len, n, value)
    c = [BOTTOM] * out_len
    arg = [-1] * out_len
    for j in range(1, n + 1):
        lo, hi = bp[j - 1], bp[j] - 1
        jj = j - 1
        av = a[jj]
        if is_bottom(av):
            continue
        for i in range(lo, hi + 1):
            x = (i - 1) - jj
            if 0 <= x < m:
                c[i - 1] = av + b[x]
                arg[i - 1] = jj
    return (c, arg) if with_argmax else c


def batch_update_weight_class(
    table,
    weight: int,
    prefix_profits: list,
    new_half_size: int,
    direction: int,
):
    """Fold one weight class into a difference-indexed DP table.

    ``prefix_profits`` is [Q(0)=0, Q(1), ..., Q(cap)], the best total profit
    of taking x items of this class; its increments must be nonincreasing.
    For direction +1 the result is q'[z] = max over x of q[z - x*weight] +
    Q(x) (adding items moves the index up); direction -1 mirrors the index
    shift (removing items moves it down).  Returns a new table of the given
    half size.  Decomposes by residue class mod weight and runs one concave
    convolution per residue.
    """
    from .core import DpTable, dp_resize

    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    if prefix_profits[0] != 0:
        raise ValueError("prefix profits must start at 0")
    if len(prefix_profits) == 1:
        return dp_resize(table, new_half_size)

    out = DpTable(new_half_size, dtype=object if table.is_object else np.int64)
    L_in = table.half_size
    for residue in range(weight):
        zs = [z for z in range(-L_in, L_in + 1) if z % weight == residue]
        if not zs:
            continue
        if direction == +1:
            a = [table.get(z) for z in zs]
            base = zs[0]
        else:
            a = [table.get(z) for z in reversed(zs)]
            base = zs[-1]
        for k, v in enumerate(concave_maxplus_conv(a, prefix_profits)):
            if is_bottom(v):
                continue
            z_new = base + direction * k * weight
            if -new_half_size <= z_new <= new_half_size:
                out.set(z_new, v)
    return out
