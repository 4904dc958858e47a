"""Reference solvers: capacity-indexed DP and meet-in-the-middle search.

Both are oracles for the fast solver.  ``solve_bellman`` is the classic
capacity-indexed table, vectorized over capacities and banded: each item
updates only the capacities the answer dp[t] can still read (Toth 1980).
Runs of identical items are folded as binary chunks (Kellerer, Pferschy and
Pisinger 2004, ch. 7) in weight order, light chunks at both ends, so at
t = half the total weight it touches about n * t / 3 cells.  Its cells
take the narrowest integer width their profit total fits.  It refuses
instances whose n * (t + 1) table would exceed an explicit cell budget, or
whose two rows would exceed ``TABLE_BYTE_BUDGET``, instead of thrashing.
``solve_exhaustive`` is exact for up to 40 items and can also report a
witness subset, which the property tests use to validate solution
structure, not just values.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter

import numpy as np

from .core import Instance, _columns, _integer, normalize

DEFAULT_CELL_BUDGET = 600_000_000_000
# bytes one solver table may take: the capacity DP's two rows, or a fold
# table.  A short instance with a huge capacity passes the cell budget with
# rows far larger than memory, and a fold table may grow to 4 w_max^2 cells
TABLE_BYTE_BUDGET = 2 << 30


class BudgetExceededError(RuntimeError):
    """The requested computation is larger than the caller allowed."""


def check_table_bytes(what: str, nbytes: int) -> None:
    """Refuse a table of ``nbytes`` bytes past ``TABLE_BYTE_BUDGET``, before it is allocated."""
    if nbytes > TABLE_BYTE_BUDGET:
        raise BudgetExceededError(
            f"{what} {nbytes} bytes, over the budget of {TABLE_BYTE_BUDGET}"
        )


def solve_bellman(raw_items, capacity, cell_budget=DEFAULT_CELL_BUDGET, stats=None):
    """Maximum profit by the textbook capacity DP, one numpy pass per item."""
    inst = normalize(raw_items, capacity)
    if stats is not None:
        stats.engine = "trivial" if inst.all_fit else "bellman"
    return _capacity_dp(inst, cell_budget, stats)


def _capacity_dp(inst: Instance, cell_budget=DEFAULT_CELL_BUDGET, stats=None):
    """``solve_bellman`` on an instance ``normalize`` already built.

    Each run of k identical (weight, profit) items is folded as 0-1 chunks
    of 1, 2, 4, ... copies plus the remainder (the binary reduction of a
    bounded item): every count 0..k is a sum of chunks and none past k is.
    A count m only uses chunks of at most m copies, so a chunk heavier than
    t is in no feasible count and is dropped; if the kept chunks all fit,
    their profit is the answer.  The chunks are then ordered by weight with
    the light ones at both ends: ascending ranks go alternately to the
    front and the back.

    Before chunk i, with W and P the weight and profit of the chunks before
    it and R the weight of the chunks after it, dp[c] is exact for c in
    [t - R - w_i, W]; above W every earlier chunk fits, so cells W + 1 to
    min(t, W + w_i) are first set to P.  Chunk i then updates only
    [max(w_i, t - R), min(t, W + w_i)]: a cell below t - R cannot reach
    dp[t] through the remaining weight R, and a cell above W + w_i gains
    nothing from chunk i.  The band is never empty, since the kept chunks
    weigh more than t in total.  It is widest where W is near t, so the
    heavy chunks go there, where few of them cover the weight: with
    uniformly spread weights and t half the total weight the band covers
    about n * t / 3 cells, against n * t / 2 in input order.  With
    ``stats`` the chunk passes go to ``fold_passes``.
    """
    if inst.all_fit:
        return inst.total_profit
    t = inst.capacity
    cells = inst.n * (t + 1)
    if cell_budget is not None and cells > cell_budget:
        raise BudgetExceededError(
            f"table needs {cells} cells, over the budget of {cell_budget}"
        )
    dtype = _dp_cell_dtype(int(inst.profits.sum()))
    check_table_bytes("table rows need", 2 * (t + 1) * np.dtype(dtype).itemsize)
    if stats is not None:
        stats.note_table(t + 1)
    chunks = []
    for (w, p), k in Counter(zip(inst.weights.tolist(), inst.profits.tolist())).items():
        c = 1
        while k:
            c = min(c, k)
            if c * w <= t:
                chunks.append((c * w, c * p))
            k -= c
            c *= 2
    chunks.sort()
    chunks = chunks[::2] + chunks[1::2][::-1]
    if stats is not None:
        stats.fold_passes = len(chunks)
    after = sum(w for w, _ in chunks)
    if after <= t:
        return sum(p for _, p in chunks)
    dp = np.zeros(t + 1, dtype=dtype)
    tmp = np.empty(t + 1, dtype=dtype)
    below, gained = 0, 0
    for w, p in chunks:
        after -= w
        lo = max(w, t - after)
        hi = min(t, below + w)
        dp[below + 1 : hi + 1] = gained
        # temp copy keeps this a 0-1 update: sources predate the writes
        span = hi - lo + 1
        np.add(dp[lo - w : hi - w + 1], p, out=tmp[:span])
        np.maximum(dp[lo : hi + 1], tmp[:span], out=dp[lo : hi + 1])
        below += w
        gained += p
    return int(dp[t])


def _dp_cell_dtype(total_profit: int):
    """Narrowest cell type for the capacity DP, whose cells lie in [0, total_profit].

    Unlike the fold tables (``core.cell_dtype``) it keeps no bottom
    sentinels, so each integer width may run up to its own maximum.
    """
    if total_profit <= np.iinfo(np.int16).max:
        return np.int16
    if total_profit <= np.iinfo(np.int32).max:
        return np.int32
    if total_profit <= np.iinfo(np.int64).max:
        return np.int64
    return object


def _half_profiles(items, capacity):
    """All (weight, profit, index mask) triples of one half, weight-feasible."""
    out = [(0, 0, 0)]
    for pos, (w, p, bit) in enumerate(items):
        out += [(tw + w, tp + p, m | bit) for tw, tp, m in out if tw + w <= capacity]
    return out


def solve_exhaustive(raw_items, capacity, with_subset=False):
    """Exact answer by meet-in-the-middle; items are limited to 40.

    With ``with_subset`` the return value is (profit, frozenset of indices
    into raw_items); ties resolve deterministically toward the subset found
    first in enumeration order.  Inputs follow ``normalize``'s rules:
    integers only (not bool), weights and profits >= 1, capacity >= 0.
    """
    capacity = _integer(capacity, "capacity")
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    items = [
        (_integer(w, "item weight"), _integer(p, "item profit"))
        for w, p in zip(*_columns(raw_items))
    ]
    n = len(items)
    if n > 40:
        raise BudgetExceededError("exhaustive solver accepts at most 40 items")
    for w, p in items:
        if w < 1 or p < 1:
            raise ValueError("item weights and profits must be >= 1")
    tagged = [(w, p, 1 << i) for i, (w, p) in enumerate(items)]
    left = _half_profiles(tagged[: n // 2], capacity)
    right = _half_profiles(tagged[n // 2 :], capacity)

    right.sort(key=lambda e: (e[0], -e[1]))
    r_weights = [e[0] for e in right]
    best_p = []
    best_m = []
    cur_p, cur_m = -1, 0
    for _, p, m in right:
        if p > cur_p:
            cur_p, cur_m = p, m
        best_p.append(cur_p)
        best_m.append(cur_m)

    # both halves hold the empty subset at weight 0 and every left weight is
    # at most the capacity, so pos >= 0 and top ends >= 0
    top = -1
    top_mask = 0
    for w, p, m in left:
        pos = bisect_right(r_weights, capacity - w) - 1
        cand = p + best_p[pos]
        if cand > top:
            top = cand
            top_mask = m | best_m[pos]
    if not with_subset:
        return top
    chosen = frozenset(i for i in range(n) if top_mask >> i & 1)
    return top, chosen
