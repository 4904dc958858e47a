"""Reference solvers: capacity-indexed DP and meet-in-the-middle search.

Both are oracles for the fast solver.  ``solve_bellman`` is the classic
capacity-indexed table, vectorized over capacities and banded: each item
updates only the capacities the answer dp[t] can still read (Toth 1980).
Runs of identical items are folded as binary chunks (Kellerer, Pferschy and
Pisinger 2004, ch. 7) in weight order, light chunks at both ends, so at
t = half the total weight it touches about n * t / 3 cells.  One plan
(``_plan``) gives each chunk its band; the fold runs those bands and the
cell budget counts them.  Its cells take the width ``core.fold_cells``
gives every table here, from its values' range [0, profit total] and its
largest chunk profit.  It refuses instances whose bands would pass an
explicit cell budget, or whose two rows would exceed ``TABLE_BYTE_BUDGET``,
before allocating either row.
``reduced_capacity_dp`` is ``solve_fast``'s ``verify`` check: it runs
that DP only on the items that an LP bound around ``core.LazyCore``'s
greedy break, held against the answer under test, cannot fix (Dembo and
Hammer 1980), or on all of them when its sign or W(G) <= t check fails.
It returns the exact optimum at every magnitude, whatever the answer.
Its cell budget and byte check apply to the DP each pass runs.
``solve_exhaustive`` is exact for up to 40 items and can also report a
witness subset, which the property tests use to validate solution
structure, not just values.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter

import numpy as np

from .core import (
    INT64_VALUE_CAP,
    Instance,
    LazyCore,
    _binary_copies,
    _columns,
    _integer,
    fold_cells,
    normalize,
)

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
    if inst.all_fit:
        return inst.total_profit
    return _capacity_dp(inst.weights, inst.profits, inst.capacity, cell_budget, stats)


def _capacity_dp(weights: np.ndarray, profits: np.ndarray, t: int, cell_budget, stats=None) -> int:
    """The best profit of the items in these columns with total weight at most ``t``.

    Each run of k identical (weight, profit) items is folded as 0-1 chunks
    of 1, 2, 4, ... copies plus the remainder (the binary reduction of a
    bounded item): every count 0..k is a sum of chunks and none past k is.
    A count m only uses chunks of at most m copies, so a chunk heavier than
    t is in no feasible count and is dropped; if the kept chunks all fit,
    their profit is the answer, with no row and no pass.  Otherwise
    ``_plan`` orders them and gives each its band, the cells it updates.

    The cost of the DP is the cells of those bands, at most n t, since there
    are at most n chunks and each band lies in [1, t].  They are checked
    against ``cell_budget`` (None for no limit), then the rows' bytes against
    ``TABLE_BYTE_BUDGET``, both after the O(n) chunk plan and before any row
    is allocated.  With ``stats`` the chunk passes go to ``fold_passes`` and
    the row, when one is built, to ``peak_table_cells``.

    The cells hold values in [0, profit total] and no bottom; one pass adds
    at most the largest kept chunk's profit, the ``drift`` the row layout is
    sized with (``core.fold_cells``), so each value v is stored as v plus
    the layout's origin.
    """
    chunks = _chunks(weights, profits, t)
    plan = _plan(chunks, t)
    cells = sum(hi - lo + 1 for _, _, lo, hi in plan)
    if cell_budget is not None and cells > cell_budget:
        raise BudgetExceededError(
            f"capacity DP needs {cells} band cells, over the budget of {cell_budget}"
        )
    if not plan:
        return sum(p for _, p in chunks)
    layout = fold_cells(0, int(profits.sum()), max(p for _, p in chunks), 0)
    check_table_bytes("table rows need", 2 * (t + 1) * layout.dtype.itemsize)
    if stats is not None:
        stats.note_table(t + 1, layout.dtype.itemsize)
        stats.fold_passes = len(plan)
    return _banded(plan, t, layout)


def _chunks(weights: np.ndarray, profits: np.ndarray, t: int) -> list[tuple[int, int]]:
    """The (weight, profit) binary chunks of the items' runs that fit ``t``."""
    chunks = []
    for (w, p), k in Counter(zip(weights.tolist(), profits.tolist())).items():
        chunks += [(c * w, c * p) for c in _binary_copies(k) if c * w <= t]
    return chunks


def _plan(chunks, t: int) -> list[tuple[int, int, int, int]]:
    """Each chunk's (weight, profit, lo, hi) in fold order, or [] when they all fit ``t``.

    The chunks go by weight with the light ones at both ends: ascending
    ranks go alternately to the front and the back.  Before chunk i, with W
    and P the weight and profit of the chunks before it and R the weight of
    the chunks after it, dp[c] is exact for c in [t - R - w_i, W]; above W
    every earlier chunk fits, so cells W + 1 to min(t, W + w_i) are first
    set to P.  Chunk i then updates only its band [lo, hi] = [max(w_i, t -
    R), min(t, W + w_i)] (Toth 1980): a cell below t - R cannot reach dp[t]
    through the remaining weight R, and a cell above W + w_i gains nothing
    from chunk i.  The band is never empty, since the chunks weigh more than
    t in total.  It is widest where W is near t, so the heavy chunks go
    there, where few of them cover the weight: with uniformly spread weights
    and t half the total weight the bands cover about n t / 3 cells, against
    n t / 2 in input order.
    """
    after = sum(w for w, _ in chunks)
    if after <= t:
        return []
    chunks = sorted(chunks)
    plan, below = [], 0
    for w, p in chunks[::2] + chunks[1::2][::-1]:
        after -= w
        plan.append((w, p, max(w, t - after), min(t, below + w)))
        below += w
    return plan


def _banded(plan, t: int, layout) -> int:
    """dp[t] after folding each chunk of ``plan`` over its band."""
    dp = np.full(t + 1, layout.origin, dtype=layout.dtype)
    tmp = np.empty(t + 1, dtype=layout.dtype)
    below, gained = 0, 0
    for w, p, lo, hi in plan:
        dp[below + 1 : hi + 1] = gained + layout.origin
        # temp copy keeps this a 0-1 update: sources predate the writes
        span = hi - lo + 1
        np.add(dp[lo - w : hi - w + 1], p, out=tmp[:span])
        np.maximum(dp[lo : hi + 1], tmp[:span], out=dp[lo : hi + 1])
        below += w
        gained += p
    return int(dp[t]) - layout.origin


def reduced_capacity_dp(inst: Instance, bound: int, cell_budget=DEFAULT_CELL_BUDGET) -> int:
    """The optimum of ``inst``, by the capacity DP over the items ``bound`` leaves free.

    ``solve_fast``'s ``verify`` check, with ``bound`` the answer under
    test.  It is the reduction of Dembo and Hammer (1980; Kellerer,
    Pferschy and Pisinger 2004, *Knapsack Problems*): fix every item
    whose flip away from the greedy solution provably costs more than the
    gap to the bound.

    Take the greedy prefix G in exact efficiency order, its break item b
    (the first item that does not fit) and the residual c = t - W(G), and
    let r_i = p_i w_b - p_b w_i.  The sign check asks, in exact integers,
    that r_i >= 0 on G and r_i <= 0 off it.  Then for every feasible 0-1
    solution x, since p_b / w_b >= 0 and W(x) <= t,

        w_b P(x) = sum_i r_i x_i + p_b W(x)
                 <= sum_i r_i x_i + p_b t
                 =  w_b P(G) + p_b c - sum over flipped i of |r_i|,

    where i is flipped when x_i differs from its greedy value (1 on G, 0
    off it): the sum of r_i over G is w_b P(G) - p_b W(G), an item
    flipped out of G takes its r_i >= 0 from that sum and one flipped in
    adds its r_i <= 0.  So a solution that flips an item with
    w_b P(G) + p_b c - |r_i| < bound * w_b is worth less than ``bound``.
    The reduction fixes every such item at its greedy value, and runs the
    banded DP on the free ones at capacity t - W(fixed items of G), adding
    the fixed items' profit.  Its result R is the value of a feasible
    solution, so R <= OPT.  When bound <= OPT, an optimal solution flips
    no fixed item and is among the solutions the DP searches, so R = OPT.
    When R < bound, therefore bound > OPT, and the reduction runs again
    with R as its bound, which is at most OPT: that run returns OPT.  Runs
    of identical items share r_i, so each run is fixed or free whole.

    G and b come from ``core.LazyCore``; the bound needs only the sign
    check and W(G) <= t (so every pass's capacity is >= 0), and when either
    fails the DP runs on all the items.  Each pass checks ``cell_budget``
    and the rows' bytes on the DP it is about to run, the free items' band
    cells at the reduced capacity, after the O(n) reduction and chunk plan
    and before any row.
    """
    if inst.all_fit:
        return inst.total_profit
    gaps = _exchange_gaps(inst)
    if gaps is None:
        return _capacity_dp(inst.weights, inst.profits, inst.capacity, cell_budget)
    best = _reduced(inst, gaps, bound, cell_budget)
    return best if best >= bound else _reduced(inst, gaps, best, cell_budget)


def _exchange_gaps(inst: Instance):
    """(G as a mask, each |r_i|, w_b P(G) + p_b c, w_b) of the reduction, or None.

    G and b are ``core.LazyCore``'s.  None when the sign check or W(G) <= t
    fails: a wrong G costs the reduction, never the answer.  The r_i are
    Python ints when a product could pass int64.
    """
    core = LazyCore(inst)
    weights, profits = inst.weights, inst.profits
    w_b, p_b = int(weights[core.break_item]), int(profits[core.break_item])
    if max(int(profits.max()) * w_b, p_b * inst.w_max) > INT64_VALUE_CAP:
        weights, profits = weights.astype(object), profits.astype(object)
    r, greedy = profits * w_b - weights * p_b, core.in_greedy
    if core.greedy_weight > inst.capacity or (r[greedy] < 0).any() or (r[~greedy] > 0).any():
        return None
    top = w_b * core.greedy_profit + p_b * (inst.capacity - core.greedy_weight)
    return greedy, np.abs(r), top, w_b


def _reduced(inst: Instance, gaps, bound: int, cell_budget) -> int:
    """The capacity DP with every item fixed whose flip costs more than ``bound`` allows."""
    greedy, gap, top, w_b = gaps
    # the largest gap already frees every item: clipping there keeps the gaps' dtype
    slack = max(-1, min(top - bound * w_b, int(gap.max())))
    free = gap <= slack
    fixed = greedy & ~free
    t = inst.capacity - int(inst.weights[fixed].sum())
    best = _capacity_dp(inst.weights[free], inst.profits[free], t, cell_budget)
    return int(inst.profits[fixed].sum()) + best


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
