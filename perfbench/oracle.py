"""Exact reference answers for the benchmark, computed outside timed regions.

Two oracles, chosen per instance by cost:

``bellman``
    ``knapsolve.solve_bellman``, the textbook capacity DP.  It shares only
    ``normalize`` with the solvers under test.  Used whenever its table of
    n * (t + 1) cells is at most ``BELLMAN_CELL_LIMIT``.

``proximity-dp``
    A capacity DP written here, with no code from the package.  It relies on
    the proximity theorem for 0-1 knapsack: some optimal solution differs from
    the greedy prefix solution in at most 2 * w_max items.  Within one weight
    class an exchange moves the best items, so only the 2 * w_max
    lowest-profit greedy items and the 2 * w_max highest-profit other items
    of each class can change sides, and the removed weight is at most
    2 * w_max^2.  Two small capacity DPs over those candidates (weight
    removed, weight added) give the exact optimum.  For n = 2^17, w = 64 this
    is about 1e8 cell updates, where the full capacity DP needs 2.8e11.
"""

from __future__ import annotations

import numpy as np

from knapsolve import solve_bellman

BELLMAN_CELL_LIMIT = 10_000_000_000

# Unreachable cells of the int64 side tables start at _UNREACHED; adding
# profits lets them drift upward, but never past _REACHED.
_UNREACHED = -(1 << 62)
_REACHED = -(1 << 61)


def bellman_cells(items, capacity: int) -> int:
    kept = sum(1 for w, _ in items if w <= capacity)
    return kept * (capacity + 1)


def reference_answer(items, capacity: int):
    """Return (answer, oracle name) for one instance."""
    if bellman_cells(items, capacity) <= BELLMAN_CELL_LIMIT:
        return solve_bellman(items, capacity, cell_budget=None), "bellman"
    return proximity_dp(items, capacity), "proximity-dp"


def _side_table(weights, profits, limit: int):
    """best[r] = largest profit of a subset of exactly weight r, r <= limit."""
    best = np.full(limit + 1, _UNREACHED, dtype=np.int64)
    best[0] = 0
    tmp = np.empty(limit + 1, dtype=np.int64)
    for w, p in zip(weights.tolist(), profits.tolist()):
        if w > limit:
            continue
        head = limit + 1 - w
        np.add(best[:head], p, out=tmp[:head])
        np.maximum(best[w:], tmp[:head], out=best[w:])
    return best


def proximity_dp(items, capacity: int) -> int:
    """Optimal profit by greedy plus a proximity-bounded exchange DP."""
    w = np.array([it[0] for it in items], dtype=np.int64)
    p = np.array([it[1] for it in items], dtype=np.int64)
    if len(w) == 0:
        return 0
    if w.min() < 1 or p.min() < 1 or capacity < 0:
        raise ValueError("weights and profits must be >= 1, capacity >= 0")
    keep = w <= capacity
    w, p = w[keep], p[keep]
    if int(w.sum()) <= capacity:
        return int(p.sum())
    w_max = int(w.max())
    p_max = int(p.max())
    # p / w as float64 orders exactly when distinct ratios differ by more
    # than twice the rounding error: 1 / w_max^2 > 2 * 2^-53 * p_max
    if p_max * w_max * w_max >= 1 << 51:
        raise ValueError("profit and weight range too wide for float ordering")
    order = np.argsort(-(p / w), kind="stable")
    prefix = np.cumsum(w[order])
    brk = int(np.searchsorted(prefix, capacity, side="right"))
    in_greedy = np.zeros(len(w), dtype=bool)
    in_greedy[order[:brk]] = True
    greedy_weight = int(prefix[brk - 1]) if brk else 0
    greedy_profit = int(p[in_greedy].sum())
    slack = capacity - greedy_weight

    cap = 2 * w_max
    removable = _top_per_class(w, p, in_greedy, cap, lowest=True)
    addable = _top_per_class(w, p, ~in_greedy, cap, lowest=False)
    reach = cap * w_max
    r_limit = min(reach, int(w[removable].sum()))
    a_limit = min(reach + slack, int(w[addable].sum()))
    # lost[r]: least profit given up removing weight exactly r
    lost = -_side_table(w[removable], -p[removable], r_limit)
    gain = _side_table(w[addable], p[addable], a_limit)
    never = np.iinfo(np.int64).max
    lost[lost > -_REACHED] = never
    # cheapest removal of weight >= r, for every r
    least_from = np.minimum.accumulate(lost[::-1])[::-1]
    need = np.maximum(np.arange(a_limit + 1) - slack, 0)
    ok = (gain > _REACHED) & (need <= r_limit)
    cost = least_from[need[ok]]
    ok_cost = cost != never
    best = int((gain[ok][ok_cost] - cost[ok_cost]).max())
    return greedy_profit + best


def _top_per_class(w, p, mask, cap: int, lowest: bool):
    """Indices of the cap lowest- (or highest-) profit masked items per weight."""
    idx = np.flatnonzero(mask)
    key = p[idx] if lowest else -p[idx]
    idx = idx[np.lexsort((key, w[idx]))]
    cls = w[idx]
    starts = np.flatnonzero(np.r_[True, cls[1:] != cls[:-1]])
    rank = np.arange(len(idx)) - np.repeat(starts, np.diff(np.r_[starts, len(idx)]))
    return idx[rank < cap]
