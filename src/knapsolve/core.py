"""Core types and operations for weight-parameterized 0-1 knapsack solving.

An instance is a list of items (weight, profit) and a capacity.  The solvers
in this package work on a normalized view of the instance: items that cannot
fit are dropped and trivially-feasible instances are answered directly.  The
hint-propagating engine further perturbs hard instances so that all item
efficiencies and profits are pairwise distinct; the perturbation is
invertible on totals, so optimal profits of the original instance can be
recovered exactly.  Every other path orders the original items by exact
efficiency, ties by index.

This module also provides the greedy prefix split (the solution all exchange
arguments are phrased against), per-weight-class rank orders, the signed
difference-indexed DP table the reference batch update works on, and the
cell-width rule every solver's tables follow.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# Absorbing "no solution" profit value.  Finite profits are plain ints;
# float("-inf") compares below and adds absorbingly with any int.
BOTTOM = float("-inf")

# Sentinel used inside int64 numpy tables.  Real table values are guarded to
# stay below |2^60|, so anything under NEG_THRESHOLD is recognized as bottom
# even after a bounded amount of additive drift.
NEG_SENTINEL = -(1 << 62)
NEG_THRESHOLD = -(1 << 61)

# Largest magnitude a finite table value may reach for the int64 engine.
INT64_VALUE_CAP = 1 << 59

# Profit totals at or below this fit the int32 table engines, with the same
# proportional headroom between finite values and drifted sentinels.
INT32_VALUE_CAP = 1 << 27


def is_bottom(value) -> bool:
    return value == BOTTOM


def cell_dtype(total_profit: int):
    """Narrowest table cell type for values of magnitude up to ``total_profit``.

    int32 and int64 keep proportional headroom for drifted bottom sentinels;
    past int64 range cells are Python ints in an object array.
    """
    if total_profit > INT64_VALUE_CAP:
        return object
    if total_profit <= INT32_VALUE_CAP:
        return np.int32
    return np.int64


class Item(NamedTuple):
    weight: int
    profit: int


@dataclass(frozen=True)
class Instance:
    """A normalized 0-1 knapsack instance.

    ``all_fit`` marks instances whose kept items all fit simultaneously; for
    those ``total_profit`` is already the optimal answer.  ``tie_break_m`` is
    the modulus M that ``break_ties`` perturbed the profits with, and 0 on an
    unperturbed instance.
    """

    items: tuple[Item, ...]
    capacity: int
    w_max: int
    all_fit: bool
    total_profit: int
    tie_break_m: int = 0

    @property
    def n(self) -> int:
        return len(self.items)


def _integer(value, what: str) -> int:
    """``value`` as a plain int; bools, floats and other non-integers are refused."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def normalize(raw_items: Iterable[tuple[int, int]], capacity: int) -> Instance:
    """Validate and normalize raw (weight, profit) pairs.

    Items heavier than the capacity are dropped (they appear in no feasible
    solution).  If the kept items all fit together, the instance is flagged
    trivial with its answer precomputed.  Weights, profits and the capacity
    must be integers (Python or numpy; not bool); weights and profits must
    be >= 1 and the capacity >= 0.
    """
    capacity = _integer(capacity, "capacity")
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    kept = []
    for w, p in raw_items:
        if type(w) is not int:
            w = _integer(w, "item weight")
        if type(p) is not int:
            p = _integer(p, "item profit")
        if w < 1 or p < 1:
            raise ValueError("item weights and profits must be >= 1")
        if w <= capacity:
            kept.append(Item(w, p))
    total_w = sum(it.weight for it in kept)
    total_p = sum(it.profit for it in kept)
    w_max = max((it.weight for it in kept), default=0)
    all_fit = total_w <= capacity
    return Instance(
        items=tuple(kept),
        capacity=capacity,
        w_max=w_max,
        all_fit=all_fit,
        total_profit=total_p if all_fit else 0,
    )


def break_ties(inst: Instance) -> Instance:
    """Perturb profits so efficiencies and profits are pairwise distinct.

    With n items and modulus M = 1 + n + sum(1..n), item i (1-based) gets

        p'_i = (p_i * M + i) * w_max + 1.

    All p'_i are distinct, all p'_i / w_i are distinct, and the original total
    of any subset S is floor(sum of primed profits / (M * w_max)); see
    ``recover_profit``.  Optimal subsets of the perturbed instance are optimal
    for the original one.
    """
    if inst.all_fit:
        raise ValueError("trivial instance needs no tie-breaking")
    n = inst.n
    m = 1 + n + n * (n + 1) // 2
    ww = inst.w_max
    primed = tuple(
        Item(it.weight, (it.profit * m + i) * ww + 1)
        for i, it in enumerate(inst.items, start=1)
    )
    return Instance(
        items=primed,
        capacity=inst.capacity,
        w_max=ww,
        all_fit=False,
        total_profit=0,
        tie_break_m=m,
    )


def recover_profit(primed_total, tie_break_m: int, w_max: int):
    """Map a total of perturbed profits back to the original total."""
    if is_bottom(primed_total):
        return BOTTOM
    return primed_total // (tie_break_m * w_max)


@dataclass
class GreedySplit:
    """Greedy prefix of the efficiency order, with per-weight-class ranks.

    ``order`` lists item indices by decreasing efficiency, ties by ascending
    index.  The greedy solution G is the maximal prefix of that order
    fitting in the capacity; ``break_index`` is its length.  Within each
    weight class, items outside G are ranked 1, 2, ... by decreasing profit
    (best first to add) and items inside G are ranked 1, 2, ... by
    increasing profit (cheapest first to remove), ties by ascending index.
    Only the 2 * w_max best ranks per class and side are materialized: no
    optimal exchange uses deeper ranks.
    """

    order: list[int]
    break_index: int
    in_greedy: list[bool]
    rank: list[int]
    greedy_weight: int
    greedy_profit: int
    # weight -> item indices in rank order (capped at 2 * w_max entries)
    add_candidates: dict[int, list[int]] = field(default_factory=dict)
    remove_candidates: dict[int, list[int]] = field(default_factory=dict)


def greedy_split(inst: Instance) -> GreedySplit:
    """Compute the greedy prefix solution and rank tables.

    Requires a nontrivial instance, so the break index lands strictly inside
    the item order.  Ties are broken by index: the stable sorts put equal
    efficiencies, and equal profits within a weight class, in ascending
    index order.  Any greedy order with ties broken consistently supports
    the exchange argument, so no perturbation is needed; a ``break_ties``
    instance has no ties to break.
    """
    if inst.all_fit:
        raise ValueError("greedy split undefined for trivial instances")
    items = inst.items
    # exact integer efficiency keys: two distinct ratios p/w differ by at
    # least 1 / w_max^2, so floor(p * w_max^2 / w) keeps their order, and
    # equal ratios get equal keys
    scale = inst.w_max * inst.w_max
    keys = [it.profit * scale // it.weight for it in items]
    order = sorted(range(len(items)), key=keys.__getitem__, reverse=True)

    in_greedy = [False] * len(items)
    weight_used = 0
    profit_used = 0
    break_index = 0
    for pos, idx in enumerate(order):
        w = items[idx].weight
        if weight_used + w > inst.capacity:
            break_index = pos
            break
        weight_used += w
        profit_used += items[idx].profit
        in_greedy[idx] = True
    else:
        raise AssertionError("normalized nontrivial instance must overflow")

    cap = 2 * inst.w_max
    rank = [0] * len(items)
    by_weight_out: dict[int, list[int]] = {}
    by_weight_in: dict[int, list[int]] = {}
    for idx, it in enumerate(items):
        side = by_weight_in if in_greedy[idx] else by_weight_out
        side.setdefault(it.weight, []).append(idx)

    add_candidates = {}
    for w, members in by_weight_out.items():
        members.sort(key=lambda i: items[i].profit, reverse=True)
        for r, idx in enumerate(members, start=1):
            rank[idx] = r
        add_candidates[w] = members[:cap]
    remove_candidates = {}
    for w, members in by_weight_in.items():
        members.sort(key=lambda i: items[i].profit)
        for r, idx in enumerate(members, start=1):
            rank[idx] = r
        remove_candidates[w] = members[:cap]

    return GreedySplit(
        order=order,
        break_index=break_index,
        in_greedy=in_greedy,
        rank=rank,
        greedy_weight=weight_used,
        greedy_profit=profit_used,
        add_candidates=add_candidates,
        remove_candidates=remove_candidates,
    )


class DpTable:
    """Profit table indexed by signed weight difference z in [-L, L].

    Entry z holds the best known profit delta of a partial exchange solution
    whose added-minus-removed weight equals z, or bottom when no such partial
    solution is known.  Values live in an int64 numpy array with a large
    negative sentinel for bottom; instances whose profits could overflow
    int64 use an object array holding plain ints and float("-inf").
    """

    __slots__ = ("half_size", "values")

    def __init__(self, half_size: int, dtype=np.int64):
        if half_size < 0:
            raise ValueError("half_size must be >= 0")
        self.half_size = half_size
        if dtype == np.int64:
            self.values = np.full(2 * half_size + 1, NEG_SENTINEL, dtype=np.int64)
        else:
            self.values = np.full(2 * half_size + 1, BOTTOM, dtype=object)

    @property
    def is_object(self) -> bool:
        return self.values.dtype == object

    def _slot(self, z: int) -> int:
        if not -self.half_size <= z <= self.half_size:
            raise IndexError(f"index {z} outside [-{self.half_size}, {self.half_size}]")
        return z + self.half_size

    def get(self, z: int):
        v = self.values[self._slot(z)]
        if self.is_object:
            return v
        v = int(v)
        return BOTTOM if v < NEG_THRESHOLD else v

    def set(self, z: int, value) -> None:
        slot = self._slot(z)
        if is_bottom(value):
            self.values[slot] = BOTTOM if self.is_object else NEG_SENTINEL
        else:
            self.values[slot] = value

    def indices(self):
        return range(-self.half_size, self.half_size + 1)

    def finite_items(self):
        for z in self.indices():
            v = self.get(z)
            if not is_bottom(v):
                yield z, v


def dp_resize(table: DpTable, new_half_size: int) -> DpTable:
    """Grow (pad with bottom) or shrink (drop out-of-range entries) a table."""
    out = DpTable(new_half_size, dtype=object if table.is_object else np.int64)
    lo = -min(table.half_size, new_half_size)
    hi = min(table.half_size, new_half_size)
    src = slice(lo + table.half_size, hi + table.half_size + 1)
    dst = slice(lo + new_half_size, hi + new_half_size + 1)
    out.values[dst] = table.values[src]
    return out
