"""Core types and operations for weight-parameterized 0-1 knapsack solving.

An instance is a list of items (weight, profit) and a capacity.  The solvers
in this package work on a normalized view of the instance: items that cannot
fit are dropped and trivially-feasible instances are answered directly.  The
normalized instance holds weights and profits as two 1-D numpy arrays, int64
while their totals fit ``INT64_VALUE_CAP`` and Python ints in object arrays
past it (the rule ``cell_dtype`` applies to fold tables), so preprocessing
is a few array passes with no per-item Python objects.  The hint-propagating
engine further perturbs hard instances so that all item efficiencies and
profits are pairwise distinct; the perturbation is invertible on totals, so
optimal profits of the original instance can be recovered exactly.  Every
other path orders the original items by exact efficiency, ties by index.

This module also provides the greedy prefix split (the solution all exchange
arguments are phrased against), per-weight-class rank orders, and the
cell-width rule the fold tables follow.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple

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


def _fitted(values: np.ndarray) -> np.ndarray:
    """``values`` as int64 if their total is at most INT64_VALUE_CAP, else as Python ints.

    Under that cap every prefix sum of the array is exact in int64; the
    object array holds the same values as Python ints.  The result is
    read-only, since ``Instance`` derives ``items`` from it.
    """
    if values.dtype != object and (
        not values.size or int(values.max()) * values.size <= INT64_VALUE_CAP
    ):
        out = values.astype(np.int64, copy=False)
    else:
        out = values.astype(object)
        if sum(out.tolist()) <= INT64_VALUE_CAP:
            out = out.astype(np.int64)
    out.flags.writeable = False
    return out


class Item(NamedTuple):
    weight: int
    profit: int


@dataclass(frozen=True, eq=False)
class Instance:
    """A normalized 0-1 knapsack instance.

    ``weights`` and ``profits`` are read-only 1-D arrays indexed by item.
    Each is int64 when its total is at most ``INT64_VALUE_CAP`` and holds
    Python ints (dtype object) otherwise, so huge profits and ``break_ties``
    instances run through the same array code.  ``items`` is the same data
    as a tuple of ``Item``s, built on first access; the solver paths read
    the arrays.  ``all_fit`` marks instances whose kept items all fit
    simultaneously; for those ``total_profit`` is already the optimal
    answer.  ``tie_break_m`` is the modulus M that ``break_ties`` perturbed
    the profits with, and 0 on an unperturbed instance.
    """

    weights: np.ndarray
    profits: np.ndarray
    capacity: int
    w_max: int
    all_fit: bool
    total_profit: int
    tie_break_m: int = 0

    @property
    def n(self) -> int:
        return len(self.weights)

    @cached_property
    def items(self) -> tuple[Item, ...]:
        return tuple(map(Item, self.weights.tolist(), self.profits.tolist()))


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
    be >= 1 and the capacity >= 0.  ``raw_items`` may also be an (n, 2)
    integer array.

    Every value is checked before any conversion, because converting to
    int64 would silently truncate 2.9 to 2 and turn True into 1: when the
    values are not all plain ints, each one goes through ``_integer``.
    """
    capacity = _integer(capacity, "capacity")
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    pairs = raw_items if isinstance(raw_items, (list, tuple)) else list(raw_items)
    if set(map(len, pairs)) - {2}:
        raise ValueError("items must be (weight, profit) pairs")
    flat = list(chain.from_iterable(pairs))
    if not set(map(type, flat)) <= {int}:
        whats = ("item weight", "item profit")
        flat = [_integer(v, whats[k & 1]) for k, v in enumerate(flat)]
    try:
        values = np.fromiter(flat, np.int64, len(flat))
    except OverflowError:
        values = np.array(flat, dtype=object)
    values = values.reshape(-1, 2)
    if values.size and values.min() < 1:
        raise ValueError("item weights and profits must be >= 1")
    keep = values[:, 0] <= capacity
    weights = _fitted(values[keep, 0])
    profits = _fitted(values[keep, 1])
    all_fit = weights.sum() <= capacity
    return Instance(
        weights=weights,
        profits=profits,
        capacity=capacity,
        w_max=int(weights.max()) if weights.size else 0,
        all_fit=bool(all_fit),
        total_profit=int(profits.sum()) if all_fit else 0,
    )


def break_ties(inst: Instance) -> Instance:
    """Perturb profits so efficiencies and profits are pairwise distinct.

    With n items and modulus M = 1 + n + sum(1..n), item i (1-based) gets

        p'_i = (p_i * M + i) * w_max + 1.

    All p'_i are distinct, all p'_i / w_i are distinct, and the original total
    of any subset S is floor(sum of primed profits / (M * w_max)); see
    ``recover_profit``.  Optimal subsets of the perturbed instance are optimal
    for the original one.  The primed profits are computed as Python ints
    and stored by the same dtype rule as ``normalize``'s.
    """
    if inst.all_fit:
        raise ValueError("trivial instance needs no tie-breaking")
    n = inst.n
    m = 1 + n + n * (n + 1) // 2
    ww = inst.w_max
    index = np.arange(1, n + 1, dtype=object)
    return Instance(
        weights=inst.weights,
        profits=_fitted((inst.profits.astype(object) * m + index) * ww + 1),
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

    ``order`` is an index array listing items by decreasing efficiency, ties
    by ascending index.  The greedy solution G is the maximal prefix of that
    order fitting in the capacity; ``break_index`` is its length and
    ``in_greedy`` the boolean membership array.  Within each weight class,
    items outside G are ranked 1, 2, ... by decreasing profit (best first to
    add) and items inside G are ranked 1, 2, ... by increasing profit
    (cheapest first to remove), ties by ascending index.  The candidate
    dicts, keyed in ascending weight, list each class's item indices in that
    rank order as plain lists.  Only the 2 * w_max best ranks per class and
    side are materialized: no optimal exchange uses deeper ranks.
    """

    order: np.ndarray
    break_index: int
    in_greedy: np.ndarray
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
    weights, profits = inst.weights, inst.profits
    n = inst.n
    # exact integer efficiency keys: two distinct ratios p/w differ by at
    # least 1 / w_max^2, so floor(p * w_max^2 / w) keeps their order, and
    # equal ratios get equal keys; past int64 range they are Python ints
    scale = inst.w_max * inst.w_max
    key_type = object if int(profits.max()) * scale > INT64_VALUE_CAP else np.int64
    keys = profits.astype(key_type) * scale // weights.astype(key_type)
    order = np.argsort(-keys, kind="stable")

    # the break is the first prefix that overflows; one exists, since the
    # kept items do not all fit
    prefix = np.cumsum(weights[order])
    break_index = int(np.searchsorted(prefix, inst.capacity, side="right"))
    if break_index == n:
        raise AssertionError("normalized nontrivial instance must overflow")
    in_greedy = np.zeros(n, dtype=bool)
    in_greedy[order[:break_index]] = True

    # one stable sort groups items by class = (weight, side) and ranks each
    # class: outside G by decreasing profit, inside G by increasing profit
    signed = np.where(in_greedy, profits, -profits)
    classes = weights * 2 + in_greedy
    by_class = np.lexsort((signed, classes))
    sorted_classes = classes[by_class]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_classes[1:] != sorted_classes[:-1]))
    )
    sizes = np.diff(np.append(starts, n))

    cap = 2 * inst.w_max
    add_candidates = {}
    remove_candidates = {}
    for start, size, c in zip(starts.tolist(), sizes.tolist(), sorted_classes[starts].tolist()):
        side = remove_candidates if c & 1 else add_candidates
        side[c >> 1] = by_class[start : start + min(size, cap)].tolist()

    return GreedySplit(
        order=order,
        break_index=break_index,
        in_greedy=in_greedy,
        greedy_weight=int(prefix[break_index - 1]) if break_index else 0,
        greedy_profit=int(profits[order[:break_index]].sum()),
        add_candidates=add_candidates,
        remove_candidates=remove_candidates,
    )

