"""Core types and operations for weight-parameterized 0-1 knapsack solving.

An instance is a list of items (weight, profit) and a capacity.  The solvers
in this package work on a normalized view of the instance: items that cannot
fit are dropped and trivially-feasible instances are answered directly.  The
normalized instance holds weights and profits as two 1-D numpy arrays, int64
while their totals fit ``INT64_VALUE_CAP`` and Python ints in object arrays
past it (the bound ``cell_dtype`` applies to table cells), so preprocessing
is a few array passes with no per-item Python objects.  The hint-propagating
engine further perturbs hard instances so that all item efficiencies and
profits are pairwise distinct; the perturbation is invertible on totals, so
optimal profits of the original instance can be recovered exactly.  Every
other path orders the original items by exact efficiency, ties by index.

This module also provides the greedy prefix split (the solution all exchange
arguments are phrased against), per-weight-class rank orders, and the one
cell-width rule every table follows (``fold_cells``): the capacity DP, the
core fold, proximity and the hinted engine's hand-off table each pass the
bounds of their own values and get shifted int16 or int32 cells where those
fit, and ``cell_dtype`` of the values' magnitude past that.  The split
is ``LazyCore``: it finds the break by weighted selection on integer
efficiency keys, in O(n), and sorts each side of the break one key band at
a time, only as far as the core fold reads it.  Each side ranks its items
in the order its walk meets them, so a per-weight counter picks the
candidates.  ``greedy_split`` is the same core read to its end.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Mapping, Set
from dataclasses import dataclass, field
from functools import cached_property
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
    """Unshifted cell type for values, drifts and steps of magnitude up to ``total_profit``.

    int32 and int64 keep proportional headroom for drifted bottom sentinels;
    past int64 range cells are Python ints in an object array.  A value is
    stored as itself.  In the package only ``fold_cells`` calls it, as its
    fallback past int32.
    """
    if total_profit > INT64_VALUE_CAP:
        return object
    if total_profit <= INT32_VALUE_CAP:
        return np.int32
    return np.int64


class FoldCells(NamedTuple):
    """A table's cell type and layout.

    A finite value v is stored as v + ``origin``; bottom is written as
    ``sentinel`` and read as any cell at or below ``threshold``, which
    leaves room for drift.
    """

    dtype: np.dtype
    sentinel: int
    threshold: int
    origin: int


# the unshifted layouts of cell_dtype's widths: int32 cells (magnitudes
# within INT32_VALUE_CAP) keep the same proportional headroom as int64
_UNSHIFTED = {
    np.dtype(np.int32): FoldCells(np.dtype(np.int32), -(1 << 30), -(1 << 29), 0),
    np.dtype(np.int64): FoldCells(np.dtype(np.int64), NEG_SENTINEL, NEG_THRESHOLD, 0),
    np.dtype(object): FoldCells(np.dtype(object), BOTTOM, BOTTOM, 0),
}

# the types fold_cells shifts, narrowest first, with their widths in bits
_SHIFTED = ((np.dtype(np.int16), 16), (np.dtype(np.int32), 32))


def fold_cells(low: int, high: int, drift: int, step: int) -> FoldCells:
    """The narrowest cells for a table whose finite values lie in [low, high].

    ``low`` <= 0 <= ``high`` bound every finite value a pass reads or
    writes; ``drift`` bounds how far a bottom can climb, the add-side profit
    folded onto it; ``step`` is the largest |gain| of one remove-side pass.
    The callers keep drift <= high and step <= -low.  The layout puts the
    sentinel ``step`` above the type's minimum, so a remove pass lowers a
    bottom no further than the minimum, and in-place maximum keeps every
    written cell at or above the sentinel.  Bottoms then climb to at most
    threshold = sentinel + drift, and with origin = threshold + 1 - low
    every finite value is stored in [threshold + 1, threshold + 1 + high -
    low].  So int16 holds the table when step + drift + (high - low) + 1 <=
    2^16 - 1 and int32 when that sum is at most 2^32 - 1; every gain, at
    most max(drift, step), fits the type.  Past that the cells are
    ``cell_dtype(max(high, -low))`` with origin 0: under the callers' bounds
    that magnitude bounds every value, drift and step.
    """
    need = step + drift + (high - low) + 1
    for dtype, bits in _SHIFTED:
        if need < 1 << bits:
            sentinel = step - (1 << bits - 1)
            threshold = sentinel + drift
            return FoldCells(dtype, sentinel, threshold, threshold + 1 - low)
    return _UNSHIFTED[np.dtype(cell_dtype(max(high, -low)))]


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


def _int64_values(column: list) -> np.ndarray | None:
    """``column`` as int64 in one strict conversion, or None when in any doubt.

    ``array("q")`` takes ints and ``__index__`` objects only: it refuses
    floats, ``Fraction``, ``Decimal`` and ``np.bool_`` with ``TypeError``
    and values past int64 with ``OverflowError``.  Bools get through as 0
    and 1, so a value <= 1 must come from a plain int.  On None the caller
    checks each value, which gives every refusal its message.
    """
    try:
        values = np.frombuffer(array("q", column), dtype=np.int64)
    except (TypeError, OverflowError):
        return None
    small = np.flatnonzero(values <= 1).tolist()
    if not set(map(type, map(column.__getitem__, small))) <= {int}:
        return None
    return values


def _exact_values(column: list) -> np.ndarray:
    """Checked Python ints as int64, or as an object array past int64 range."""
    try:
        return np.fromiter(column, np.int64, len(column))
    except OverflowError:
        return np.array(column, dtype=object)


_NOT_PAIRS = "items must be (weight, profit) pairs"
# Two-element values that unpack as a pair but are not one: bytes unpack to
# byte values, a mapping to its keys and a set in no fixed order.
_NOT_PAIR_TYPES = (bytes, bytearray, Mapping, Set)


def _columns(raw_items) -> tuple[list, list]:
    """The weights and the profits of ``raw_items``, as two lists in input order.

    Unpacking each pair checks its shape: an item that is not an iterable
    of two values is refused, and so is a ``raw_items`` that is not
    iterable.  An iterator pair runs dry in the first column, so the second
    column refuses it.  A bytes, mapping or set item is refused before any
    unpacking; the type scan stops at once when every item is a tuple or a
    list.
    """
    if not isinstance(raw_items, (list, tuple)):
        try:
            raw_items = iter(raw_items)
        except TypeError:
            raise ValueError(_NOT_PAIRS) from None
        raw_items = list(raw_items)
    kinds = set(map(type, raw_items))
    if not kinds <= {tuple, list} and any(issubclass(k, _NOT_PAIR_TYPES) for k in kinds):
        raise ValueError(_NOT_PAIRS)
    try:
        return [w for w, _ in raw_items], [p for _, p in raw_items]
    except (TypeError, ValueError):
        raise ValueError(_NOT_PAIRS) from None


def normalize(raw_items: Iterable[tuple[int, int]], capacity: int) -> Instance:
    """Validate and normalize raw (weight, profit) pairs.

    Items heavier than the capacity are dropped (they appear in no feasible
    solution).  If the kept items all fit together, the instance is flagged
    trivial with its answer precomputed.  Weights, profits and the capacity
    must be integers (Python or numpy; not bool); weights and profits must
    be >= 1 and the capacity >= 0.  ``raw_items`` may also be an (n, 2)
    integer array.

    Every value is checked before any conversion, because converting to
    int64 would silently truncate 2.9 to 2 and turn True into 1.  Pairs are
    split into a weight and a profit column, and each column is converted
    in one strict step (``_int64_values``); when either refuses, each value
    goes through ``_integer`` pair by pair in input order, so the first bad
    value is the one named.  An array of a signed or unsigned integer dtype
    is checked by its dtype instead, and each column is copied whole;
    uint64 values past int64 range become Python ints.  Arrays of other
    dtypes (bool, float, object) take the per-value path.  When every item
    fits the capacity, the columns become the instance's arrays as they
    are, with no masked copy.
    """
    capacity = _integer(capacity, "capacity")
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    if isinstance(raw_items, np.ndarray) and raw_items.dtype.kind in "iu":
        if raw_items.size and (raw_items.ndim != 2 or raw_items.shape[1] != 2):
            raise ValueError(_NOT_PAIRS)
        weights, profits = (
            col.astype(object if col.size and col.max() > np.iinfo(np.int64).max else np.int64)
            for col in raw_items.reshape(-1, 2).T
        )
    else:
        ws, ps = _columns(raw_items)
        weights, profits = _int64_values(ws), _int64_values(ps)
        if weights is None or profits is None:
            if not set(map(type, ws)) | set(map(type, ps)) <= {int}:
                checked = [
                    (_integer(w, "item weight"), _integer(p, "item profit"))
                    for w, p in zip(ws, ps)
                ]
                ws, ps = _columns(checked)
            weights = _exact_values(ws) if weights is None else weights
            profits = _exact_values(ps) if profits is None else profits
    if weights.size and min(weights.min(), profits.min()) < 1:
        raise ValueError("item weights and profits must be >= 1")
    fits = weights <= capacity
    if not fits.all():
        weights, profits = weights[fits], profits[fits]
    weights, profits = _fitted(weights), _fitted(profits)
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
    add), ties by ascending index, and items inside G are ranked 1, 2, ...
    by increasing profit (cheapest first to remove), ties by descending
    index: each side in the order a walk outward from the break meets it.
    The candidate dicts, keyed in ascending weight, list each class's item
    indices in that rank order as plain lists.  Only the 2 * w_max best
    ranks per class and side are materialized: no optimal exchange uses
    deeper ranks.  It is ``LazyCore`` read to its end; the dense path reads
    the core lazily.
    """

    order: np.ndarray
    break_index: int
    in_greedy: np.ndarray
    greedy_weight: int
    greedy_profit: int
    # weight -> item indices in rank order (capped at 2 * w_max entries)
    add_candidates: dict[int, list[int]] = field(default_factory=dict)
    remove_candidates: dict[int, list[int]] = field(default_factory=dict)


# items in the first key band of each side of the lazy core, and in the
# first chunk of a tie group; each next band or chunk is 4 times larger
_FIRST_BAND = 64
_BAND_GROWTH = 4


def _efficiency_keys(inst: Instance) -> np.ndarray:
    """int64 keys that order items as their efficiencies p / w do, ties equal.

    Two distinct ratios differ by at least 1 / w_max^2, so
    floor(p * w_max^2 / w) keeps their order, and equal ratios get equal
    keys.  Past int64 range the keys are Python ints, replaced by their
    ranks among the distinct keys (one sort).
    """
    scale = inst.w_max * inst.w_max
    weights, profits = inst.weights, inst.profits
    if int(profits.max()) * scale <= INT64_VALUE_CAP:
        weights = weights.astype(np.int64, copy=False)
        return profits.astype(np.int64, copy=False) * scale // weights
    keys = profits.astype(object) * scale // weights.astype(object)
    return np.unique(keys, return_inverse=True)[1].astype(np.int64)


# items in the strided sample a selection round takes its two pivots from,
# and the sample positions kept on each side of the estimated break
_SAMPLE = 1024
_MARGIN = 48


def _pivots(keys: np.ndarray, weights: np.ndarray, room: int, live: int):
    """Two keys, lo <= hi, that likely enclose the key at weight ``room``.

    A strided sample, sorted by key descending, estimates where the first
    ``room`` of the ``live`` weight ends; the pivots sit ``_MARGIN`` sample
    positions (about three standard deviations) on either side of it.
    """
    step = keys.size // _SAMPLE
    sample = keys[::step]
    order = np.argsort(-sample)
    reach = np.cumsum(weights[::step][order])
    pos = int(np.searchsorted(reach, int(reach[-1]) * room // live))
    last = order.size - 1
    return sample[order[min(pos + _MARGIN, last)]], sample[order[max(pos - _MARGIN, 0)]]


def _select_break(keys: np.ndarray, weights: np.ndarray, capacity: int) -> tuple[int, int]:
    """(break key, weight of the items with a higher key), by weighted selection.

    The greedy order takes every item with a key above the break key, then
    the break key's items by index until one overflows.  Each round splits
    the live items at two pivots and keeps the part the capacity runs out
    in (Balas and Zemel 1980).  The pivots come from a sample (``_pivots``)
    and usually keep a tenth of the items; a round that keeps more than
    half is followed by one at the median, so all rounds take O(n).  Items
    are only copied out of the sparse middle part; the other parts are
    weighed with a dot product.  The items must not all fit.
    """
    above = 0  # weight of the items with a key above every live key
    live = int(weights.sum())
    sampled = True
    while True:
        if sampled and keys.size > 4 * _SAMPLE:
            lo, hi = _pivots(keys, weights, capacity - above, live)
        else:
            lo = hi = np.partition(keys, keys.size // 2)[keys.size // 2]
        size = keys.size
        higher = keys > hi
        reach = above + int(np.dot(weights, higher))
        if reach > capacity:
            keep, live = higher, reach - above
        else:
            upto = keys >= lo
            total = above + int(np.dot(weights, upto))
            if total <= capacity:
                keep, live, above = ~upto, live - (total - above), total
            elif lo == hi:
                return int(hi), reach
            else:
                keep, live, above = upto & ~higher, total - reach, reach
        keep = np.flatnonzero(keep)
        keys, weights = keys[keep], weights[keep]
        sampled = 2 * keys.size <= size


def _occurrence(values: np.ndarray) -> np.ndarray:
    """For each entry, how many earlier entries hold the same value."""
    order = np.argsort(values, kind="stable")
    grouped = values[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    occ = np.empty(values.size, dtype=np.int64)
    occ[order] = np.arange(values.size) - np.repeat(starts, np.diff(np.r_[starts, values.size]))
    return occ


def _bands(idx: np.ndarray, walk_keys: np.ndarray):
    """Yield one side of the lazy core in walk order, one key band at a time.

    ``idx`` lists the side's items in walk-index order and ``walk_keys``
    their keys, so the walk is walk_keys ascending, ties in ``idx`` order.
    Band k ends at the walk key e_k of walk position 64 (4^(k+1) - 1) / 3,
    found by ``np.partition`` when the walk reaches the band, and holds the
    items with a walk key in (e_(k-1), e_k].  Those below e_k are fewer than
    the band size; they are sorted and yielded as (items, True).  The tie
    group at e_k can be any size and is already in walk order, so it is
    yielded in growing chunks as (chunk, False).  The bands are cut from a
    pool, the items up to the end of the band after next, which one pass
    over the side takes out when the walk passes the pool's end.
    """
    if not idx.size:
        return
    last = int(walk_keys.max())
    top, end, size = None, _FIRST_BAND, _FIRST_BAND
    pool = np.empty(0, np.intp)
    while top != last:
        if end > pool.size:
            ahead = end + size * _BAND_GROWTH * (1 + _BAND_GROWTH)
            if ahead < idx.size:
                pool = np.flatnonzero(walk_keys <= np.partition(walk_keys, ahead - 1)[ahead - 1])
            else:
                pool = np.arange(idx.size)
            pool_idx, pool_keys = idx[pool], walk_keys[pool]
        bound = last if end >= idx.size else int(np.partition(pool_keys, end - 1)[end - 1])
        size *= _BAND_GROWTH
        end += size
        if bound == top:
            continue  # the band before ended inside this tie group
        below = pool_keys < bound
        head = np.flatnonzero(below if top is None else below & (pool_keys > top))
        if head.size:
            head = head[np.argsort(pool_keys[head], kind="stable")]
            yield pool_idx[head], True
        group = pool_idx[np.flatnonzero(pool_keys == bound)]
        start, chunk = 0, _FIRST_BAND
        while start < group.size:
            yield group[start : start + chunk], False
            start, chunk = start + chunk, chunk * _BAND_GROWTH
        top = bound


class _Side:
    """One side of the lazy core: ``_bands`` with a per-weight rank counter.

    ``load`` appends the next candidates' weights and profits, in walk
    order, to ``weights`` and ``profits``; ``sorted`` counts the items
    placed in sorted bands so far.
    """

    def __init__(self, inst: Instance, idx: np.ndarray, walk_keys: np.ndarray):
        self._weights, self._profits = inst.weights, inst.profits
        self._cap = 2 * inst.w_max
        # items of each weight met so far, and candidates not yet handed
        # out, so a side whose classes are all capped stops early; no class
        # can pass the cap when the whole side is within it
        self._seen = self._left = None
        if self._cap < idx.size:
            self._seen = np.zeros(inst.w_max + 1, np.int64)
            sizes = np.bincount(inst.weights[idx], minlength=self._seen.size)
            self._left = int(np.minimum(sizes, self._cap).sum())
        self._pieces = _bands(idx, walk_keys)
        self.weights: list[int] = []
        self.profits: list[int] = []
        self.sorted = 0

    def load(self) -> bool:
        """Append the next candidates in walk order; False once the side is used up."""
        if self._left == 0:
            return False
        for items, in_band in self._pieces:
            keep = self._candidates(items, in_band)
            if keep is not None:
                items = items[keep]
                self._left -= items.size
            if items.size:
                self.weights += self._weights[items].tolist()
                self.profits += self._profits[items].tolist()
                return True
        return False

    def drain(self) -> tuple[np.ndarray, np.ndarray]:
        """(the rest of the side's items, its candidates), both in walk order."""
        items, candidates = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
        for piece, in_band in self._pieces:
            keep = self._candidates(piece, in_band)
            items.append(piece)
            candidates.append(piece if keep is None else piece[keep])
        return np.concatenate(items), np.concatenate(candidates)

    def _candidates(self, items, in_band):
        """Candidate mask of one piece of ``_bands``, or None when all are.

        The walk meets each weight class in rank order, so an item's rank
        is the count of its weight met before it, kept below the cap.
        """
        if in_band:
            self.sorted += items.size
        if self._seen is None:
            return None
        w = self._weights[items]
        keep = self._seen[w] + _occurrence(w) < self._cap
        np.add.at(self._seen, w, 1)
        return keep


class LazyCore:
    """The greedy split, with both sides sorted only as far as they are read.

    The break comes from weighted selection on the integer efficiency keys
    (``_select_break``), in O(n): the greedy solution is every item with a
    key above the break key, then the break key's items by index while they
    fit.  ``in_greedy``, ``greedy_weight`` and ``greedy_profit`` describe
    it.  ``add`` walks the items outside it (key descending, ties by
    ascending index), ``remove`` the items inside it (key ascending, ties by
    descending index): the order the core fold meets them.

    Each side is cut into key bands of growing size (64 items, then 4 times
    more each), and a band is sorted only when the walk reaches it; a tie
    group needs no sort and is read in chunks.  Only candidates are handed
    out: a per-weight counter of the items met so far keeps the 2 * w_max
    best ranks of each weight class and side, as ``GreedySplit`` defines
    them.
    """

    def __init__(self, inst: Instance):
        if inst.all_fit:
            raise ValueError("greedy split undefined for trivial instances")
        weights = inst.weights
        keys = _efficiency_keys(inst)
        pivot, above = _select_break(keys, weights, inst.capacity)
        tie = np.flatnonzero(keys == pivot)
        reach = np.cumsum(weights[tie]) + above
        taken = int(np.searchsorted(reach, inst.capacity, side="right"))
        self.in_greedy = keys > pivot
        self.in_greedy[tie[:taken]] = True
        self.greedy_weight = int(reach[taken - 1]) if taken else above
        self.greedy_profit = int(np.dot(inst.profits, self.in_greedy))
        outside = np.flatnonzero(~self.in_greedy)
        inside = np.flatnonzero(self.in_greedy)[::-1]
        self.add = _Side(inst, outside, -keys[outside])
        self.remove = _Side(inst, inside, keys[inside])


def _by_weight(weights: np.ndarray, members: np.ndarray) -> dict[int, list[int]]:
    """{weight: its members in their given order}, keyed in ascending weight."""
    members = members[np.argsort(weights[members], kind="stable")]
    w = weights[members]
    starts = np.flatnonzero(np.r_[True, w[1:] != w[:-1]])
    parts = np.split(members, starts[1:])
    return {weight: part.tolist() for weight, part in zip(w[starts].tolist(), parts)}


def greedy_split(inst: Instance) -> GreedySplit:
    """Compute the greedy prefix solution and rank tables: ``LazyCore`` read to its end.

    Requires a nontrivial instance, so the break index lands strictly inside
    the item order.  Ties are broken by index: equal efficiencies go in
    ascending index order, and equal profits within a weight class rank in
    the order the walk from the break meets them, by ascending index
    outside G and by descending index inside it.  Any greedy order with
    ties broken consistently supports the exchange argument, so no
    perturbation is needed; a ``break_ties`` instance has no ties to break.
    """
    core = LazyCore(inst)
    adds, add_candidates = core.add.drain()
    removes, remove_candidates = core.remove.drain()
    return GreedySplit(
        order=np.concatenate((removes[::-1], adds)),
        break_index=removes.size,
        in_greedy=core.in_greedy,
        greedy_weight=core.greedy_weight,
        greedy_profit=core.greedy_profit,
        add_candidates=_by_weight(inst.weights, add_candidates),
        remove_candidates=_by_weight(inst.weights, remove_candidates),
    )
