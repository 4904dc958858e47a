"""Hint-guided extension of sparse DP tables.

The central object is a table q over signed indices [-L, L] together with a
hint set S[i] per finite entry: a set of item weights that are still allowed
to extend entry i.  ``solve_singleton`` handles the case where every hint
has at most one weight: it takes the row maxima of each (weight, residue)
group, by SMAWK when the group's profit function takes more than
``_SCAN_CAP`` items and by a direct scan of each row's few real entries
otherwise.  When the hint sets name one weight the row winners never
meet and are applied in one vectorized pass; otherwise a bucket scan
merges them, so the work stays near-linear in table size plus hint count.
``solve_small_b`` lifts that to hint sets of size <= b through isolating
colorings, and ``solve`` handles arbitrary budgets by first splitting the
weight universe with a balls-and-bins coloring.

Outputs are "relaxed" solutions: entry i is guaranteed optimal only when
every maximizer of i keeps its support inside S[z] for its base z; they are
always feasible, support-disciplined, and never below the trivial value
q[i].  ``relaxed_check`` verifies exactly this contract by enumeration.

Tables are sparse.  An instance holds its finite entries only, as arrays in
ascending index order: ``keys`` the signed indices i, ``values`` their
values (int64 while every magnitude stays under 2^61, Python ints in an
object array past that), and ``codes`` one small int per entry into
``sets``, the tuple of the table's distinct hint sets, each held by some
entry; equal sets merge into one code.  A solution holds ``keys``,
``values``, ``bases`` (an entry that extends nothing is its own base) and
``codes`` into ``counts``, its witness rows: column w of a row counts the
items of weight w its entries add.  Absent keys read as bottom, no hint set,
base i and no items.  Keys ascend, as SMAWK and the colorings read them.  A
built table is never mutated, so the algebra shares arrays and sets instead
of copying them.  Each step of the algebra works once per distinct hint
set, gathers the entries and rows with numpy, and ``compose`` adds each
distinct (outer, inner) pair of rows in one step.  At `uniform` n = 4w,
w = 512, the rows, replacing a dict per witness, cut peak RSS from 1,935 to
602 MB and a solve from 31.1 to 24.1 s.  The colorings take a table's hint
sets as one multiset (``_hint_copies``): ``sets`` counted by
``np.bincount(codes)``, the empty set counted up to the 2L + 1 sets the
analysis colors, one per index, as their parameters depend on that total m.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .colorings import (
    det_balls_and_bins,
    det_isolating_colorings,
    is_isolated,
)
from .core import BOTTOM, NEG_SENTINEL, NEG_THRESHOLD, is_bottom
from .smawk import row_maxima

# The cells of a solution's count rows.  A count never exceeds its class's
# cap, which in stage one is at most 2 * w_max <= 1,188 under its byte
# pre-check.  At n = 4w, w = 256, int32 cells raised peak RSS from 136 to
# 159 MB on `hard-equal-weights`, whose few weights sit near w_max and leave
# each row mostly zeros (152 to 231 MB on `uniform`).  A profit function or
# a built count past _COUNT_MAX is refused.
COUNT_DTYPE = np.int16
_COUNT_MAX = int(np.iinfo(COUNT_DTYPE).max)


class ConcaveProfitFn:
    """Profit of taking x items of one weight class, x in [0, cap].

    Backed by a prefix-sum tuple; prefix[0] must be 0 and the increments
    must be nonincreasing (items of a class are used best-first).
    """

    __slots__ = ("prefix", "cap")

    def __init__(self, prefix):
        prefix = tuple(prefix)
        if not prefix or prefix[0] != 0:
            raise ValueError("prefix profits must start at 0")
        if len(prefix) > _COUNT_MAX + 1:
            raise ValueError(f"a profit function takes at most {_COUNT_MAX} items")
        for k in range(2, len(prefix)):
            if prefix[k] - prefix[k - 1] > prefix[k - 1] - prefix[k - 2]:
                raise ValueError("profit increments must be nonincreasing")
        self.prefix = prefix
        self.cap = len(prefix) - 1

    def value(self, x: int) -> int:
        if x < 0:
            raise ValueError("negative multiplicity")
        return self.prefix[min(x, self.cap)]

    def spread(self) -> int:
        return max(self.prefix) - min(self.prefix)

    def __repr__(self):  # pragma: no cover
        return f"ConcaveProfitFn({list(self.prefix)!r})"


@dataclass
class ExtendStats:
    """Work counters for the extension solvers (asserted in tests)."""

    matrix_evals: int = 0
    ap_count: int = 0
    bucket_inserts: int = 0
    # solve_singleton calls, and those whose hint sets named one weight
    singleton_calls: int = 0
    one_weight_calls: int = 0


def _cells(values: np.ndarray, extra: int = 0) -> np.ndarray:
    """``values`` as int64 while |value| + ``extra`` stays under ``-NEG_THRESHOLD``, else as ints.

    That cap is half the magnitude of the int64 bottom, ``NEG_SENTINEL``.
    """
    fits = not values.size or max(-int(values.min()), int(values.max())) + extra < -NEG_THRESHOLD
    return values.astype(np.int64 if fits else object, copy=False)


def _distinct(sets, codes: np.ndarray):
    """(``sets`` made distinct and each held by a code, ``codes`` remapped to them).

    An unheld set is dropped.  Codes that already point at distinct held
    sets come back unchanged.
    """
    held = np.bincount(codes, minlength=len(sets)).astype(bool).tolist()
    first: dict = {}
    remap = [first.setdefault(s, len(first)) if h else -1 for s, h in zip(sets, held)]
    if len(first) == len(sets):
        return tuple(sets), codes
    return tuple(first), np.array(remap, np.intp)[codes]


def _position(keys: np.ndarray, index: int):
    """The position of ``index`` in the ascending ``keys``, or None."""
    k = int(np.searchsorted(keys, index))
    return k if k < keys.size and keys[k] == index else None


@dataclass
class HintedExtendInstance:
    """A table over [-half_size, half_size]: its finite entries and hint sets.

    ``keys`` (int64, ascending) and ``values`` hold the finite entries;
    entry k may still extend with the weights of ``sets[codes[k]]``, a
    frozenset.  ``sets`` holds each distinct hint set once, and every one
    of them is some entry's.  ``universe`` is the sorted weights ``fns``
    covers.
    """

    half_size: int
    universe: tuple
    keys: np.ndarray
    values: np.ndarray
    sets: tuple
    codes: np.ndarray
    fns: dict

    @classmethod
    def build(cls, half_size, entries, fns):
        """Construct from ``{index: (value, hint set)}``, in any key order."""
        keys = sorted(entries)
        values = [entries[i][0] for i in keys]
        if not all(type(i) is int for i in keys):
            raise ValueError("table indices must be integers")
        if not all(type(v) is int for v in values):
            raise ValueError("the table holds finite integer entries only")
        inst = cls.from_arrays(
            half_size, tuple(sorted(fns)), np.array(keys, np.int64),
            _cells(np.array(values, dtype=object)),
            [frozenset(entries[i][1]) for i in keys], np.arange(len(keys)), dict(fns),
        )
        inst.validate()
        return inst

    @classmethod
    def from_arrays(cls, half_size, universe, keys, values, sets, codes, fns):
        """Entry k holds ``sets[codes[k]]``; equal sets merge and unheld ones drop."""
        sets, codes = _distinct(sets, codes)
        return cls(half_size, universe, keys, values, sets, codes, fns)

    @property
    def size(self) -> int:
        return 2 * self.half_size + 1

    def indices(self):
        return range(-self.half_size, self.half_size + 1)

    def q_at(self, index: int):
        k = _position(self.keys, index)
        return BOTTOM if k is None else int(self.values[k])

    def hint_at(self, index: int):
        """The hint set of entry ``index``, or None for a bottom entry."""
        k = _position(self.keys, index)
        return None if k is None else self.sets[self.codes[k]]

    def entries(self) -> dict:
        """``{index: (value, hint set)}``, ascending: what ``build`` takes."""
        hints = map(self.sets.__getitem__, self.codes.tolist())
        return dict(zip(self.keys.tolist(), zip(self.values.tolist(), hints)))

    def validate(self) -> None:
        uni = set(self.universe)
        if set(self.fns) != uni:
            raise ValueError("profit functions must cover exactly the universe")
        if not all(type(w) is int and w >= 1 for w in self.universe):
            raise ValueError("weights must be positive integers")
        if not all(type(p) is int for fn in self.fns.values() for p in fn.prefix):
            raise ValueError("profit prefixes must be integers")
        keys, values, codes = self.keys, self.values, self.codes
        if keys.dtype != np.int64 or keys.ndim != 1:
            raise ValueError("table indices must be an int64 vector")
        if values.shape != keys.shape or codes.shape != keys.shape:
            raise ValueError("hint sets must exist exactly on finite entries")
        if keys.size and (keys[0] < -self.half_size or keys[-1] > self.half_size):
            raise ValueError("table index outside [-half_size, half_size]")
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("table indices must ascend")
        if values.dtype != np.int64 and not (
            values.dtype == object and all(type(v) is int for v in values)
        ):
            raise ValueError("the table holds finite integer entries only")
        if not all(isinstance(s, frozenset) for s in self.sets):
            raise ValueError("hint sets must be frozensets")
        if len(set(self.sets)) < len(self.sets):
            raise ValueError("hint sets must be distinct")
        if codes.dtype.kind != "i" or (
            codes.size and (codes.min() < 0 or codes.max() >= len(self.sets))
        ):
            raise ValueError("hint codes must point into the hint sets")
        if not np.bincount(codes, minlength=len(self.sets)).all():
            raise ValueError("every hint set must be some entry's")
        for s in self.sets:
            if not s <= uni:
                raise ValueError("hint sets must stay inside the universe")


@dataclass
class HintedExtendSolution:
    """Extended values (finite entries, ascending ``keys``) and their witnesses.

    Entry k extends base ``bases[k]`` by row ``codes[k]`` of ``counts``, a
    ``COUNT_DTYPE`` array whose column w holds the count of weight w; an
    entry that extends nothing is its own base and its row is zero.
    """

    half_size: int
    keys: np.ndarray
    values: np.ndarray
    bases: np.ndarray
    counts: np.ndarray
    codes: np.ndarray

    @classmethod
    def build(cls, half_size, entries):
        """Construct from ``{index: (value, base, {weight: count})}``, in any key order."""
        keys = sorted(entries)
        values, bases, maps = zip(*map(entries.__getitem__, keys)) if keys else ((), (), ())
        cells = [(k, w, c) for k, xs in enumerate(maps) for w, c in xs.items()]
        if not all(type(w) is type(c) is int and w > 0 < c <= _COUNT_MAX for _, w, c in cells):
            raise ValueError(f"counts must be integers in [1, {_COUNT_MAX}] of weights >= 1")
        rows, weights, counts = zip(*cells) if cells else ((), (), ())
        table = np.zeros((len(keys), max(weights, default=0) + 1), COUNT_DTYPE)
        table[list(rows), list(weights)] = counts
        return cls(
            half_size, np.array(keys, np.int64), _cells(np.array(values, dtype=object)),
            np.array(bases, np.int64), table, np.arange(len(keys)),
        )

    def entries(self) -> dict:
        """``{index: (value, base, {weight: count})}``, ascending: what ``build`` takes."""
        maps = map(_as_map, self.counts[self.codes])
        return dict(zip(self.keys.tolist(), zip(self.values.tolist(), self.bases.tolist(), maps)))

    def value(self, index: int):
        k = _position(self.keys, index)
        return BOTTOM if k is None else int(self.values[k])

    def base(self, index: int) -> int:
        k = _position(self.keys, index)
        return index if k is None else int(self.bases[k])

    def mult(self, index: int) -> dict:
        k = _position(self.keys, index)
        return {} if k is None else _as_map(self.counts[self.codes[k]])


def _as_map(row: np.ndarray) -> dict:
    """A count row as a new ``{weight: count}`` of its nonzero columns."""
    weights = np.flatnonzero(row)
    return dict(zip(weights.tolist(), row[weights].tolist()))


def _widened(counts: np.ndarray, width: int) -> np.ndarray:
    """A copy of the count rows with zero columns appended up to ``width``."""
    return np.pad(counts, ((0, 0), (0, width - counts.shape[1])))


def trivial_solution(inst: HintedExtendInstance) -> HintedExtendSolution:
    return HintedExtendSolution(
        inst.half_size, inst.keys, inst.values, inst.keys, np.zeros((1, 1), COUNT_DTYPE),
        np.zeros(inst.keys.size, np.intp),
    )


def _value_spread(inst: HintedExtendInstance) -> int:
    values = inst.values
    spread = int(values.max()) - int(values.min()) if values.size else 0
    fn_spread = max((fn.spread() for fn in inst.fns.values()), default=0)
    return spread + fn_spread + 1


# Groups whose profit function takes at most this many items get their row
# winners from a direct scan; a row of such a group holds at most
# _SCAN_CAP + 1 real entries, fewer than SMAWK spends on its continuation
# padding.
_SCAN_CAP = 2


def _smawk_ranges(cols, q, prefix, w, L, big):
    """Each base's winning multiplicities in one (weight, residue) group, by SMAWK.

    The group is one concave matrix: its columns are the bases ``cols``
    (ascending, one residue modulo ``w``); its rows are the residue's
    indices from cols[0] + w to cols[-1] + cap * w, at most ``L``, the only
    ones where some column has x in [1, cap].  The rows outside hold only
    continuation values, and a block of consecutive rows of a totally
    monotone matrix keeps every row's leftmost maximum, so cutting them
    changes no range.  Returns ([(base, x_lo, x_hi), ...] in column order,
    entries evaluated).
    """
    cap = len(prefix) - 1
    nrows = (min(L, cols[-1] + cap * w) - cols[0]) // w
    # row ri is cols[0] + ri * w and every base shares the residue, so
    # base cj (1-based, like ri) takes x = ri + off[cj] items
    off = [0] + [(cols[0] - j) // w for j in cols]
    qv = [0] + [q[j] for j in cols]
    evals = 0

    def value(ri, cj, _off=off, _qv=qv, _prefix=prefix, _cap=cap, _top=prefix[cap]):
        nonlocal evals
        evals += 1
        x = ri + _off[cj]
        # steep concave continuation outside [0, cap] keeps the matrix
        # totally monotone; continuation values lose to any real one
        if x < 0:
            return _qv[cj] + x * big
        if x > _cap:
            return _qv[cj] + _top + (_cap - x) * big
        return _qv[cj] + _prefix[x]

    breakpoints = row_maxima(nrows, len(cols), value)
    ranges = []
    # base j wins rows lo..hi-1, so it extends by x in [lo, hi - 1] + off
    for j, o, lo, hi in zip(cols, off[1:], breakpoints, breakpoints[1:]):
        x_lo = max(lo + o, 1)
        x_hi = min(hi - 1 + o, cap)
        if x_lo <= x_hi:
            ranges.append((j, x_lo, x_hi))
    return ranges, evals


def _row_winners(bases, values, prefix, w, L, bottom):
    """Each live row's leftmost maximum over the bases of one weight, scanned.

    ``bases`` holds the weight's bases ascending, every residue at once, and
    ``values`` their table values.  A live row i = j + x * w (x in [1, cap],
    i <= L) holds a real entry q[i - y * w] + prefix[y] for each base among
    i - y * w, y in [0, cap]; every other entry of the row is continuation,
    which loses strictly to any real one, so SMAWK's leftmost maximum is the
    leftmost real one.  This is O(rows * cap) evaluations, short of SMAWK's
    bound only for long profit functions.  Returns the rows whose winner
    extends its base (x >= 1), ascending, with that base's position in
    ``bases``, its x and its value, and the real entries evaluated.
    """
    cap = len(prefix) - 1
    rows = np.sort(np.concatenate([bases + x * w for x in range(1, cap + 1)]))
    rows = rows[: np.searchsorted(rows, L, side="right")]
    rows = rows[np.diff(rows, prepend=L + 1) != 0]  # two bases may reach one row
    best = np.full(rows.size, bottom, dtype=values.dtype)
    best_x = np.zeros(rows.size, np.int64)
    best_at = np.zeros(rows.size, np.int64)
    evals = 0
    # leftmost first: the base furthest back wins a tie
    for y in range(cap, -1, -1):
        src = rows - y * w
        at = np.searchsorted(bases, src).clip(max=bases.size - 1)
        hit = bases[at] == src
        evals += int(np.count_nonzero(hit))
        val = values[at] + prefix[y]
        won = np.greater(val, best, out=np.zeros(rows.size, bool), where=hit)
        np.copyto(best, val, where=won)
        best_x[won] = y
        best_at[won] = at[won]
    ext = best_x > 0
    return rows[ext], best_at[ext], best_x[ext], best[ext], evals


def _smawk_winners(bases, values, prefix, w, L, big):
    """``_row_winners`` for a long profit function: one SMAWK pass per residue."""
    q = dict(zip(bases.tolist(), values.tolist()))
    cols_of: dict = {}
    for j in q:
        cols_of.setdefault(j % w, []).append(j)
    ranges, evals = [], 0
    for cols in cols_of.values():
        if cols[0] + w <= L:  # else every first extension lies past L
            got, n = _smawk_ranges(cols, q, prefix, w, L, big)
            ranges += got
            evals += n
    # each range (base, x_lo, x_hi) expands to its rows, x ascending
    col_at = {j: k for k, j in enumerate(q)}
    at = np.array([col_at[j] for j, _, _ in ranges], np.int64)
    x_lo = np.array([lo for _, lo, _ in ranges], np.int64)
    counts = np.array([hi + 1 for _, _, hi in ranges], np.int64) - x_lo
    first = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(at.size), counts)
    x = np.arange(owner.size) - (first - x_lo)[owner]
    at = at[owner]
    rows = bases[at] + x * w
    order = np.argsort(rows)
    at, x = at[order], x[order]
    return rows[order], at, x, values[at] + np.array(prefix, values.dtype)[x], evals


def solve_singleton(
    inst: HintedExtendInstance, stats: ExtendStats | None = None
) -> HintedExtendSolution:
    """Extend a table whose hint sets all have at most one weight.

    Candidates i = j + x*w for a hinted base j are grouped by weight and
    residue; each group is one concave matrix, and each base's winning
    multiplicities are the rows where it holds the row's leftmost maximum.
    A weight whose profit function takes more than ``_SCAN_CAP`` items gets
    its winners from one SMAWK pass per residue (``_smawk_winners``); a
    shorter one from a direct scan of each row's few real entries, every
    residue at once (``_row_winners``), which finds the same winners.

    Two paths pick each row's winner.  When every hint set names the same
    weight w, each (w, residue) group covers the rows of its own residue,
    and the rows a group's bases win are disjoint, since each row has one
    leftmost maximum.  So no two winners meet on a row, and the row
    winners are the candidates as they are.  When the hint sets name
    several weights, winners of different weights meet, and each base's
    winning rows become an arithmetic progression; the progressions,
    appended in ascending weight order, are merged by one left-to-right
    bucket scan, which at each index takes the best progression and
    advances only that one; the losers are dropped, which is the paper's
    pruning.  Either way each candidate is applied, in one vectorized pass,
    exactly where it strictly beats q[i].  Both paths add the same counters
    into ``stats``: ``matrix_evals`` the entries evaluated, ``ap_count`` the
    bases that win a row (one progression each), ``bucket_inserts`` the
    progression steps, which in the one-weight pass are the winning rows.
    """
    L = inst.half_size
    if any(len(s) > 1 for s in inst.sets):
        raise ValueError("solve_singleton needs hint sets of size <= 1")
    weight_of = [next(iter(s), 0) for s in inst.sets]
    weights = sorted(set(weight_of) - {0})
    if stats is not None:
        stats.singleton_calls += 1
        stats.one_weight_calls += len(weights) == 1
    if not weights:
        return trivial_solution(inst)

    keys = inst.keys
    weight_at = np.array(weight_of, np.int64)[inst.codes]
    cells = _cells(inst.values, max(abs(p) for w in weights for p in inst.fns[w].prefix))
    bottom = NEG_SENTINEL if cells.dtype == np.int64 else BOTTOM
    evals = aps = 0
    winners = []  # per weight: (w, prefix, rows, bases, x, values, q at bases)
    for w in weights:
        prefix = inst.fns[w].prefix
        if len(prefix) == 1:  # takes no item
            continue
        mine = weight_at == w
        bases, values = keys[mine], cells[mine]
        if len(prefix) - 1 <= _SCAN_CAP:
            rows, at, x, val, n = _row_winners(bases, values, prefix, w, L, bottom)
        else:
            big = _value_spread(inst)
            rows, at, x, val, n = _smawk_winners(bases, values, prefix, w, L, big)
        evals += n
        aps += int(np.count_nonzero(np.bincount(at)))  # bases that win a row
        winners.append((w, prefix, rows, bases[at], x, val, values[at]))

    if len(weights) > 1:
        rows, bases, codes, counts, val, inserts = _merge_progressions(winners, cells.dtype)
    elif winners:
        ((w, _, rows, bases, codes, val, _),) = winners
        # the code of x items of w is x
        counts = np.zeros((int(codes.max(initial=0)) + 1, w + 1), COUNT_DTYPE)
        counts[:, w] = np.arange(len(counts))
        inserts = rows.size
    else:  # the one hinted weight takes no item
        return trivial_solution(inst)
    if stats is not None:
        stats.matrix_evals += evals
        stats.ap_count += aps
        stats.bucket_inserts += inserts
    return _apply_winners(inst, cells, rows, bases, codes, counts, val)


def _apply_winners(inst, cells, rows, bases, codes, counts, values):
    """The solution with each candidate applied where it strictly beats q, at once.

    ``rows`` ascend, each once; candidate k extends ``bases[k]`` by count
    row ``codes[k]`` to ``values[k]``.
    """
    keys = inst.keys
    at = np.searchsorted(keys, rows)
    near = at.clip(max=keys.size - 1)
    new = keys[near] != rows
    better = new.copy()
    np.greater(values, cells[near], out=better, where=~new)
    # the input arrays are shared, never written: the winners go into copies,
    # each row after the new rows below it
    out_keys = np.insert(keys, at[new], rows[new])
    pos = (at + np.cumsum(new) - new)[better]
    out_values = np.insert(cells, at[new], values[new])
    out_values[pos] = values[better]
    out_bases = out_keys.copy()
    out_bases[pos] = bases[better]
    out_codes = np.zeros(out_keys.size, np.intp)
    out_codes[pos] = codes[better]
    return HintedExtendSolution(inst.half_size, out_keys, out_values, out_bases, counts, out_codes)


def _merge_progressions(winners, dtype):
    """The bucket scan over the winners' progressions.

    Returns each index the scan reaches, ascending, with its best
    progression's base, count-row code and value, the count rows (one per
    (weight, x) taken, after the zero row) and the bucket inserts.
    """
    # index -> progressions parked there; ``pending`` heaps the occupied indices
    buckets: dict[int, list] = {}
    # a bucket's first progression wins its ties: weights go in ascending
    for w, prefix, rows, bases, x, _, at_base in winners:
        # a base's winning rows ascend in x without a gap: one progression
        first: dict = {}  # base -> [its first row, x_lo, x_hi, q at base]
        for i, j, k, v in zip(rows.tolist(), bases.tolist(), x.tolist(), at_base.tolist()):
            if j in first:
                first[j][2] = k
            else:
                first[j] = [i, k, k, v]
        for j, (i, x_lo, x_hi, v) in first.items():
            # a progression: [base, weight, next x, last x, q at base, prefix]
            buckets.setdefault(i, []).append([j, w, x_lo, x_hi, v, prefix])
    inserts = sum(map(len, buckets.values()))

    # each index is reached once, so q there is all a winner must beat
    out = []
    code_of: dict = {}  # (weight, x) -> its count row, after the zero row
    pending = list(buckets)
    heapq.heapify(pending)
    while pending:
        i = heapq.heappop(pending)
        cell = buckets.pop(i)
        best = cell[0]
        best_val = best[4] + best[5][best[2]]
        for ap in cell[1:]:
            val = ap[4] + ap[5][ap[2]]
            if val > best_val:
                best_val = val
                best = ap
        code = code_of.setdefault((best[1], best[2]), len(code_of) + 1)
        out.append((i, best[0], code, best_val))
        # only the winning progression moves on; the losers are dropped
        if best[2] < best[3]:
            best[2] += 1
            nxt = i + best[1]
            if nxt not in buckets:
                buckets[nxt] = []
                heapq.heappush(pending, nxt)
            buckets[nxt].append(best)
            inserts += 1
    rows, bases, codes, values = zip(*out) if out else ((), (), (), ())
    ws, xs = np.array(list(code_of), np.int64).reshape(-1, 2).T
    counts = np.zeros((ws.size + 1, ws.max(initial=0) + 1), COUNT_DTYPE)
    counts[np.arange(1, ws.size + 1), ws] = xs
    return (
        np.array(rows, np.int64), np.array(bases, np.int64), np.array(codes, np.intp),
        counts, np.array(values, dtype), inserts,
    )


# ---------------------------------------------------------------------------
# composition algebra


def restrict(inst: HintedExtendInstance, subset) -> HintedExtendInstance:
    """Keep only the weights in ``subset``: hints and profit fns shrink."""
    vset = frozenset(subset) & set(inst.universe)
    fns = {w: fn for w, fn in inst.fns.items() if w in vset}
    # one intersection per distinct hint set; sets that become equal merge
    return HintedExtendInstance.from_arrays(
        inst.half_size, tuple(sorted(vset)), inst.keys, inst.values,
        tuple(s & vset for s in inst.sets), inst.codes, fns,
    )


def apply_update(
    inst: HintedExtendInstance, subset, sol: HintedExtendSolution
) -> HintedExtendInstance:
    """Fold a solution over ``subset`` back in: q := r, hints follow bases.

    The new entry i inherits the hint set of its base minus the consumed
    weights, so later stages can keep extending without reusing them.
    """
    vset = frozenset(subset)
    at = np.searchsorted(inst.keys, sol.bases)
    if at.size and (at.max() >= inst.keys.size or np.any(inst.keys[at] != sol.bases)):
        raise ValueError("solution base lacks a hint set")
    universe = tuple(w for w in inst.universe if w not in vset)
    fns = {w: fn for w, fn in inst.fns.items() if w not in vset}
    # one subtraction per distinct hint set, gathered at each entry's base
    return HintedExtendInstance.from_arrays(
        inst.half_size, universe, sol.keys, sol.values,
        tuple(s - vset for s in inst.sets), inst.codes[at], fns,
    )


def compose(
    outer: HintedExtendSolution, inner: HintedExtendSolution
) -> HintedExtendSolution:
    """Chain outer (solved on inner's updated table) through inner."""
    if outer.half_size != inner.half_size:
        raise ValueError("solutions live on different tables")
    # outer's bases are entries of inner's updated table, whose keys are
    # inner's: an entry outer left alone is its own base and keeps inner's
    # extension
    mid = np.searchsorted(inner.keys, outer.bases)
    if mid.size and (mid.max() >= inner.keys.size or np.any(inner.keys[mid] != outer.bases)):
        raise ValueError("outer's bases must be entries of inner")
    k = len(inner.counts)
    # one row sum per distinct (outer row, inner row) pair
    pairs, codes = np.unique(outer.codes * k + inner.codes[mid], return_inverse=True)
    counts = _widened(outer.counts[pairs // k], max(outer.counts.shape[1], inner.counts.shape[1]))
    counts[:, : inner.counts.shape[1]] += inner.counts[pairs % k]
    if counts.min(initial=0) < 0:  # a sum wrapped past _COUNT_MAX
        raise ValueError(f"a composed count exceeds {_COUNT_MAX}")
    return HintedExtendSolution(
        outer.half_size, outer.keys, outer.values, inner.bases[mid], counts, codes
    )


def entrywise_max_solutions(
    a: HintedExtendSolution, b: HintedExtendSolution
) -> HintedExtendSolution:
    if a.half_size != b.half_size:
        raise ValueError("solutions disagree on shape")
    if not a.keys.size:
        return b
    if not b.keys.size:
        return a
    keys = np.union1d(a.keys, b.keys)
    at_a = np.searchsorted(a.keys, keys).clip(max=a.keys.size - 1)
    at_b = np.searchsorted(b.keys, keys).clip(max=b.keys.size - 1)
    va, vb = a.values[at_a], b.values[at_b]
    if va.dtype != vb.dtype:
        va, vb = va.astype(object), vb.astype(object)
    in_b = b.keys[at_b] == keys
    # b wins ties, and every entry a lacks
    take_a = a.keys[at_a] == keys
    take_a &= ~in_b | (va > vb)
    width = max(a.counts.shape[1], b.counts.shape[1])
    return HintedExtendSolution(
        a.half_size, keys, np.where(take_a, va, vb),
        np.where(take_a, a.bases[at_a], b.bases[at_b]),
        np.concatenate([_widened(a.counts, width), _widened(b.counts, width)]),
        np.where(take_a, a.codes[at_a], b.codes[at_b] + len(a.counts)),
    )


# ---------------------------------------------------------------------------
# general budgets


def _hint_copies(inst: HintedExtendInstance) -> dict:
    """The colorings' multiset: each distinct hint set with its count over
    the 2L + 1 indices, a bottom entry holding the empty set."""
    copies = dict(zip(inst.sets, np.bincount(inst.codes).tolist()))
    copies[frozenset()] = copies.get(frozenset(), 0) + inst.size - inst.keys.size
    return copies


def _color_classes(universe, coloring) -> list[list[int]]:
    """``universe`` grouped by color (color 0 if uncolored), colors ascending."""
    classes: dict = {}
    for w in universe:
        classes.setdefault(coloring.get(w, 0), []).append(w)
    return [classes[c] for c in sorted(classes)]


def _chain_color_classes(inst, classes, solver):
    """Sequentially restrict to each class, solve, fold back, and compose."""
    current = inst
    acc = None
    for cls in classes:
        part = solver(restrict(current, cls))
        current = apply_update(current, cls, part)
        acc = part if acc is None else compose(part, acc)
    return trivial_solution(inst) if acc is None else acc


def solve_small_b(
    inst: HintedExtendInstance, budget: int, stats: ExtendStats | None = None
) -> HintedExtendSolution:
    """Extend with hint sets of size <= budget via isolating colorings.

    Each entry is charged to the first coloring that isolates its hint set;
    within one coloring the color classes cut every relevant hint down to a
    single weight, so the singleton solver applies class by class and the
    per-coloring results are folded with an entrywise maximum.
    """
    largest = max(map(len, inst.sets), default=0)
    if largest > budget:
        raise ValueError("hint set exceeds the declared budget")
    if largest <= 1:
        return solve_singleton(inst, stats)
    colorings = det_isolating_colorings(_hint_copies(inst), budget)
    # entries with equal hint sets share an owner; an entry whose set no
    # coloring isolates (-1) is owned by none
    owner = [
        next((idx for idx, c in enumerate(colorings) if is_isolated(s, c)), -1)
        for s in inst.sets
    ]
    owner_at = np.array(owner, np.intp)[inst.codes]
    solve_class = partial(solve_singleton, stats=stats)
    result = None
    for idx in sorted(set(owner) - {-1}):
        mine = owner_at == idx  # this coloring's share of the table
        masked = HintedExtendInstance.from_arrays(
            inst.half_size, inst.universe, inst.keys[mine], inst.values[mine],
            inst.sets, inst.codes[mine], inst.fns,
        )
        # weights in no hint set are uncolored; any class works for them
        ordered = _color_classes(inst.universe, colorings[idx])
        part = _chain_color_classes(masked, ordered, solve_class)
        result = part if result is None else entrywise_max_solutions(result, part)
    return trivial_solution(inst) if result is None else result


def solve(
    inst: HintedExtendInstance, budget: int, stats: ExtendStats | None = None
) -> HintedExtendSolution:
    """Extend with arbitrary hint budgets.

    Small budgets go straight to the isolating-coloring solver.  Larger
    ones are first split by a balls-and-bins coloring of the weight
    universe into roughly budget / log(table) classes, each of which meets
    every hint set in O(log table) weights, then chained class by class.
    """
    L = inst.half_size
    log_m = math.log2(4 * L + 2)
    if budget <= max(1, 2 * log_m):
        return solve_small_b(inst, budget, stats)
    num_colors = math.ceil(budget / log_m)
    coloring = det_balls_and_bins(_hint_copies(inst), num_colors)
    ordered = _color_classes(inst.universe, coloring)
    inner_budget = 1
    for s in inst.sets:
        per: dict = {}
        for w in s:
            per[coloring[w]] = per.get(coloring[w], 0) + 1
        if per:
            inner_budget = max(inner_budget, max(per.values()))
    return _chain_color_classes(
        inst, ordered, partial(solve_small_b, budget=inner_budget, stats=stats)
    )


# ---------------------------------------------------------------------------
# verification


def relaxed_check(
    inst: HintedExtendInstance,
    sol: HintedExtendSolution,
    enum_limit: int = 200_000,
) -> list[str]:
    """Exhaustively verify the relaxed-extension contract; [] means pass.

    Checks feasibility, value accounting, support discipline, and the
    relaxed optimality clause: a suboptimal entry is an error only when
    every maximizer of that entry keeps its support inside the hint set of
    the base the maximizer extends.
    """
    errors = []
    L = inst.half_size
    if sol.half_size != L:
        return ["solution half_size mismatch"]
    weights = list(inst.universe)
    combos = 1
    for w in weights:
        combos *= inst.fns[w].cap + 1
    if combos > enum_limit:
        raise ValueError("instance too large for exhaustive checking")

    # all multiplicity vectors, grouped by total added weight
    vectors = [({}, 0, 0)]
    for w in weights:
        fn = inst.fns[w]
        nxt = []
        for mult, tot, val in vectors:
            for x in range(fn.cap + 1):
                m2 = dict(mult)
                if x:
                    m2[w] = x
                nxt.append((m2, tot + x * w, val + fn.prefix[x]))
        vectors = nxt
    by_total = {}
    for mult, tot, val in vectors:
        if tot > 2 * L:
            continue
        supp = frozenset(mult)
        best = by_total.get(tot)
        if best is None or val > best[0]:
            by_total[tot] = (val, [supp])
        elif val == best[0] and supp not in best[1]:
            best[1].append(supp)

    for i in inst.indices():
        rv, zv, xv = sol.value(i), sol.base(i), sol.mult(i)
        if is_bottom(rv):
            if xv:
                errors.append(f"index {i}: bottom entry with nonempty support")
            continue
        if zv < -L or zv > L:
            errors.append(f"index {i}: base {zv} out of range")
            continue
        qz = inst.q_at(zv)
        if is_bottom(qz):
            errors.append(f"index {i}: base {zv} has no value")
            continue
        total = sum(w * c for w, c in xv.items())
        if zv + total != i:
            errors.append(f"index {i}: weight conservation fails")
            continue
        bad = [w for w, c in xv.items() if w not in inst.fns or not 1 <= c <= inst.fns[w].cap]
        if bad:
            errors.append(f"index {i}: multiplicity of weight {bad[0]} invalid")
            continue
        hint = inst.hint_at(zv)
        if hint is None or not set(xv) <= hint:
            errors.append(f"index {i}: support escapes the base hint set")
            continue
        value = qz + sum(inst.fns[w].prefix[c] for w, c in xv.items())
        if value != rv:
            errors.append(f"index {i}: claimed value {rv} != recomputed {value}")
            continue
        if rv < inst.q_at(i):
            errors.append(f"index {i}: below the trivial value")

    table = list(zip(inst.keys.tolist(), inst.values.tolist()))
    for i in inst.indices():
        best = None
        for z, qz in table:
            if z > i:
                continue
            got = by_total.get(i - z)
            if got is None:
                continue
            cand = qz + got[0]
            if best is None or cand > best:
                best = cand
        rv = sol.value(i)
        if best is None:
            if not is_bottom(rv):
                errors.append(f"index {i}: finite value where none is feasible")
            continue
        if is_bottom(rv) or rv < best:
            # relaxed clause: fine if some maximizer escapes its hint set
            escaped = any(
                not supp <= inst.hint_at(z)
                for z, qz in table
                if z <= i and (got := by_total.get(i - z)) and qz + got[0] == best
                for supp in got[1]
            )
            if not escaped:
                errors.append(
                    f"index {i}: entry {rv} below optimum {best} with all "
                    "maximizers hint-contained"
                )
        elif rv > best:
            errors.append(f"index {i}: entry {rv} above true optimum {best}")
    return errors
