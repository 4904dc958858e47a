"""The weight-parameterized solver pipeline.

``solve_fast`` answers a 0-1 knapsack instance in time near-linear in n and
polynomial in the largest item weight, by searching exchange solutions
around the greedy prefix.  Its default (``dense``) path is:

1. normalize, and find the greedy prefix, its break point and the leftover
   capacity (the slack) by weighted selection on the efficiency keys, in
   O(n), without sorting (``core.LazyCore``);
2. the core fold: fold the candidate items one at a time, outward from the
   break, into a difference-indexed table (index = added minus removed
   weight), pruning as the core grows, and read the answer as the greedy
   profit plus the best entry at index <= slack.  The lazy core sorts each
   side one key band at a time, only as far as the fold and its prune
   read it.

The core fold alternates the next item to add (the add side: items after
the break, by decreasing efficiency) with the next item to remove (the
remove side: the greedy prefix backwards, by increasing efficiency); once
one side is used up it takes the other.  Only candidates are folded: the
2 * w_max best ranks per weight class and side, which hold every optimal
exchange; the core picks them with a per-weight counter as it walks.  Each
item is one vectorized shift-max pass over the table's live span, the cells
between its outermost finite entries.  The table starts at half-size
max(w_max, slack + 1) and doubles before a pass would reach past it, up to
2 * w_max^2, which every partial sum of an optimal exchange stays within.

Every eight passes the fold prunes (Pisinger's minknap reduction, with
rates that tighten as the core grows).  LB is the best entry at z <= slack
and LB's cell its lowest such index; it is a feasible exchange, so the
optimum is at least LB.  The items still to fold are no more efficient than
the next add item (wa, pa), and no less efficient than the next remove item
(wr, pr).  Every reachable index is a multiple of g, the gcd of the
candidate weights, so an exchange ends at an index <= s_g = g * (slack // g).
A completion from cell z thus gains at most (pa / wa) * (s_g - z) for
z <= slack and (pr / wr) * (s_g - z) above.  Profits are integers, so a
cell that cannot pass LB + 1 is dropped, ties with LB included, except
LB's cell itself; with no remove item left every cell above the slack is
dropped.  When only LB's cell survives and pa * (s_g - z_LB) < wa (always,
once the add side is used up), nothing can beat LB and the fold stops.
The prune runs at every profit magnitude: it clips q[z] - (LB + 1) to the
most a completion can move it before multiplying by the rate (w, p), so
the compare is exact on int64 tiles while 2 * p * (2 * half + 1) + 4 * w
stays under 2^62, and on Python-int tiles past that and for object cells.

The ``hinted`` engine runs the paper's phased algorithm on an instance
perturbed by ``break_ties``: weight layers around the break, dyadic rank
phases through the hint-set solver (stage one, ``first_stage_hinted``),
the outer layers folded while the table shrinks (``second_stage``), and
the original total recovered at the end.  It is the instrumented reference.
``solve_proximity_smawk`` folds every candidate class in one fixed table of
half-size 2 * w_max^2, with no profit bound: the simplest reference.  After
each class side it keeps only the cells the sides still to fold can carry
into (slack - w_max, slack], where every optimal exchange ends.  All of them
fold through ``_DenseFold``, which refuses a table past
``baselines.TABLE_BYTE_BUDGET`` before allocating it.  A class side is one
bounded item whose prefix profits are concave; ``_DenseFold.update`` folds
each run of k equal increments (k identical items) as 0-1 chunks of 1, 2,
4, ... copies plus the remainder, ceil(log2(k + 1)) passes instead of k.
A single item, as the core fold and the hinted engine's distinct profits
fold it, stays one pass.

``first_stage_dense`` is the earlier dense stage one: class-order phases,
folded unpruned.  No solve path calls it; only the benchmark's staged
mirror does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import hinted
from .baselines import _capacity_dp, check_table_bytes
from .core import (
    BOTTOM,
    NEG_SENTINEL,
    NEG_THRESHOLD,
    GreedySplit,
    Instance,
    LazyCore,
    break_ties,
    cell_dtype,
    greedy_split,
    is_bottom,
    normalize,
    recover_profit,
)
from .hinted import (
    NO_ITEMS,
    ConcaveProfitFn,
    ExtendStats,
    HintedExtendInstance,
)
from .partition import (
    DEFAULT_CONSTANT,
    PhaseSchedule,
    RankPartition,
    phase_schedule,
    rank_partition,
    weight_partition,
)


class VerificationError(RuntimeError):
    """A cross-check against a reference solver disagreed."""


@dataclass
class Stats:
    """Work counters a solve populates when passed in."""

    # cells of the largest table the solve built: each fold engine records
    # its own size, the capacity DP its row, the hinted stage one its span
    peak_table_cells: int = 0
    # item passes the dense path's core fold ran before it stopped, the
    # shift passes of solve_proximity_smawk's class fold, or the chunk passes
    # of the capacity DP (solve_bellman and the fallback; verify passes none)
    fold_passes: int = 0
    # the path that answered: "trivial", "bellman-fallback" (the capacity
    # DP, when w_max > n^2), "dense", "hinted", "proximity" or "bellman"
    engine: str = ""
    # the hinted engine's stage-one hint-extension work
    extend: ExtendStats = field(default_factory=ExtendStats)
    # index z of the table entry the answer was read from
    best_index: int | None = None
    # live-span slots the core fold's bound dropped, over all prunes
    cells_pruned: int = 0
    # items the dense path's lazy core placed in sorted key bands
    core_sorted: int = 0

    def note_table(self, cells: int) -> None:
        if cells > self.peak_table_cells:
            self.peak_table_cells = cells


@dataclass
class SolverConfig:
    """Tuning knobs.

    ``engine`` picks the path: "auto" resolves to the dense path, the pruned
    core fold, which wins at every practical scale under CPython; "hinted"
    forces the hint-propagating engine, whose bounds always use the analysis
    constant ``partition.DEFAULT_CONSTANT``.  ``verify`` (a bool)
    cross-checks the final answer against the capacity DP and raises
    ``VerificationError`` on mismatch; ``verify_cell_budget`` (a nonnegative
    int, or None for no limit) caps that DP's cells.  Other values of any
    field raise ``ValueError`` when the config is built.
    """

    engine: str = "auto"
    verify: bool = False
    verify_cell_budget: int | None = 400_000_000

    def __post_init__(self):
        if not isinstance(self.verify, bool):
            raise ValueError(f"verify must be a bool, got {self.verify!r}")
        b = self.verify_cell_budget
        if b is not None and (isinstance(b, bool) or not isinstance(b, Integral) or b < 0):
            raise ValueError(
                f"verify_cell_budget must be a nonnegative int or None, got {b!r}"
            )
        self.resolved_engine()

    @property
    def constant(self) -> float:
        # read by the benchmark's staged re-run only; no solve path reads it
        return DEFAULT_CONSTANT

    def resolved_engine(self) -> str:
        if self.engine not in ("auto", "dense", "hinted"):
            raise ValueError(f"unknown engine {self.engine!r}")
        return "dense" if self.engine == "auto" else self.engine


def _prefix_profits(profits, members, sign: int) -> list[int]:
    """[0, Q(1), ..., Q(cap)] over the rank-ordered members of one class."""
    out = [0]
    for idx in members:
        out.append(out[-1] + sign * profits[idx])
    return out


# (sentinel, threshold) per cell type: bottom is written as the sentinel and
# read as any value at or below the threshold, which leaves room for drift.
# int32 cells (profit totals within INT32_VALUE_CAP) halve the memory traffic
# that bounds the fold at large table sizes.
_BOTTOMS = {
    np.dtype(np.int32): (-(1 << 30), -(1 << 29)),
    np.dtype(np.int64): (NEG_SENTINEL, NEG_THRESHOLD),
    np.dtype(object): (BOTTOM, BOTTOM),
}

# scratch tile (cells); 1 MiB keeps the shift buffer cache resident so a
# pass streams three arrays through memory instead of five
_TILE = 1 << 17


def _chunks(prefix):
    """(copies, gain) of each 0-1 pass that folds the concave ``prefix``.

    Each run of k equal increments d is cut into chunks of 1, 2, 4, ...
    copies plus the remainder (the binary decomposition of a bounded item),
    ceil(log2(k + 1)) chunks whose copies sum to k; a chunk of c copies
    gains c * d.
    """
    x, cap = 1, len(prefix) - 1
    while x <= cap:
        d = prefix[x] - prefix[x - 1]
        end = x
        while end < cap and prefix[end + 1] - prefix[end] == d:
            end += 1
        left, c = end - x + 1, 1
        while left:
            c = min(c, left)
            yield c, c * d
            left -= c
            c *= 2
        x = end + 1


class _DenseFold:
    """Shift-max fold engine over one flat table with a tracked live span.

    Finite values only ever occupy slots [lo, hi); everything outside is
    bottom.  A class update reads and writes within the span plus the reach
    cap * weight of the class, so pass cost follows the occupied region
    instead of the allocated table.  Shifting by x * weight preserves the
    index residue, so residues never need separating; each binary chunk of
    a run of equal increments is one vectorized compare.  Both directions
    run through one pass loop, tile by tile through a small scratch block,
    ordered against the shift so a destination tile never feeds a source
    tile within the same pass, whatever the shift's length.

    Bottom sentinels inside the span drift upward by the positive
    increments folded onto them and never drift down (in-place maximum only
    raises cells).  A run's chunk gains sum to the run's total, so that
    climb is at most the add-side profit total, which
    ``cell_dtype`` keeps at or under the cap, far below the bottom threshold.

    ``dtype`` may be int64 (default), int32 (for instances whose profit
    total fits INT32_VALUE_CAP, with proportionally scaled sentinels), or
    ``object`` (plain ints and float bottom, for totals past int64 range).
    A table past ``baselines.TABLE_BYTE_BUDGET`` is refused with
    ``BudgetExceededError`` before it is allocated.  With ``stats`` the
    engine records its own size there when it is built and on each resize.
    """

    __slots__ = ("arr", "tmp", "half", "lo", "hi", "sentinel", "threshold", "stats")

    def __init__(self, half: int, dtype=np.int64, stats: Stats | None = None):
        size = 2 * half + 1
        check_table_bytes("fold table needs", size * np.dtype(dtype).itemsize)
        self.sentinel, self.threshold = _BOTTOMS[np.dtype(dtype)]
        self.arr = np.full(size, self.sentinel, dtype=dtype)
        self.arr[half] = 0
        self.tmp = np.empty(min(size, _TILE), dtype=self.arr.dtype)
        self.half = half
        self.lo = half
        self.hi = half + 1
        self.stats = stats
        if stats is not None:
            stats.note_table(size)

    def resize(self, new_half: int) -> None:
        """Re-center the table at half-size ``new_half``, keeping index z at z.

        Only the live span is copied; every slot outside it is bottom, so the
        new table is written with the sentinel there and nowhere else.
        """
        if new_half == self.half:
            return
        size = 2 * new_half + 1
        check_table_bytes("fold table needs", size * self.arr.itemsize)
        delta = new_half - self.half
        lo = min(max(self.lo + delta, 0), size)
        hi = min(max(self.hi + delta, 0), size)
        arr = np.empty(size, dtype=self.arr.dtype)
        arr[:lo] = self.sentinel
        arr[lo:hi] = self.arr[lo - delta : hi - delta]
        arr[hi:] = self.sentinel
        self.arr = arr
        self.tmp = np.empty(min(size, _TILE), dtype=arr.dtype)
        self.lo, self.hi = lo, hi
        self.half = new_half
        if self.stats is not None:
            self.stats.note_table(size)

    def update(self, weight: int, prefix, direction: int) -> int:
        """Fold one class: q[z] = max over x of q[z - direction*x*weight] + prefix[x].

        Runs one 0-1 shift pass per chunk of ``_chunks(prefix)``: each run of
        k equal increments d of the concave prefix becomes chunks of 1, 2,
        4, ... copies plus the remainder, a chunk of c copies shifting by
        c * weight and earning c * d.  Every count 0..k of a run is a sum of
        its chunks and no count past k is, so a set of chunks taking m
        copies earns at most the m largest increments, which is exactly
        prefix[m]; no pre-update snapshot of the table is needed.  A single
        item is one pass.  A chunk whose shift leaves the table is skipped.
        Returns the number of passes run.
        """
        cap = len(prefix) - 1
        a, b = self.lo, self.hi
        if cap == 0 or a >= b:
            return 0
        arr, tmp = self.arr, self.tmp
        size = arr.size
        passes = done = 0  # done: copies the chunks so far can place
        for copies, gain in _chunks(prefix):
            shift = copies * weight
            # sources the chunks so far can reach whose destination
            # src + direction * shift stays in the table
            if direction > 0:
                src, end = a, min(b + done * weight, size - shift)
            else:
                src, end = max(a - done * weight, shift), b
            done += copies
            ell = end - src
            if ell <= 0:
                continue
            passes += 1
            dst = src + direction * shift
            # walk tiles against the shift so every source cell is read
            # before any overlapping destination is written
            tiles = range(0, ell, _TILE)
            for off in reversed(tiles) if direction > 0 else tiles:
                blk = min(_TILE, ell - off)
                np.add(arr[src + off : src + off + blk], gain, out=tmp[:blk])
                out = arr[dst + off : dst + off + blk]
                np.maximum(out, tmp[:blk], out=out)
        if not passes:  # even one copy shifts the whole span out
            return 0
        if direction > 0:
            self.hi = min(size, b + cap * weight)
        else:
            self.lo = max(0, a - cap * weight)
        return passes

    def keep(self, first: int, last: int) -> None:
        """Drop every cell outside indices [first, last] and narrow the live span to it."""
        lo = min(max(self.lo, self.half + first), self.hi)
        hi = max(min(self.hi, self.half + last + 1), lo)
        self.arr[self.lo : lo] = self.sentinel
        self.arr[hi : self.hi] = self.sentinel
        self.lo, self.hi = lo, hi

    def cut(self, slack: int, s_g: int, add, remove, scratch: _CutScratch) -> int:
        """Drop every cell no completion can lift above LB, except LB's own.

        LB is the best entry at z <= slack and LB's cell its lowest such
        slot, which this returns.  ``add`` is the next add item (wa, pa), or
        (1, 0) when none is left; ``remove`` is the next remove item
        (wr, pr), or None.  A cell z <= slack survives only if
        wa*q[z] + pa*(s_g - z) >= wa*(LB + 1), a cell z > slack only if
        wr*q[z] + pr*(s_g - z) >= wr*(LB + 1), and none above the slack
        survives when ``remove`` is None.  The live span shrinks to the
        survivors.  Works tile by tile through ``scratch``: int64 tiles
        while a side's compare fits them, Python-int tiles past that and
        for object cells.
        """
        arr, half = self.arr, self.half
        split = half + slack + 1  # slots below split have z <= slack
        a, b = self.lo, self.hi
        # LB's cell has never been dropped, so some cell at z <= slack is finite
        pos = a + int(arr[a : min(b, split)].argmax())
        lb = int(arr[pos])
        first = last = None
        for start, stop, rate in ((a, min(b, split), add), (max(a, split), b, remove)):
            if rate is None:
                arr[start:stop] = self.sentinel
                continue
            w, p = rate
            # |s_g - z| <= 2 * half, so a cell with d = q[z] - (LB + 1) below
            # -reach fails the bound at every z and one above reach passes
            # it: clipping d to [-reach, reach] keeps every verdict, and
            # every term then stays under 2 p (2 half + 1) + 4 w
            gain = p * (2 * half + 1)
            reach = gain // w + 2
            fits = arr.dtype != object and 2 * gain + 4 * w < 1 << 62
            k, wide, ramp, dead_tile = scratch[np.int64 if fits else object]
            # LB >= 0, so this holds for int64 cells on int64 tiles and for
            # object cells, whose bottom is -inf
            bottoms_clip = lb + 1 - self.threshold > reach
            for off in range(start, stop, k.size):
                m = min(k.size, stop - off)
                seg = arr[off : off + m]
                t = np.subtract(seg, lb + 1, out=wide[:m])
                t.clip(-reach, reach, out=t)
                if not bottoms_clip:  # a bottom sentinel may lie above -reach
                    bottom = np.less_equal(seg, self.threshold, out=dead_tile[:m])
                    np.copyto(t, -reach, where=bottom)
                t *= w
                t -= np.multiply(k[:m], p, out=ramp[:m])
                # with the scalar: w*d + p*(s_g - z) < 0
                dead = np.less(t, -p * (half + s_g - off), out=dead_tile[:m])
                if off <= pos < off + m:
                    dead[pos - off] = False
                np.copyto(seg, self.sentinel, where=dead)
                j = int(dead.argmin())
                if not dead[j]:
                    if first is None:
                        first = off + j
                    last = off + m - int(dead[::-1].argmin())
        self.lo, self.hi = first, last
        return pos

    def window_best(self, slack: int):
        """Best finite value over indices z <= slack, lowest index on ties."""
        window = self.arr[: self.half + slack + 1]
        pos = int(window.argmax())  # object arrays too: first maximum wins
        if window[pos] <= self.threshold:
            return BOTTOM, None
        return int(window[pos]), pos - self.half


def first_stage_dense(
    profits,
    rank_part: RankPartition,
    schedule: PhaseSchedule,
    stats: Stats | None = None,
    dtype=np.int64,
) -> _DenseFold:
    """Fold all dyadic phases of the innermost layer, vectorized and unpruned.

    ``profits`` maps item index to the profit value being folded; returns
    the live engine so stage two can keep folding without a table copy.
    No solve path calls it: the dense path runs the core fold
    (``_core_fold``), and only the benchmark's staged mirror calls this.
    """
    eng = _DenseFold(schedule.table_half_sizes[0], dtype, stats)
    last_phase = 0
    for j in range(1, schedule.phase_count + 1):
        if rank_part.phase_items(+1, j) or rank_part.phase_items(-1, j):
            last_phase = j
    for j in range(1, last_phase + 1):
        eng.resize(schedule.table_half_sizes[j])
        for direction in (+1, -1):
            groups = rank_part.phase_items(direction, j)
            # ascending weights keep the live span growing as slowly as possible
            for w in sorted(groups):
                prefix = _prefix_profits(profits, groups[w], direction)
                eng.update(w, prefix, direction)
    return eng


def _mirrored(table: dict, direction: int) -> dict:
    """``table`` re-keyed by direction * i, keys still ascending."""
    if direction > 0:
        return table
    return {-i: v for i, v in reversed(table.items())}


def first_stage_hinted(
    primed: Instance,
    rank_part: RankPartition,
    schedule: PhaseSchedule,
    config: SolverConfig,
    inner_weights,
    stats: Stats | None = None,
) -> _DenseFold:
    """Fold the dyadic phases through the hint-set extension solver.

    Each table entry carries one hint set per side naming the weight classes
    it may still extend with.  A weight survives a phase on its side only
    when the entry consumed the whole phase group and the class continues
    into the next phase (optimal exchanges use rank prefixes, so a partial
    or skipped group ends the class for that entry).  Entries whose new
    hint set exceeds the next budget are deleted.  The table is a dict of
    finite entries keyed by index, so it grows with the phase half-size
    without moving; the remove side is solved on the table mirrored to
    index -i.  The finished table is returned as a fold engine over the
    perturbed profits, for stage two.  ``config`` is not read; it stays in
    the signature because callers pass the arguments positionally.
    """
    profits = primed.profits.tolist()
    universe = tuple(sorted(inner_weights))
    q = {0: 0}
    # each entry's hint sets, per side: hints[+1] adds, hints[-1] removes
    hints = {
        d: {0: frozenset(w for w in universe if rank_part.group(d, 1, w))}
        for d in (+1, -1)
    }

    ext_stats = stats.extend if stats is not None else None
    for phase in range(1, schedule.phase_count + 1):
        half = schedule.table_half_sizes[phase]
        for direction in (+1, -1):
            groups = {w: rank_part.group(direction, phase, w) for w in universe}
            fns = {
                w: ConcaveProfitFn(_prefix_profits(profits, g, direction))
                for w, g in groups.items()
            }
            inst = HintedExtendInstance(
                half, universe, _mirrored(q, direction),
                _mirrored(hints[direction], direction), fns,
            )
            sol = hinted.solve(inst, schedule.hint_budgets[phase], stats=ext_stats)

            # a weight survives on an entry that took its whole phase group,
            # if its class continues into the next phase
            whole = {
                w: len(g) for w, g in groups.items()
                if rank_part.group(direction, phase + 1, w)
            }
            next_budget = schedule.hint_budgets[phase + 1]
            # entries share multiplicity maps, so each map is read once;
            # None marks an over-budget hint set, which is dropped entirely
            survivors_of: dict = {}
            new_q: dict = {}
            new_hints = {+1: {}, -1: {}}
            passthrough = hints[-direction]
            base_of, mult_of = sol.z.get, sol.x.get
            for i, value in _mirrored(sol.r, direction).items():
                j = direction * i  # the index in the solved table
                xs = mult_of(j, NO_ITEMS)
                key = id(xs)
                if key not in survivors_of:
                    survivors = [w for w, cnt in xs.items() if whole.get(w) == cnt]
                    survivors_of[key] = (
                        frozenset(survivors) if len(survivors) <= next_budget else None
                    )
                hint = survivors_of[key]
                if hint is None:
                    continue
                new_q[i] = value
                new_hints[direction][i] = hint
                new_hints[-direction][i] = passthrough[direction * base_of(j, j)]
            q, hints = new_q, new_hints
            if stats is not None:
                stats.note_table(2 * half + 1)

    eng = _DenseFold(half, cell_dtype(sum(profits)), stats)
    eng.arr[half] = eng.sentinel
    slots = [i + half for i in q]
    eng.arr[slots] = list(q.values())
    eng.lo, eng.hi = (slots[0], slots[-1] + 1) if slots else (half, half)
    return eng


def _fold_classes(eng: _DenseFold, weights, split: GreedySplit, profits) -> int:
    """Fold both sides of each weight class, in ascending weight order.

    Returns the number of shift passes run.
    """
    passes = 0
    for w in sorted(weights):
        for direction, side in ((+1, split.add_candidates), (-1, split.remove_candidates)):
            passes += eng.update(
                w, _prefix_profits(profits, side.get(w, ()), direction), direction
            )
    return passes


def _best_entry(eng: _DenseFold, slack: int, stats: Stats | None):
    """Best table entry at index <= slack; it always exists for a finished fold."""
    best, best_z = eng.window_best(slack)
    if is_bottom(best):
        raise VerificationError("no feasible table entry survived the fold")
    if stats is not None:
        stats.best_index = best_z
    return best


def second_stage(
    eng: _DenseFold,
    primed: Instance,
    split: GreedySplit,
    schedule: PhaseSchedule,
    layers: list[set[int]],
    config: SolverConfig,
    profits,
    base_profit,
    stats: Stats | None = None,
):
    """Fold the outer weight layers while shrinking the table.

    Layer j is folded at half-size L'_{j-1}, after which the table shrinks
    to L'_j: outer layers interact with optimal exchanges only near the
    break point, so the index range can drop as coarser weights join.
    ``eng`` is the fold stage one returned (either engine); ``primed`` is
    the instance ``split`` was built on; ``profits`` must be the same
    per-item values stage one folded, and ``base_profit`` the greedy
    solution's total under them.  ``config`` is not read; it stays in the
    signature because callers pass the arguments positionally.  Returns
    base_profit plus the best table entry within the leftover capacity.
    """
    eng.resize(schedule.stage_two_size(1))
    for layer in range(2, len(layers) + 1):
        _fold_classes(eng, layers[layer - 1], split, profits)
        eng.resize(schedule.stage_two_size(layer))

    slack = primed.capacity - split.greedy_weight
    assert 0 <= slack < primed.w_max <= eng.half
    return base_profit + _best_entry(eng, slack, stats)


# item passes of the core fold between two prunes
_PRUNE_EVERY = 8

# tile of the prune step's int64 scratch (cells), 512 KiB per buffer; at
# _TILE the buffers added about 3 MB to peak RSS and were no faster
_PRUNE_TILE = _TILE // 2


class _CutScratch(dict):
    """Tiles for ``_DenseFold.cut`` on tables of up to ``cells`` cells.

    Keyed by tile type (np.int64 or object); each type's index ramp, terms,
    rate ramp and mask tiles are built when a compare first asks for it.
    """

    def __init__(self, cells: int):
        super().__init__()
        self.size = min(_PRUNE_TILE, cells)

    def __missing__(self, dtype):
        n = self.size
        tiles = self[dtype] = (
            np.arange(n, dtype=dtype), np.empty(n, dtype), np.empty(n, dtype), np.empty(n, bool)
        )
        return tiles


def _core_fold(inst: Instance, core: LazyCore, stats: Stats | None = None) -> int:
    """The dense path's answer: fold the candidates outward from the break.

    See the module docstring for the order, the table growth, the prune and
    the stop rule.  Each side of ``core`` is read only as far as the fold
    and its prune look.  Returns the greedy profit plus the best entry at
    z <= slack.
    """
    adding, removing = core.add, core.remove
    aw, ap = adding.weights, adding.profits
    rw, rp = removing.weights, removing.profits

    slack = inst.capacity - core.greedy_weight
    # every weight has a candidate on its side, so g is the gcd of all
    # weights; a gcd of 1 among the first few is final
    g = math.gcd(*inst.weights[:64].tolist())
    if g > 1:
        g = math.gcd(g, int(np.gcd.reduce(inst.weights)))
    s_g = g * (slack // g)
    cap = 2 * inst.w_max * inst.w_max
    dtype = cell_dtype(int(inst.profits.sum()))
    scratch = _CutScratch(2 * cap + 1)

    eng = _DenseFold(min(cap, max(inst.w_max, slack + 1)), dtype, stats)
    i = j = passes = 0
    while True:
        more_adds = i < len(aw) or adding.load()
        more_removes = j < len(rw) or removing.load()
        if more_adds and (not more_removes or passes % 2 == 0):
            w, p, direction = aw[i], ap[i], 1
            i += 1
            reach = eng.hi - 1 - eng.half + w
        elif more_removes:
            w, p, direction = rw[j], -rp[j], -1
            j += 1
            reach = eng.half - eng.lo + w
        else:
            break
        if reach > eng.half and eng.half < cap:
            half = eng.half
            while half < reach and half < cap:
                half = min(2 * half, cap)
            eng.resize(half)
        eng.update(w, (0, p), direction)
        passes += 1
        if passes % _PRUNE_EVERY == 0:
            add = (aw[i], ap[i]) if i < len(aw) or adding.load() else (1, 0)
            remove = (rw[j], rp[j]) if j < len(rw) or removing.load() else None
            span = eng.hi - eng.lo
            pos = eng.cut(slack, s_g, add, remove, scratch)
            if stats is not None:
                stats.cells_pruned += span - (eng.hi - eng.lo)
            # LB's cell is then the only finite one, which _best_entry reads
            if eng.hi - eng.lo == 1 and add[1] * (s_g - (pos - eng.half)) < add[0]:
                break
    if stats is not None:
        stats.fold_passes = passes
        stats.core_sorted = adding.sorted + removing.sorted
    return core.greedy_profit + _best_entry(eng, slack, stats)


def solve_fast(raw_items, capacity, config: SolverConfig | None = None, stats: Stats | None = None) -> int:
    """Optimal total profit, parameterized by the largest item weight.

    Falls back to the capacity DP when the largest weight exceeds n^2 (the
    table there is smaller than any exchange structure would be); that DP
    refuses with ``BudgetExceededError`` past its default cell budget.  With
    ``config.verify`` the answer is recomputed by the capacity DP and must
    agree.
    """
    config = config or SolverConfig()
    inst = normalize(raw_items, capacity)
    if inst.all_fit:
        if stats is not None:
            stats.engine = "trivial"
        return inst.total_profit
    if inst.w_max > inst.n * inst.n:
        if stats is not None:
            stats.engine = "bellman-fallback"
        answer = _capacity_dp(inst, stats=stats)
    else:
        answer = _solve_structured(inst, config, stats)
    if config.verify:
        ref = _capacity_dp(inst, cell_budget=config.verify_cell_budget)
        if ref != answer:
            raise VerificationError(
                f"fast answer {answer} disagrees with capacity DP {ref}"
            )
    return answer


def _solve_structured(inst: Instance, config: SolverConfig, stats: Stats | None) -> int:
    engine = config.resolved_engine()
    if stats is not None:
        stats.engine = engine
    if engine == "dense":
        return _core_fold(inst, LazyCore(inst), stats)
    work = break_ties(inst)
    split = greedy_split(work)
    wpart = weight_partition(work, split, DEFAULT_CONSTANT)
    schedule = phase_schedule(work.w_max, DEFAULT_CONSTANT, len(wpart.innermost))
    rank_part = rank_partition(work, split, wpart.innermost)
    eng = first_stage_hinted(work, rank_part, schedule, config, wpart.innermost, stats)
    total = second_stage(
        eng, work, split, schedule, wpart.layers, config,
        work.profits.tolist(), split.greedy_profit, stats,
    )
    return recover_profit(total, work.tie_break_m, work.w_max)


def solve_proximity_smawk(raw_items, capacity, stats: Stats | None = None) -> int:
    """Reference solver: greedy proximity plus one batched fold per class.

    Uses a fixed difference table of half-size 2 * w_max^2 (optimal
    exchanges never move the index further) and folds every weight class
    once per side, without layering, phases or profit bounds, over the
    original profits.  Simpler object to audit than the full pipeline,
    quadratically bigger table.  The classes go light at both ends, the
    order ``baselines._capacity_dp`` gives its chunks: ascending weights
    alternately to the front and the back.  On the benchmark's instances
    the passes read about a tenth fewer cells than in ascending order.

    The fold keeps only cells that can still reach an index where an
    optimal exchange may end.  A finite entry at z is the gain of an
    exchange whose solution weighs the greedy weight plus z, and the best
    entry at z <= slack is the optimum.  An optimal solution leaves less
    than w_max of the capacity unused: otherwise any item it lacks (one
    exists, since not all items fit) would fit and add a profit of at least
    1.  So every entry at z <= slack - w_max is below the best, which lies
    in (slack - w_max, slack].  With A and R the candidate weight of the add
    and remove sides still to fold, a cell at z can end only in
    [z - R, z + A]; after each class side every cell outside
    [slack - w_max + 1 - A, slack + R] is dropped.  Every path into
    (slack - w_max, slack] stays inside that window, so each final value
    there, the answer, its index and the pass count are those of the full
    fold, on the same 4 * w_max^2 + 1 cells.  The window reads weights only,
    and only the weight still to fold, so it holds in any class order.
    """
    inst = normalize(raw_items, capacity)
    if inst.all_fit:
        if stats is not None:
            stats.engine = "trivial"
        return inst.total_profit
    half = 2 * inst.w_max * inst.w_max
    split = greedy_split(inst)
    if stats is not None:
        stats.engine = "proximity"
    profits = inst.profits.tolist()
    eng = _DenseFold(half, cell_dtype(sum(profits)), stats)
    slack = inst.capacity - split.greedy_weight
    sides = ((+1, split.add_candidates), (-1, split.remove_candidates))
    # candidate weight still to fold on each side: how far a cell may move
    rest = {d: sum(w * len(m) for w, m in side.items()) for d, side in sides}
    passes = 0
    ws = sorted(split.add_candidates.keys() | split.remove_candidates.keys())
    for w in ws[::2] + ws[1::2][::-1]:
        for direction, side in sides:
            members = side.get(w)
            if members:
                passes += eng.update(w, _prefix_profits(profits, members, direction), direction)
                rest[direction] -= w * len(members)
                eng.keep(slack - inst.w_max + 1 - rest[+1], slack + rest[-1])
    if stats is not None:
        stats.fold_passes = passes
    return split.greedy_profit + _best_entry(eng, slack, stats)
