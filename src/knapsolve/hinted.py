"""Hint-guided extension of sparse DP tables.

The central object is a table q over signed indices [-L, L] together with a
hint set S[i] per finite entry: a set of item weights that are still allowed
to extend entry i.  ``solve_singleton`` handles the case where every hint
has at most one weight: it takes the row maxima of each (weight, residue)
group, by SMAWK when the group's profit function takes more than
``_SCAN_CAP`` items and by a direct scan of each row's few real entries
otherwise, and merges the resulting winner rows with a bucket scan, so the
work stays near-linear in table size plus hint count.  ``solve_small_b``
lifts that to hint sets of size <= b through isolating colorings, and
``solve`` handles arbitrary budgets by first splitting the weight universe
with a balls-and-bins coloring.

Outputs are "relaxed" solutions: entry i is guaranteed optimal only when
every maximizer of i keeps its support inside S[z] for its base z; they are
always feasible, support-disciplined, and never below the trivial value
q[i].  ``relaxed_check`` verifies exactly this contract by enumeration.

Tables are sparse.  An instance holds its finite entries only, as dicts
keyed by the signed index i: ``q`` maps i to its value and ``hints`` maps
the same keys to frozensets of weights.  A solution's ``r`` holds its
finite values the same way, and ``z`` and ``x`` hold the base and the
multiplicities only of the entries that extend a base.  Absent keys read
as bottom, no hint set, base i and no items.  Keys ascend: the SMAWK
columns and the colorings' inputs follow index order.  A built table is
never mutated, so the algebra shares dicts and sets between tables
instead of copying them, and ``solve_singleton`` copies ``q`` before its
scan writes to it.  Each call works once per distinct hint set, grouping
entries by set equality, so equal sets held as distinct objects give the
same result as one shared object.  The colorings still see one set per
index of the 2L + 1, since their parameters depend on that count: the
finite entries' sets come first, padded with empty sets
(``_coloring_sets``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from types import MappingProxyType

from .colorings import (
    det_balls_and_bins,
    det_isolating_colorings,
    is_isolated,
)
from .core import BOTTOM, is_bottom
from .smawk import row_maxima

# The multiplicity map of every entry no extension touched; read-only, so
# one object serves every table.
NO_ITEMS = MappingProxyType({})


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


@dataclass
class HintedExtendInstance:
    """A table over [-half_size, half_size]: its finite entries and hint sets.

    ``q`` maps index to value and ``hints`` maps the same indices, in the
    same ascending order, to the frozenset of weights each entry may still
    extend with.  ``universe`` is the sorted weights ``fns`` covers.
    """

    half_size: int
    universe: tuple
    q: dict
    hints: dict
    fns: dict

    @classmethod
    def build(cls, half_size, entries, fns):
        """Construct from ``{index: (value, hint set)}``, in any key order."""
        q, hints = {}, {}
        for i in sorted(entries):
            q[i], hint = entries[i]
            hints[i] = frozenset(hint)
        inst = cls(half_size, tuple(sorted(fns)), q, hints, dict(fns))
        inst.validate()
        return inst

    @property
    def size(self) -> int:
        return 2 * self.half_size + 1

    def indices(self):
        return range(-self.half_size, self.half_size + 1)

    def q_at(self, index: int):
        return self.q.get(index, BOTTOM)

    def validate(self) -> None:
        uni = set(self.universe)
        if set(self.fns) != uni:
            raise ValueError("profit functions must cover exactly the universe")
        if not all(type(w) is int and w >= 1 for w in self.universe):
            raise ValueError("weights must be positive integers")
        if not all(type(p) is int for fn in self.fns.values() for p in fn.prefix):
            raise ValueError("profit prefixes must be integers")
        keys = list(self.q)
        if keys != list(self.hints):
            raise ValueError("hint sets must exist exactly on finite entries")
        if keys and (keys[0] < -self.half_size or keys[-1] > self.half_size):
            raise ValueError("table index outside [-half_size, half_size]")
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("table indices must ascend")
        if not all(type(v) is int for v in self.q.values()):
            raise ValueError("the table holds finite integer entries only")
        if not all(isinstance(s, frozenset) for s in self.hints.values()):
            raise ValueError("hint sets must be frozensets")
        for s in set(self.hints.values()):
            if not s <= uni:
                raise ValueError("hint sets must stay inside the universe")


@dataclass
class HintedExtendSolution:
    """Extended values ``r`` (finite entries, ascending) and their witnesses.

    ``z`` and ``x`` map each entry that extends a base to that base and to
    its multiplicities; every other entry is its own base and adds nothing.
    """

    half_size: int
    r: dict
    z: dict
    x: dict

    def value(self, index: int):
        return self.r.get(index, BOTTOM)

    def base(self, index: int) -> int:
        return self.z.get(index, index)

    def mult(self, index: int):
        return self.x.get(index, NO_ITEMS)


def trivial_solution(inst: HintedExtendInstance) -> HintedExtendSolution:
    return HintedExtendSolution(inst.half_size, inst.q, {}, {})


def _value_spread(inst: HintedExtendInstance) -> int:
    values = inst.q.values()
    spread = (max(values) - min(values)) if values else 0
    fn_spread = max((fn.spread() for fn in inst.fns.values()), default=0)
    return spread + fn_spread + 1


# Groups whose profit function takes at most this many items are solved by
# a direct scan; a row of such a group holds at most _SCAN_CAP + 1 real
# entries, fewer than SMAWK spends on its continuation padding.
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


def _scan_ranges(cols, q, prefix, w, L):
    """``_smawk_ranges`` by a leftmost maximum over each live row's real entries.

    A live row i = j + x * w (x in [1, cap], i <= L) holds a real entry
    q[i - y * w] + prefix[y] for each base among i - y * w, y in [0, cap];
    every other entry of the row is continuation, which loses strictly to
    any real one, so SMAWK's leftmost maximum is the leftmost real one.
    This is O(rows * cap) evaluations, short of SMAWK's bound only for long
    profit functions.
    """
    cap = len(prefix) - 1
    qv = {j: q[j] for j in cols}
    get = qv.get
    # (shift back to the base, its multiplicity, its profit), leftmost first
    steps = [(y * w, y, prefix[y]) for y in range(cap, -1, -1)]
    won: dict = {}  # base -> [x_lo, x_hi]
    evals = 0
    for i in sorted({j + x * w for j in cols for x in range(1, cap + 1)}):
        if i > L:
            break
        best = None  # a live row holds at least the base that reaches it
        for back, y, p in steps:
            v = get(i - back)
            if v is not None:
                evals += 1
                if best is None or v + p > best:
                    best, best_y = v + p, y
        if best_y:
            k = i - best_y * w
            if k in won:  # rows ascend, so its multiplicities do too
                won[k][1] = best_y
            else:
                won[k] = [best_y, best_y]
    return [(j, *won[j]) for j in cols if j in won], evals


def solve_singleton(
    inst: HintedExtendInstance, stats: ExtendStats | None = None
) -> HintedExtendSolution:
    """Extend a table whose hint sets all have at most one weight.

    Candidates i = j + x*w for a hinted base j are grouped by weight and
    residue; each group is one concave matrix, and each base's winning
    multiplicities are the rows where it holds the row's leftmost maximum.
    A group whose profit function takes more than ``_SCAN_CAP`` items gets
    them from one SMAWK pass (``_smawk_ranges``); a shorter one from a
    direct scan of each row's few real entries (``_scan_ranges``), which
    gives the same ranges.  Winner columns turn into arithmetic
    progressions, appended in column order, that a single left-to-right
    bucket scan merges: at each index the best progression is applied
    (strict improvement only) and advanced one step, the rest stay parked.
    The work counters are added into ``stats``; ``matrix_evals`` counts
    the entries either path evaluated.
    """
    L = inst.half_size
    q = inst.q
    hints = inst.hints
    weight_of = {}
    for s in set(hints.values()):
        if len(s) > 1:
            raise ValueError("solve_singleton needs hint sets of size <= 1")
        if s:
            (weight_of[s],) = s
    bases_by_group: dict[tuple[int, int], list[int]] = {}
    for j, s in hints.items():
        w = weight_of.get(s)
        if w is not None:
            bases_by_group.setdefault((w, j % w), []).append(j)

    if not bases_by_group:
        return trivial_solution(inst)

    big = _value_spread(inst)
    # index -> progressions parked there; ``pending`` heaps the occupied indices
    buckets: dict[int, list] = {}
    evals = aps = 0

    for (w, c), cols in sorted(bases_by_group.items()):
        prefix = inst.fns[w].prefix
        cap = len(prefix) - 1
        # no live row: every base's first extension lies past L
        if not cap or cols[0] + w > L:
            continue
        if cap <= _SCAN_CAP:
            ranges, n = _scan_ranges(cols, q, prefix, w, L)
        else:
            ranges, n = _smawk_ranges(cols, q, prefix, w, L, big)
        evals += n
        aps += len(ranges)
        for j, x_lo, x_hi in ranges:
            # a progression: [base, weight, next x, last x, q at base, prefix]
            buckets.setdefault(j + x_lo * w, []).append([j, w, x_lo, x_hi, q[j], prefix])
    inserts = aps

    # the input table is shared, never written: the scan fills a copy
    r = dict(q)
    z, xs = {}, {}
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
        if best_val > r.get(i, BOTTOM):
            r[i] = best_val
            z[i] = best[0]
            xs[i] = {best[1]: best[2]}
        # only the winning progression moves on; losers stay parked
        if best[2] < best[3]:
            best[2] += 1
            nxt = i + best[1]
            if nxt not in buckets:
                buckets[nxt] = []
                heapq.heappush(pending, nxt)
            buckets[nxt].append(best)
            inserts += 1
    if stats is not None:
        stats.matrix_evals += evals
        stats.ap_count += aps
        stats.bucket_inserts += inserts
    if len(r) > len(q):  # new entries went in after the old ones
        r = dict(sorted(r.items()))
    return HintedExtendSolution(L, r, z, xs)


# ---------------------------------------------------------------------------
# composition algebra


def restrict(inst: HintedExtendInstance, subset) -> HintedExtendInstance:
    """Keep only the weights in ``subset``: hints and profit fns shrink."""
    vset = frozenset(subset) & set(inst.universe)
    # one intersection per distinct hint set
    shrunk = {s: s & vset for s in set(inst.hints.values())}
    hints = {i: shrunk[s] for i, s in inst.hints.items()}
    fns = {w: fn for w, fn in inst.fns.items() if w in vset}
    return HintedExtendInstance(inst.half_size, tuple(sorted(vset)), inst.q, hints, fns)


def apply_update(
    inst: HintedExtendInstance, subset, sol: HintedExtendSolution
) -> HintedExtendInstance:
    """Fold a solution over ``subset`` back in: q := r, hints follow bases.

    The new entry i inherits the hint set of its base minus the consumed
    weights, so later stages can keep extending without reusing them.
    """
    vset = frozenset(subset)
    hints = {}
    # bases share few distinct hint sets: subtract once per set
    minus: dict = {}
    base_of, hint_of = sol.z.get, inst.hints.get
    for i in sol.r:
        src = hint_of(base_of(i, i))
        if src is None:
            raise ValueError("solution base lacks a hint set")
        s = minus.get(src)
        if s is None:
            s = minus[src] = src - vset
        hints[i] = s
    universe = tuple(w for w in inst.universe if w not in vset)
    fns = {w: fn for w, fn in inst.fns.items() if w not in vset}
    return HintedExtendInstance(inst.half_size, universe, sol.r, hints, fns)


def compose(
    outer: HintedExtendSolution, inner: HintedExtendSolution
) -> HintedExtendSolution:
    """Chain outer (solved on inner's updated table) through inner."""
    if outer.half_size != inner.half_size:
        raise ValueError("solutions live on different tables")
    # an entry outer left alone keeps inner's extension, and every entry
    # inner extended is finite in outer, so it is one of outer's entries
    z, xs = dict(inner.z), dict(inner.x)
    for i, mid in outer.z.items():
        z[i] = inner.base(mid)
        own, below = outer.x[i], inner.x.get(mid)
        if below:
            merged = dict(below)
            for w, cnt in own.items():
                merged[w] = merged.get(w, 0) + cnt
            own = merged
        xs[i] = own  # maps are never mutated, so outer's is shared
    return HintedExtendSolution(outer.half_size, outer.r, z, xs)


def entrywise_max_solutions(
    a: HintedExtendSolution, b: HintedExtendSolution
) -> HintedExtendSolution:
    if a.half_size != b.half_size:
        raise ValueError("solutions disagree on shape")
    r, z, xs = {}, {}, {}
    # b wins ties; multiplicity maps are never mutated, so they are shared
    for i in sorted(a.r.keys() | b.r.keys()):
        src = a if a.value(i) > b.value(i) else b
        r[i] = src.r[i]
        if i in src.z:
            z[i], xs[i] = src.z[i], src.x[i]
    return HintedExtendSolution(a.half_size, r, z, xs)


# ---------------------------------------------------------------------------
# general budgets


def _coloring_sets(inst: HintedExtendInstance) -> list:
    """One set per table index: the hint sets in index order, then empty sets.

    The colorings' parameters depend on the number of sets m (the set
    balancing's t and lambda, the rounds cap of the isolating colorings),
    and the analysis colors one set per index of the 2L + 1, a bottom entry
    holding the empty set.  An empty set changes nothing else, so the
    padding goes at the end.
    """
    sets = list(inst.hints.values())
    sets.extend(repeat(frozenset(), inst.size - len(sets)))
    return sets


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
    sets = set(inst.hints.values())
    largest = max(map(len, sets), default=0)
    if largest > budget:
        raise ValueError("hint set exceeds the declared budget")
    if largest <= 1:
        return solve_singleton(inst, stats)
    colorings = det_isolating_colorings(_coloring_sets(inst), budget)
    # entries with equal hint sets share an owner
    owner_of = {
        s: next((idx for idx, c in enumerate(colorings) if is_isolated(s, c)), None)
        for s in sets
    }
    # each coloring's share of the table: (values, hint sets), ascending
    owned: dict = {}
    for i, s in inst.hints.items():
        q, hints = owned.setdefault(owner_of[s], ({}, {}))
        q[i], hints[i] = inst.q[i], s
    solve_class = partial(solve_singleton, stats=stats)
    result = None
    for idx, coloring in enumerate(colorings):
        if idx not in owned:
            continue
        q, hints = owned[idx]
        masked = HintedExtendInstance(inst.half_size, inst.universe, q, hints, inst.fns)
        # weights in no hint set are uncolored; any class works for them
        ordered = _color_classes(inst.universe, coloring)
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
    coloring = det_balls_and_bins(_coloring_sets(inst), num_colors)
    ordered = _color_classes(inst.universe, coloring)
    inner_budget = 1
    for s in set(inst.hints.values()):
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
        ok = True
        for w, c in xv.items():
            if w not in inst.fns or c < 1 or c > inst.fns[w].cap:
                errors.append(f"index {i}: multiplicity of weight {w} invalid")
                ok = False
                break
        if not ok:
            continue
        hint = inst.hints.get(zv)
        if hint is None or not set(xv) <= hint:
            errors.append(f"index {i}: support escapes the base hint set")
            continue
        value = qz + sum(inst.fns[w].prefix[c] for w, c in xv.items())
        if value != rv:
            errors.append(f"index {i}: claimed value {rv} != recomputed {value}")
            continue
        if rv < inst.q_at(i):
            errors.append(f"index {i}: below the trivial value")

    for i in inst.indices():
        best = None
        for z, qz in inst.q.items():
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
            escaped = False
            for z, qz in inst.q.items():
                if z > i:
                    continue
                got = by_total.get(i - z)
                if got is None or qz + got[0] != best:
                    continue
                hint = inst.hints[z]
                for supp in got[1]:
                    if not supp <= hint:
                        escaped = True
                        break
                if escaped:
                    break
            if not escaped:
                errors.append(
                    f"index {i}: entry {rv} below optimum {best} with all "
                    "maximizers hint-contained"
                )
        elif rv > best:
            errors.append(f"index {i}: entry {rv} above true optimum {best}")
    return errors
