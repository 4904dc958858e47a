"""Hint-propagating table extension: solvers, algebra, relaxed verification."""

import itertools
import math
import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from knapsolve import (
    SolverConfig,
    Stats,
    break_ties,
    generate_instance,
    normalize,
    solve_bellman,
    solve_fast,
)
from knapsolve.core import BOTTOM, NEG_SENTINEL, is_bottom
from knapsolve import hinted
from knapsolve.hinted import (
    _SCAN_CAP,
    ConcaveProfitFn,
    ExtendStats,
    HintedExtendInstance,
    HintedExtendSolution,
    _row_winners,
    _smawk_ranges,
    _value_spread,
    apply_update,
    compose,
    entrywise_max_solutions,
    relaxed_check,
    restrict,
    solve,
    solve_singleton,
    solve_small_b,
    trivial_solution,
)


# build(half, {index: (q, hint set)}, fns); other indices are bottom
build = HintedExtendInstance.build


def random_instance(rng, max_half=5, max_universe=3, max_hint=1, max_cap=3):
    half = rng.randint(0, max_half)
    n_uni = rng.randint(0, max_universe)
    universe = rng.sample(range(1, 7), n_uni)
    fns = {}
    for w in universe:
        cap = rng.randint(0, max_cap)
        incs = sorted((rng.randint(-6, 9) for _ in range(cap)), reverse=True)
        prefix = [0]
        for d in incs:
            prefix.append(prefix[-1] + d)
        fns[w] = ConcaveProfitFn(prefix)
    entries = {}
    for z in range(-half, half + 1):
        if rng.random() < 0.5:
            k = rng.randint(0, min(max_hint, len(universe)))
            entries[z] = (rng.randint(-20, 20), rng.sample(universe, k))
    if not entries:
        entries[0] = (0, rng.sample(universe, min(max_hint, len(universe))))
    return build(half, entries, fns)


def brute_force_unconstrained(inst):
    """Best finite extension per index with hint sets ignored (an upper bound)."""
    best = {}
    weights = sorted(inst.universe)
    ranges = [range(inst.fns[w].cap + 1) for w in weights]
    for z in inst.indices():
        if is_bottom(inst.q_at(z)):
            continue
        for combo in itertools.product(*ranges):
            dz = sum(w * x for w, x in zip(weights, combo))
            tz = z + dz
            if tz > inst.half_size:
                continue
            gain = sum(inst.fns[w].value(x) for w, x in zip(weights, combo))
            cand = inst.q_at(z) + gain
            if cand > best.get(tz, BOTTOM):
                best[tz] = cand
    return best


def test_profit_fn_validation():
    fn = ConcaveProfitFn([0, 5, 8])
    assert fn.cap == 2
    assert fn.value(0) == 0 and fn.value(1) == 5 and fn.value(2) == 8
    assert fn.value(9) == 8  # clamps at cap
    assert fn.spread() == 8
    with pytest.raises(ValueError):
        ConcaveProfitFn([1, 2])
    with pytest.raises(ValueError):
        ConcaveProfitFn([0, 1, 3])
    with pytest.raises(ValueError):
        fn.value(-1)


def test_build_validation():
    fn = ConcaveProfitFn([0, 1])
    with pytest.raises(ValueError):
        build(1, {2: (0, set())}, {})  # index past half_size
    good = build(1, {0: (0, {2})}, {2: fn})
    assert good.entries() == {0: (0, frozenset({2}))}
    stray = HintedExtendInstance(
        1, good.universe, good.keys, good.values, good.sets, good.codes, {2: fn, 3: fn}
    )
    with pytest.raises(ValueError):
        stray.validate()  # profit fn for a weight outside the universe
    with pytest.raises(ValueError):
        build(1, {0: (0, {2})}, {})  # hint outside universe
    with pytest.raises(ValueError):
        build(0, {0: (BOTTOM, set())}, {})  # hint on bottom
    with pytest.raises(ValueError):
        build(0, {0: (0, set())}, {0: ConcaveProfitFn([0])})  # weight 0
    with pytest.raises(ValueError):
        build(1, {0: (0, {True})}, {True: fn})  # a bool weight
    with pytest.raises(ValueError):
        build(1, {0: (0.5, {2})}, {2: fn})  # a float table value
    with pytest.raises(ValueError):
        build(1, {0: (0, {2})}, {2: ConcaveProfitFn([0, 1.5])})  # a float profit prefix


def test_validate_refuses_malformed_tables():
    h = frozenset()
    fns = {1: ConcaveProfitFn([0, 1])}

    def table(keys, codes, sets=(h,), values=None, half=2):
        keys = np.array(keys, np.int64)
        values = np.zeros(keys.size, np.int64) if values is None else np.array(values)
        return HintedExtendInstance(half, (1,), keys, values, sets, np.array(codes, np.intp), fns)

    table([-2, 2], [0, 0]).validate()
    wide = np.array([0, 1 << 70], object)
    table([-2, 2], [1, 0], sets=(h, frozenset({1})), values=wide).validate()
    bad = [
        table([-3], [0]),  # index past -half_size
        table([3], [0]),  # index past half_size
        table([1, -1], [0, 0]),  # keys out of order
        table([1, 1], [0, 0]),  # a key twice
        table([0, 1], [0]),  # a finite entry without a hint set
        table([0], [0, 0]),  # a hint set on a bottom entry
        table([-1, 1], [0, 1]),  # a code past the hint sets
        table([-1, 1], [0, -1]),  # a negative code
        table([0], [0], sets=(set(),)),  # a mutable hint set
        table([0], [0], sets=(h, frozenset())),  # one hint set twice
        table([0], [0], sets=(h, frozenset({1}))),  # a hint set no entry holds
        table([0], [0], sets=(frozenset({2}),)),  # a hint set outside the universe
        table([0], [0], values=[0.5]),  # a float value
        table([0], [0], values=np.array([True], object)),  # a bool value
    ]
    for inst in bad:
        with pytest.raises(ValueError):
            inst.validate()


def test_trivial_solution_is_the_identity():
    inst = random_instance(random.Random(1), max_hint=2)
    sol = trivial_solution(inst)
    for z in inst.indices():
        assert sol.value(z) == inst.q_at(z) or (
            is_bottom(sol.value(z)) and is_bottom(inst.q_at(z))
        )
        assert sol.base(z) == z
        assert sol.mult(z) == {}
    assert relaxed_check(inst, sol) == []


def test_singleton_one_item_example():
    inst = build(3, {0: (0, {2})}, {2: ConcaveProfitFn([0, 1])})
    sol = solve_singleton(inst)
    assert sol.value(0) == 0
    assert sol.value(2) == 1
    assert sol.base(2) == 0
    assert sol.mult(2) == {2: 1}
    assert is_bottom(sol.value(1)) and is_bottom(sol.value(3))
    assert relaxed_check(inst, sol) == []


def test_singleton_empty_hints_change_nothing():
    inst = build(2, {-1: (4, set()), 1: (-2, set())}, {})
    sol = solve_singleton(inst)
    assert sol.value(-1) == 4 and sol.value(1) == -2
    assert is_bottom(sol.value(0))


def test_singleton_rejects_wide_hints():
    fns = {2: ConcaveProfitFn([0, 1]), 3: ConcaveProfitFn([0, 1])}
    inst = build(3, {0: (0, {2, 3})}, fns)
    with pytest.raises(ValueError):
        solve_singleton(inst)


def test_singleton_single_base_is_exact():
    # with one finite entry its progression never loses a bucket scan, so
    # every multiplicity is realized and the result is the plain optimum
    rng = random.Random(5551)
    for _ in range(100):
        half = rng.randint(1, 6)
        w = rng.randint(1, 4)
        cap = rng.randint(0, 4)
        incs = sorted((rng.randint(-6, 9) for _ in range(cap)), reverse=True)
        prefix = [0]
        for d in incs:
            prefix.append(prefix[-1] + d)
        z0 = rng.randint(-half, half)
        inst = build(
            half, {z0: (rng.randint(-20, 20), {w})}, {w: ConcaveProfitFn(prefix)}
        )
        sol = solve_singleton(inst)
        want = brute_force_unconstrained(inst)
        assert [sol.value(i) for i in inst.indices()] == [
            want.get(i, BOTTOM) for i in inst.indices()
        ]
        assert relaxed_check(inst, sol) == []


def test_singleton_contract_and_upper_bound():
    rng = random.Random(6661)
    for _ in range(150):
        inst = random_instance(rng, max_hint=1)
        sol = solve_singleton(inst)
        assert relaxed_check(inst, sol) == []
        upper = brute_force_unconstrained(inst)
        for i in inst.indices():
            if not is_bottom(sol.value(i)):
                assert sol.value(i) <= upper.get(i, BOTTOM)


def test_singleton_progression_bound():
    # every bucket insertion beyond the initial per-slot ones must retire
    # one arithmetic progression, so inserts <= progressions + table size
    rng = random.Random(5552)
    for _ in range(100):
        inst = random_instance(rng, max_half=7, max_hint=1, max_cap=5)
        st = ExtendStats()
        solve_singleton(inst, st)
        assert st.bucket_inserts <= st.ap_count + inst.size


def scan_ranges(cols, q, prefix, w, L):
    """``_row_winners`` on one group, read as ``_smawk_ranges`` gives them."""
    bases = np.array(cols, np.int64)
    values = np.array([q[j] for j in cols], np.int64)
    _, at, x, _, evals = _row_winners(bases, values, prefix, w, L, NEG_SENTINEL)
    won: dict = {}
    for j, k in zip(bases[at].tolist(), x.tolist()):
        won.setdefault(j, [k, k])[1] = k
    return [(j, *won[j]) for j in cols if j in won], evals


def test_short_groups_scan_gives_the_smawk_ranges():
    # a group whose profit function takes at most _SCAN_CAP items skips
    # SMAWK; the direct scan must give every base the same x-range as the
    # breakpoints do, on sparse bases with gaps, tied rows, rows past L,
    # bases that win their own row at x = 0, and entries of the residue
    # that are no base of the group
    rng = random.Random(2407)
    seen = Counter()
    for _ in range(600):
        w = rng.randint(1, 4)
        cap = rng.randint(1, _SCAN_CAP)
        incs = sorted((rng.randint(-2, 3) for _ in range(cap)), reverse=True)
        prefix = tuple(itertools.accumulate(incs, initial=0))
        L = rng.randint(1, 20)
        density = rng.choice((0.3, 0.7, 1.0))
        residue = range(-L + rng.randrange(w), L + 1, w)
        cols = [j for j in residue if rng.random() < density]
        q = {j: rng.randint(-3, 3) for j in residue if j in cols or rng.random() < 0.3}
        if not cols or cols[0] + w > L:
            continue  # no live row: solve_singleton skips the group
        big = max(q.values()) - min(q.values()) + max(prefix) - min(prefix) + 1
        scan, evals = scan_ranges(cols, q, prefix, w, L)
        assert scan == _smawk_ranges(cols, q, prefix, w, L, big)[0]
        # the row winners, tallied to show which cases the seeds reached
        live = sorted({j + x * w for j in cols for x in range(1, cap + 1)})
        real = 0
        for i in live:
            if i > L:
                seen["rows past L"] += 1
                continue
            row = [(q[i - y * w] + prefix[y], y) for y in range(cap, -1, -1) if i - y * w in cols]
            real += len(row)
            top = max(v for v, _ in row)
            winners = [y for v, y in row if v == top]
            seen["tied rows"] += len(winners) > 1
            seen["wins at x = 0"] += winners[0] == 0
        assert evals == real
        seen["gaps"] += any(b - a > w for a, b in zip(cols, cols[1:]))
        seen["cap %d" % cap] += 1
    assert min(seen.values()) >= 20, seen


def reference_scan_ranges(cols, q, prefix, w, L):
    """Each base's winning x-range in one group, by a scan of every live row."""
    cap = len(prefix) - 1
    qv = {j: q[j] for j in cols}
    won: dict = {}
    evals = 0
    for i in sorted({j + x * w for j in cols for x in range(1, cap + 1)}):
        if i > L:
            break
        row = [(qv[i - y * w] + prefix[y], y) for y in range(cap, -1, -1) if i - y * w in qv]
        evals += len(row)
        top = max(v for v, _ in row)
        y = next(y for v, y in row if v == top)  # the leftmost maximum
        if y:
            won.setdefault(i - y * w, [y, y])[1] = y
    return [(j, *won[j]) for j in cols if j in won], evals


def values_of(table):
    """The finite values of an instance or a solution, keyed by index, ascending."""
    return {i: entry[0] for i, entry in table.entries().items()}


def columns(inst):
    """The table's values and hint sets, each a dict keyed by index, ascending."""
    return values_of(inst), {i: s for i, (_, s) in inst.entries().items()}


def reference_singleton(inst):
    """``solve_singleton`` as a progression-heap scan over every table.

    Each (weight, residue) group's ranges become progressions, appended in
    group order; a left-to-right bucket scan applies each index's best
    progression where it strictly improves and advances only that one.
    Returns the solution, (matrix_evals, ap_count, bucket_inserts) and the
    number of bucket cells where progressions met.
    """
    L = inst.half_size
    q, hints = columns(inst)
    groups: dict = {}
    for j, s in hints.items():
        for w in s:
            groups.setdefault((w, j % w), []).append(j)
    buckets: dict = {}
    evals = aps = met = 0
    for (w, _), cols in sorted(groups.items()):
        prefix = inst.fns[w].prefix
        cap = len(prefix) - 1
        if not cap or cols[0] + w > L:
            continue
        if cap <= _SCAN_CAP:
            ranges, n = reference_scan_ranges(cols, q, prefix, w, L)
        else:
            ranges, n = _smawk_ranges(cols, q, prefix, w, L, _value_spread(inst))
        evals += n
        aps += len(ranges)
        for j, x_lo, x_hi in ranges:
            buckets.setdefault(j + x_lo * w, []).append([j, w, x_lo, x_hi, prefix])
    inserts = aps
    r, z, xs = dict(q), {}, {}
    while buckets:
        i = min(buckets)
        cell = buckets.pop(i)
        met += len(cell) > 1
        best, best_val = None, BOTTOM
        for ap in cell:
            val = q[ap[0]] + ap[4][ap[2]]
            if val > best_val:
                best, best_val = ap, val
        if best_val > r.get(i, BOTTOM):
            r[i], z[i], xs[i] = best_val, best[0], {best[1]: best[2]}
        if best[2] < best[3]:
            best[2] += 1
            buckets.setdefault(i + best[1], []).append(best)
            inserts += 1
    sol = HintedExtendSolution.build(L, {i: (v, z.get(i, i), xs.get(i, {})) for i, v in r.items()})
    return sol, (evals, aps, inserts), met


def one_weight_table(rng, w, cap, offset):
    """A seeded table whose hint sets name w or nothing, values shifted by offset."""
    L = rng.randint(1, 24)
    spread = rng.choice((1, 3, 40))  # a narrow spread makes ties
    incs = sorted((rng.randint(-spread, spread) for _ in range(cap)), reverse=True)
    fns = {w: ConcaveProfitFn(itertools.accumulate(incs, initial=0))}
    if rng.random() < 0.3:  # a weight that no entry may take
        fns[w + 1] = ConcaveProfitFn([0, 5])
    density = rng.choice((0.2, 0.6, 1.0))
    entries = {
        i: (offset + rng.randint(-spread, spread), {w} if rng.random() < 0.7 else set())
        for i in range(-L, L + 1)
        if rng.random() < density
    }
    return build(L, entries or {0: (offset, {w})}, fns)


def test_one_weight_pass_matches_the_heap_scan():
    # when every hint set names one weight the winners are applied in one
    # pass; the heap scan must agree on values, key order, witnesses and
    # every counter, at each profit-function length and past int64
    rng = random.Random(2510)
    seen = Counter()
    for k in range(900):
        w = rng.randint(1, 5)
        cap = (1, 2, rng.randint(3, 5))[k % 3]
        offset = rng.choice((0, 0, 1 << 70, -(1 << 64)))
        inst = one_weight_table(rng, w, cap, offset)
        st = ExtendStats()
        sol = solve_singleton(inst, st)
        want, counters, met = reference_singleton(inst)
        assert list(sol.entries().items()) == list(want.entries().items())
        assert (st.matrix_evals, st.ap_count, st.bucket_inserts) == counters
        q, hints = columns(inst)
        hinted_bases = [j for j, s in hints.items() if s]
        assert (st.singleton_calls, st.one_weight_calls) == (1, int(bool(hinted_bases)))
        assert met == 0
        # the cases the seeds reached
        seen["cap %s" % ("> 2" if cap > 2 else cap)] += 1
        seen["past int64"] += abs(offset) > 1 << 63
        seen["no hint"] += len(hinted_bases) < len(q)
        seen["sparse bases"] += any(b - a > w for a, b in zip(hinted_bases, hinted_bases[1:]))
        seen["rows past L"] += any(j + cap * w > inst.half_size for j in hinted_bases)
        prefix = inst.fns[w].prefix
        for i in range(-inst.half_size, inst.half_size + 1):
            row = [
                (q[i - y * w] + prefix[y], y) for y in range(cap, -1, -1)
                if hints.get(i - y * w)
            ]
            if len(row) > 1:
                top = max(v for v, _ in row)
                seen["tied rows"] += sum(v == top for v, _ in row) > 1
                seen["wins its own row"] += next(y for v, y in row if v == top) == 0
    assert min(seen.values()) >= 30, seen


def test_tables_of_several_weights_keep_the_heap(monkeypatch):
    # winners of different weights meet on a row, so the bucket scan
    # decides; it must agree with the reference, and the one-weight
    # tables must not reach it
    merges = []
    real = hinted._merge_progressions
    monkeypatch.setattr(
        hinted, "_merge_progressions", lambda *a: merges.append(1) or real(*a)
    )
    fns = {1: ConcaveProfitFn([0, 3, 5, 6]), 2: ConcaveProfitFn([0, 7, 9])}
    inst = build(8, {0: (0, {1}), 1: (0, {2}), 2: (1, set())}, fns)
    st = ExtendStats()
    sol = solve_singleton(inst, st)
    want, counters, met = reference_singleton(inst)
    assert met > 0 and merges == [1]
    assert list(sol.entries().items()) == list(want.entries().items())
    assert (st.matrix_evals, st.ap_count, st.bucket_inserts) == counters
    assert (st.singleton_calls, st.one_weight_calls) == (1, 0)
    # random tables of one or two weights, both paths
    rng = random.Random(2511)
    kinds = Counter()
    for _ in range(300):
        inst = random_instance(rng, max_half=8, max_universe=3, max_hint=1, max_cap=4)
        del merges[:]
        sol = solve_singleton(inst)
        want, _, _ = reference_singleton(inst)
        assert list(sol.entries().items()) == list(want.entries().items())
        several = len({w for s in columns(inst)[1].values() for w in s}) > 1
        assert len(merges) == several
        kinds[several] += 1
    assert min(kinds.values()) >= 50, kinds


@pytest.mark.parametrize("p_max", [2**50, 2**62], ids=["2^50", "2^62"])
def test_hinted_is_exact_when_perturbed_values_pass_int64(p_max):
    # tie-breaking perturbs the profits past int64 here: the one-weight
    # pass must hold its cells as Python ints, not wrap or overflow
    items, capacity = generate_instance(32, 8, p_max, 0.5, 1, "uniform")
    assert solve_fast(items, capacity, SolverConfig(engine="hinted")) == solve_bellman(
        items, capacity
    )


def test_singleton_row_band_keeps_output_and_cuts_evals():
    # SMAWK runs only over the rows where some base has x in [1, cap]; the
    # cut rows held continuation values, so the answer, the progressions and
    # the bucket scan are the same as with every row of the residue.  Before
    # the cut this instance took 441,800 matrix evaluations; with it, 300,837,
    # and 67,402 once groups taking at most two items skipped SMAWK
    items, t = generate_instance(128, 32, 32, 0.5, 1, "uniform")
    stats = Stats()
    assert solve_fast(items, t, SolverConfig(engine="hinted"), stats) == 1785
    ext = stats.extend
    assert (ext.ap_count, ext.bucket_inserts) == (14232, 15000)
    assert stats.peak_table_cells == 20097
    assert ext.matrix_evals == 67_402 < 300_837
    # the hand-off table holds values in [-P', P'], with the perturbed
    # profit total P' = 577,688,960: shifted int32, as 4 P' + 1 < 2^32
    assert stats.cell_bytes == 4


def test_hinted_hand_off_cells_past_int32():
    # P' = 5,246,625,336 is past 2^32, so the hand-off table is int64
    items, t = generate_instance(96, 24, 1000, 0.3, 5, "clustered")
    assert break_ties(normalize(items, t)).profits.sum() > 1 << 32
    stats = Stats()
    assert solve_fast(items, t, SolverConfig(engine="hinted"), stats) == 30383
    assert stats.cell_bytes == 8


# (answer, matrix_evals, ap_count, bucket_inserts, peak_table_cells) of the
# hinted engine, recorded before the table passes skipped bottom slots; the
# fourth and fifth are the `oracles` benchmark's hinted calls at seed 103.
# matrix_evals was re-pinned, alone, when groups taking at most two items
# began to skip SMAWK.
# The entries after them add best_index and were recorded before the hint
# tables became index-keyed dicts: w_max = 1 and 2, `clustered` at w = 32,
# n = 4w^2 at w = 16, and a shape whose budget reaches the balls-and-bins
# split (w = 24).
# The counters (matrix_evals, ap_count, bucket_inserts) of `uniform` at
# seeds 2 and 103 (n = 128) and at w = 24 were re-pinned, alone, when set
# balancing began to break ties exactly.
HINTED_PINS = [
    ((128, 32, 32, 0.5, 2, "uniform"), (1655, 62920, 11761, 12312, 20097)),
    ((128, 32, 32, 0.5, 1, "hard-equal-weights"), (2023, 16730, 1962, 6122, 20097)),
    ((96, 24, 1000, 0.3, 5, "clustered"), (30383, 21525, 3479, 4356, 8929)),
    ((128, 32, 32, 0.5, 4575246633223535321, "uniform"), (1739, 65933, 11761, 12434, 20097)),
    (
        (128, 32, 32, 0.5, 18332398680674118316, "hard-equal-weights"),
        (2018, 15479, 1856, 5807, 20097),
    ),
    ((16, 1, 32, 0.5, 1, "uniform"), (202, 6, 4, 4, 11, 0)),
    ((32, 2, 32, 0.5, 1, "uniform"), (436, 59, 24, 30, 49, 0)),
    ((128, 32, 32, 0.5, 1, "clustered"), (1695, 42133, 6636, 7954, 20097, 1)),
    ((1024, 16, 32, 0.5, 1, "uniform"), (13307, 85783, 8186, 13194, 4609, 2)),
    ((96, 24, 32, 0.5, 1, "uniform"), (1303, 29162, 6049, 6517, 8929, 14)),
]


@pytest.mark.parametrize("shape, pinned", HINTED_PINS, ids=[repr(s) for s, _ in HINTED_PINS])
def test_hinted_answers_and_counters_are_pinned(shape, pinned):
    stats = Stats()
    answer = solve_fast(*generate_instance(*shape), SolverConfig(engine="hinted"), stats)
    ext = stats.extend
    got = (
        answer, ext.matrix_evals, ext.ap_count, ext.bucket_inserts,
        stats.peak_table_cells, stats.best_index,
    )
    assert got[: len(pinned)] == pinned


# (answer, matrix_evals, ap_count, bucket_inserts, peak_table_cells,
# best_index) of the hinted engine at n = 4w, p_max 32, recorded while its
# witnesses were Python dicts, one per distinct multiplicity map.
SCALE_PINS = [
    ((512, 128, 32, 0.5, 1, "uniform"), (6621, 2914685, 431903, 444690, 370945, 103)),
    ((512, 128, 32, 0.5, 103, "uniform"), (6714, 2958193, 483029, 496068, 370945, 38)),
    ((512, 128, 32, 0.5, 1, "clustered"), (6773, 2286858, 303943, 330690, 236641, 39)),
    ((512, 128, 32, 0.5, 103, "clustered"), (6898, 1760114, 247650, 272443, 243025, 55)),
    ((512, 128, 32, 0.5, 1, "hard-equal-weights"), (8074, 2939096, 239520, 373170, 370945, 89)),
    ((512, 128, 32, 0.5, 103, "hard-equal-weights"), (8085, 3169337, 261419, 394992, 370945, 113)),
    ((1024, 256, 32, 0.5, 1, "uniform"), (13382, 18750517, 2900954, 2938434, 1572865, 74)),
]


@pytest.mark.slow
@pytest.mark.parametrize("shape, pinned", SCALE_PINS, ids=[repr(s) for s, _ in SCALE_PINS])
def test_hinted_at_scale_is_pinned_and_matches_dense(shape, pinned):
    items, capacity = generate_instance(*shape)
    stats = Stats()
    answer = solve_fast(items, capacity, SolverConfig(engine="hinted"), stats)
    ext = stats.extend
    assert (
        answer, ext.matrix_evals, ext.ap_count, ext.bucket_inserts,
        stats.peak_table_cells, stats.best_index,
    ) == pinned
    assert answer == solve_fast(items, capacity, SolverConfig(engine="dense"))


@pytest.mark.parametrize(
    "shape",
    [(32, 8, 32, 0.5, 1, "clustered")]
    + [(4 * w, w, 10**6, 0.5, 4, "uniform") for w in (8, 12, 16)],
    ids=repr,
)
def test_hinted_is_exact_where_a_quarter_constant_was_not(shape):
    # at C = 0.25 the hinted engine answered these too low; at the fixed
    # analysis constant it must match the capacity DP
    items, capacity = generate_instance(*shape)
    assert solve_fast(items, capacity, SolverConfig(engine="hinted")) == solve_bellman(
        items, capacity
    )


SWEEP_SHAPES = [
    (4 * w, w, p_max, 0.5, seed, dist)
    for seed in (1, 2, 3, 4, 5, 103)
    for dist in ("uniform", "clustered", "hard-equal-weights")
    for w in (8, 12, 16, 24)
    for p_max in (32, 10**6)
] + [(256, 64, 32, 0.5, 1, "uniform")]


def test_hinted_matches_dense_on_the_sweep():
    # 144 shapes at n = 4w (w = 24 reaches the balls-and-bins split), and
    # w = 64, where each set balancing call gets hundreds of copies of a set
    for shape in SWEEP_SHAPES:
        items, capacity = generate_instance(*shape)
        assert solve_fast(items, capacity, SolverConfig(engine="hinted")) == solve_fast(
            items, capacity, SolverConfig(engine="dense")
        ), shape


def oracles_hinted_calls(seed):
    """(answer, matrix_evals, ap_count, bucket_inserts, peak_table_cells) of
    the `oracles` benchmark's two hinted calls at ``seed`` (uniform, then
    hard-equal-weights, n = 128 at w = 32)."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    calls, _ = workloads.build("oracles", seed)
    got = []
    for call in calls:
        if call.spec.kind == "hinted":
            stats = Stats()
            answer = solve_fast(call.items, call.capacity, SolverConfig(engine="hinted"), stats)
            ext = stats.extend
            got.append(
                (answer, ext.matrix_evals, ext.ap_count, ext.bucket_inserts, stats.peak_table_cells)
            )
    return got


def test_oracles_benchmark_hinted_calls_are_pinned():
    # seed 1, as the engine gave them before its SMAWK, colorings and table
    # walks were rewritten; matrix_evals as it reads since groups taking at
    # most two items skip SMAWK; the `uniform` counters as they read since
    # set balancing breaks ties exactly
    assert oracles_hinted_calls(1) == [
        (1702, 62809, 11555, 12505, 20097), (2022, 16801, 2023, 5978, 20097)
    ]


def test_oracles_benchmark_hinted_calls_at_seed_103_are_pinned():
    # seed 103, as the engine gave them while its tables were still dicts;
    # the `uniform` counters as they read since set balancing breaks ties
    # exactly
    assert oracles_hinted_calls(103) == [
        (1739, 65933, 11761, 12434, 20097), (2018, 15479, 1856, 5807, 20097)
    ]


def test_oracles_hinted_calls_take_the_one_weight_pass():
    # the isolating colorings give each weight its own class, so nearly
    # every solve_singleton call of the `oracles` seed-1 hinted calls sees
    # one weight; stage one stops once every hint set is empty
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    calls, _ = workloads.build("oracles", 1)
    got = []
    for call in calls:
        if call.spec.kind == "hinted":
            stats = Stats()
            solve_fast(call.items, call.capacity, SolverConfig(engine="hinted"), stats)
            got.append((stats.extend.one_weight_calls, stats.extend.singleton_calls))
    assert got == [(80, 81), (29, 29)]


def test_small_b_budget_one_agrees_with_singleton():
    rng = random.Random(5553)
    for _ in range(60):
        inst = random_instance(rng, max_hint=1)
        a = solve_singleton(inst)
        b = solve_small_b(inst, 1)
        assert values_of(a) == values_of(b)


def test_small_b_random_instances_pass_relaxed_check():
    rng = random.Random(5554)
    for _ in range(120):
        inst = random_instance(rng, max_half=4, max_universe=4, max_hint=3, max_cap=2)
        budget = max((len(inst.hint_at(z) or ()) for z in inst.indices()), default=1)
        budget = max(1, budget)
        sol = solve_small_b(inst, budget, stats=None)
        assert relaxed_check(inst, sol) == []
        for z in inst.indices():  # extension never loses the base value
            if not is_bottom(inst.q_at(z)):
                assert sol.value(z) >= inst.q_at(z)


def test_small_b_rejects_hints_over_budget():
    fns = {2: ConcaveProfitFn([0, 1]), 3: ConcaveProfitFn([0, 1])}
    inst = build(3, {0: (0, {2, 3})}, fns)
    with pytest.raises(ValueError):
        solve_small_b(inst, 1)


def test_solve_large_budget_path():
    # budget above 2*log2(4L+2) routes through the balls-and-bins split
    rng = random.Random(5555)
    half = 4
    threshold = 2 * math.log2(4 * half + 2)
    universe = list(range(1, 10))
    fns = {w: ConcaveProfitFn([0, rng.randint(0, 5)]) for w in universe}
    entries = {}
    for z in range(-half, half + 1):
        if rng.random() < 0.6:
            entries[z] = (rng.randint(-10, 10), set(universe))
    entries.setdefault(0, (0, set(universe)))
    inst = build(half, entries, fns)
    budget = len(universe)
    assert budget > threshold
    sol = solve(inst, budget)
    assert relaxed_check(inst, sol) == []


def test_solve_small_budget_path_delegates():
    rng = random.Random(5556)
    for _ in range(40):
        inst = random_instance(rng, max_half=3, max_universe=3, max_hint=2, max_cap=2)
        sol = solve(inst, 2)
        assert relaxed_check(inst, sol) == []


def test_solve_ignores_hint_set_identity():
    # equal hint sets held as distinct objects, or as one shared object,
    # give the same solution and the same work on both branches of solve
    rng = random.Random(5563)
    half = 4
    universe = list(range(1, 10))
    fns = {w: ConcaveProfitFn([0, 3 + w % 3, 4 + w % 3]) for w in universe}
    pool = [rng.sample(universe, k) for k in (2, 3, 4, 4)]
    entries = {
        z: (rng.randint(-10, 10), set(rng.choice(pool)))
        for z in range(-half, half + 1)
        if z == 0 or rng.random() < 0.8
    }
    shared = build(half, entries, fns)
    # one set object per entry, equal sets included; the table merges them
    own = tuple(frozenset(s) for _, s in entries.values())
    distinct = HintedExtendInstance.from_arrays(
        half, shared.universe, shared.keys, shared.values, own, np.arange(len(own)), fns
    )
    assert len(set(map(id, own))) == len(own)
    assert distinct.sets == shared.sets and len(shared.sets) < len(own)
    threshold = 2 * math.log2(4 * half + 2)
    for budget in (4, 9):  # isolating colorings, then balls and bins first
        assert (budget > threshold) == (budget == 9)
        runs = []
        for inst in (distinct, shared):
            st = ExtendStats()
            sol = solve(inst, budget, st)
            runs.append((sol.entries(), st))
        assert runs[0] == runs[1]
        assert runs[0][1].matrix_evals > 0


def test_restrict_to_universe_and_empty():
    rng = random.Random(5557)
    inst = random_instance(rng, max_universe=3, max_hint=2)
    same = restrict(inst, set(inst.universe))
    assert same.entries() == inst.entries()
    none = restrict(inst, set())
    assert none.universe == ()
    assert values_of(none) == values_of(inst)
    assert set(columns(none)[1].values()) <= {frozenset()}
    none.validate()


def test_restrict_single_weight():
    fns = {2: ConcaveProfitFn([0, 1]), 3: ConcaveProfitFn([0, 4])}
    inst = build(3, {0: (0, {2, 3}), 1: (5, {3})}, fns)
    sub = restrict(inst, {3})
    assert sub.universe == (3,)
    assert columns(sub)[1] == {0: {3}, 1: {3}}
    assert set(sub.fns) == {3}
    sub.validate()


def test_apply_update_consumes_hint_weights():
    fns = {2: ConcaveProfitFn([0, 1])}
    inst = build(3, {0: (0, {2})}, fns)
    sol = solve_singleton(restrict(inst, {2}))
    updated = apply_update(inst, {2}, sol)
    assert updated.q_at(2) == 1
    assert updated.hint_at(2) == frozenset()
    assert updated.universe == ()
    updated.validate()


def test_apply_update_subtracts_once_per_hint_set():
    # five finite entries hold two distinct hint sets, each entry its own
    # object: entries whose bases hold equal sets get one shared result, the
    # base's set minus the consumed weight
    fns = {2: ConcaveProfitFn([0, 1]), 3: ConcaveProfitFn([0, 2])}
    own = tuple(frozenset({2, 3} if z % 2 else {2}) for z in range(-2, 3))
    inst = HintedExtendInstance.from_arrays(
        4, (2, 3), np.arange(-2, 3), np.zeros(5, np.int64), own, np.arange(5), fns
    )
    assert len(set(map(id, own))) == 5 and len(inst.sets) == 2
    inst.validate()
    updated = apply_update(inst, {2}, trivial_solution(inst))
    for z in range(-2, 3):
        assert updated.hint_at(z) == ({3} if z % 2 else set())
        assert updated.hint_at(z) is updated.hint_at(z % 2)
    updated.validate()


def test_apply_update_requires_hinted_bases():
    inst = build(1, {0: (0, set())}, {})
    bad = HintedExtendSolution.build(1, {-1: (7, -1, {})})  # entry -1 is its own base
    with pytest.raises(ValueError):
        apply_update(inst, set(), bad)


def test_compose_with_trivial_sides():
    rng = random.Random(5558)
    inst = random_instance(rng, max_hint=1)
    sol = solve_singleton(inst)
    ident = trivial_solution(inst)
    left = compose(sol, ident)  # inner did nothing
    assert left.entries() == sol.entries()
    updated = apply_update(inst, set(inst.universe), sol)
    right = compose(trivial_solution(updated), sol)  # outer did nothing
    assert values_of(right) == values_of(sol)
    for i in inst.indices():
        if not is_bottom(right.value(i)):
            assert right.base(i) == sol.base(i)
            assert right.mult(i) == sol.mult(i)


def test_compose_merges_multiplicities():
    fns = {2: ConcaveProfitFn([0, 3]), 3: ConcaveProfitFn([0, 4])}
    inst = build(5, {0: (0, {2, 3})}, fns)
    first = solve_singleton(restrict(inst, {2}))
    mid = apply_update(inst, {2}, first)
    second = solve_singleton(restrict(mid, {3}))
    both = compose(second, first)
    assert both.value(5) == 7
    assert both.base(5) == 0
    assert both.mult(5) == {2: 1, 3: 1}
    assert relaxed_check(restrict(inst, {2, 3}), both) == []


def test_composition_over_disjoint_weight_sets():
    rng = random.Random(5559)
    done = 0
    while done < 60:
        inst = random_instance(rng, max_half=4, max_universe=4, max_hint=3, max_cap=2)
        if len(inst.universe) < 2:
            continue
        done += 1
        k = rng.randint(1, len(inst.universe) - 1)
        v1 = set(rng.sample(inst.universe, k))
        rest = [w for w in inst.universe if w not in v1]
        v2 = set(rng.sample(rest, rng.randint(1, len(rest))))
        budget = len(inst.universe)
        y1 = solve(restrict(inst, v1), budget)
        mid = apply_update(inst, v1, y1)
        y2 = solve(restrict(mid, v2), budget)
        composed = compose(y2, y1)
        target = restrict(inst, v1 | v2)
        assert relaxed_check(target, composed) == []


def test_entrywise_max_solutions_takes_pointwise_best():
    rng = random.Random(5560)
    for _ in range(60):
        inst = random_instance(rng, max_hint=1)
        a = solve_singleton(inst)
        b = trivial_solution(inst)
        merged = entrywise_max_solutions(a, b)
        for i in inst.indices():
            va, vb = a.value(i), b.value(i)
            want = vb if is_bottom(va) else va if is_bottom(vb) else max(va, vb)
            assert merged.value(i) == want
            if not is_bottom(want):
                src = a if (not is_bottom(va)) and (is_bottom(vb) or va > vb) else b
                assert merged.base(i) == src.base(i)
                assert merged.mult(i) == src.mult(i)


def test_witness_dicts_are_new_copies():
    # mult() and entries() build their dicts from the count rows, and build()
    # copies the dicts it is given: writing into any of them leaves the
    # solution as it was
    fns = {2: ConcaveProfitFn([0, 3]), 3: ConcaveProfitFn([0, 4])}
    inst = build(5, {0: (0, {2, 3})}, fns)
    first = solve_singleton(restrict(inst, {2}))
    sol = compose(solve_singleton(restrict(apply_update(inst, {2}, first), {3})), first)
    given = {2: 1}
    built = HintedExtendSolution.build(5, {0: (0, 0, {}), 2: (3, 0, given)})
    for table in (first, sol, built):
        before = table.entries()
        for i in table.keys.tolist():
            table.mult(i)[2] = 9
            for _, _, xs in table.entries().values():
                xs.clear()
                xs[3] = 7
        table.mult(-1)[2] = 9
        assert table.entries() == before
    given[2] = 5
    assert built.mult(2) == {2: 1} and sol.mult(5) == {2: 1, 3: 1}


def test_counts_past_the_cell_type_are_refused():
    top = hinted._COUNT_MAX
    with pytest.raises(ValueError, match="at most"):
        ConcaveProfitFn([0] * (top + 2))
    assert ConcaveProfitFn([0] * (top + 1)).cap == top
    for xs in ({1: top + 1}, {1: 0}, {1: -1}, {0: 1}, {1: True}, {1.0: 1}):
        with pytest.raises(ValueError, match="counts must be integers"):
            HintedExtendSolution.build(2, {1: (1, 0, xs)})
    inner = HintedExtendSolution.build(2, {0: (0, 0, {}), 1: (1, 0, {1: top})})
    assert inner.counts.dtype == hinted.COUNT_DTYPE and inner.mult(1) == {1: top}
    outer = HintedExtendSolution.build(2, {2: (2, 1, {1: 1})})
    with pytest.raises(ValueError, match="composed count exceeds"):
        compose(outer, inner)


def frozen(*tables):
    """Every field of the given instances and solutions: arrays, dicts and tuples as lists."""

    def snap(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, dict):
            return list(value.items())
        if isinstance(value, tuple):
            return [snap(v) for v in value]
        return value

    return [(name, snap(value)) for table in tables for name, value in vars(table).items()]


def test_solvers_and_algebra_leave_their_inputs_unchanged():
    # tables share their arrays instead of copying them, so no step may
    # write into a table it was given
    rng = random.Random(5561)
    done = 0
    while done < 40:
        inst = random_instance(rng, max_half=4, max_universe=4, max_hint=3, max_cap=2)
        if len(inst.universe) < 2:
            continue
        done += 1
        before = frozen(inst)
        w = inst.universe[0]
        single = restrict(inst, {w})
        single_before = frozen(single)
        inner = solve_singleton(single)
        inner_before = frozen(inner)
        mid = apply_update(inst, {w}, inner)
        mid_before = frozen(mid)
        rest = set(inst.universe) - {w}
        outer = solve_small_b(restrict(mid, rest), 3)
        outer_before = frozen(outer)
        compose(outer, inner)
        solve(inst, 9)  # past 2 * log2(4L + 2): the balls-and-bins split
        trivial = trivial_solution(inst)
        trivial_before = frozen(trivial)
        entrywise_max_solutions(inner, trivial)
        assert frozen(inst) == before
        assert frozen(single) == single_before
        assert frozen(inner) == inner_before
        assert frozen(mid) == mid_before
        assert frozen(outer) == outer_before
        assert frozen(trivial) == trivial_before


def test_relaxed_check_flags_wrong_solutions():
    inst = build(3, {0: (0, {2})}, {2: ConcaveProfitFn([0, 1])})
    sol = solve_singleton(inst)
    # claim more profit than any extension can reach
    forged = HintedExtendSolution.build(3, {**sol.entries(), 2: (99, sol.base(2), sol.mult(2))})
    assert relaxed_check(inst, forged) != []
    # weight bookkeeping must match the index shift
    shifted = HintedExtendSolution.build(
        3, {**sol.entries(), 2: (sol.value(2), sol.base(2), {2: 2})}
    )
    assert relaxed_check(inst, shifted) != []


def test_relaxed_check_enum_limit():
    fns = {w: ConcaveProfitFn([0] * 8) for w in range(1, 7)}
    inst = build(2, {0: (0, set(range(1, 7)))}, fns)
    with pytest.raises(ValueError):
        relaxed_check(inst, trivial_solution(inst), enum_limit=10)
