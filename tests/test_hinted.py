"""Hint-propagating table extension: solvers, algebra, relaxed verification."""

import itertools
import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from knapsolve import SolverConfig, Stats, generate_instance, solve_bellman, solve_fast
from knapsolve.core import BOTTOM, is_bottom
from knapsolve.hinted import (
    _SCAN_CAP,
    ConcaveProfitFn,
    ExtendStats,
    HintedExtendInstance,
    HintedExtendSolution,
    _scan_ranges,
    _smawk_ranges,
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
    assert good.hints == {0: frozenset({2})}
    stray = HintedExtendInstance(1, good.universe, good.q, good.hints, {2: fn, 3: fn})
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

    def table(q, hints, half=2):
        return HintedExtendInstance(half, (), q, hints, {})

    table({-2: 0, 2: 1}, {-2: h, 2: h}).validate()
    bad = [
        table({-3: 0}, {-3: h}),  # index past -half_size
        table({3: 0}, {3: h}),  # index past half_size
        table({1: 0, -1: 0}, {1: h, -1: h}),  # keys out of order
        table({0: 0, 1: 0}, {0: h}),  # a finite entry without a hint set
        table({0: 0}, {0: h, 1: h}),  # a hint set on a bottom entry
        table({-1: 0, 1: 0}, {1: h, -1: h}),  # hint keys in another order
        table({0: 0}, {0: set()}),  # a mutable hint set
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
        scan, evals = _scan_ranges(cols, q, prefix, w, L)
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


# (answer, matrix_evals, ap_count, bucket_inserts, peak_table_cells) of the
# hinted engine, recorded before the table passes skipped bottom slots; the
# fourth and fifth are the `oracles` benchmark's hinted calls at seed 103.
# matrix_evals was re-pinned, alone, when groups taking at most two items
# began to skip SMAWK.
# The entries after them add best_index and were recorded before the hint
# tables became index-keyed dicts: w_max = 1 and 2, `clustered` at w = 32,
# n = 4w^2 at w = 16, and a shape whose budget reaches the balls-and-bins
# split (w = 24).
HINTED_PINS = [
    ((128, 32, 32, 0.5, 2, "uniform"), (1655, 62991, 11777, 12326, 20097)),
    ((128, 32, 32, 0.5, 1, "hard-equal-weights"), (2023, 16730, 1962, 6122, 20097)),
    ((96, 24, 1000, 0.3, 5, "clustered"), (30383, 21525, 3479, 4356, 8929)),
    ((128, 32, 32, 0.5, 4575246633223535321, "uniform"), (1739, 65821, 12330, 13003, 20097)),
    (
        (128, 32, 32, 0.5, 18332398680674118316, "hard-equal-weights"),
        (2018, 15479, 1856, 5807, 20097),
    ),
    ((16, 1, 32, 0.5, 1, "uniform"), (202, 6, 4, 4, 11, 0)),
    ((32, 2, 32, 0.5, 1, "uniform"), (436, 59, 24, 30, 49, 0)),
    ((128, 32, 32, 0.5, 1, "clustered"), (1695, 42133, 6636, 7954, 20097, 1)),
    ((1024, 16, 32, 0.5, 1, "uniform"), (13307, 85783, 8186, 13194, 4609, 2)),
    ((96, 24, 32, 0.5, 1, "uniform"), (1303, 29146, 6058, 6526, 8929, 14)),
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


def test_oracles_benchmark_hinted_calls_are_pinned():
    # the `oracles` benchmark's two hinted calls at seed 1 (uniform, then
    # hard-equal-weights, n = 128 at w = 32): answer, matrix_evals, ap_count,
    # bucket_inserts and peak_table_cells as the engine gave them before its
    # SMAWK, colorings and table walks were rewritten; matrix_evals as it
    # reads since groups taking at most two items skip SMAWK
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    calls, _ = workloads.build("oracles", 1)
    got = []
    for call in calls:
        if call.spec.kind == "hinted":
            stats = Stats()
            answer = solve_fast(call.items, call.capacity, SolverConfig(engine="hinted"), stats)
            ext = stats.extend
            got.append(
                (answer, ext.matrix_evals, ext.ap_count, ext.bucket_inserts, stats.peak_table_cells)
            )
    assert got == [(1702, 62881, 11634, 12584, 20097), (2022, 16801, 2023, 5978, 20097)]


def test_small_b_budget_one_agrees_with_singleton():
    rng = random.Random(5553)
    for _ in range(60):
        inst = random_instance(rng, max_hint=1)
        a = solve_singleton(inst)
        b = solve_small_b(inst, 1)
        assert a.r == b.r


def test_small_b_random_instances_pass_relaxed_check():
    rng = random.Random(5554)
    for _ in range(120):
        inst = random_instance(rng, max_half=4, max_universe=4, max_hint=3, max_cap=2)
        budget = max((len(inst.hints.get(z, ())) for z in inst.indices()), default=1)
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
    distinct = build(half, entries, fns)
    canon: dict = {}
    shared = HintedExtendInstance(
        half, distinct.universe, distinct.q,
        {i: canon.setdefault(s, s) for i, s in distinct.hints.items()}, distinct.fns,
    )
    assert len(set(map(id, distinct.hints.values()))) == len(distinct.hints)
    assert len(set(map(id, shared.hints.values()))) == len(canon) < len(distinct.hints)
    threshold = 2 * math.log2(4 * half + 2)
    for budget in (4, 9):  # isolating colorings, then balls and bins first
        assert (budget > threshold) == (budget == 9)
        runs = []
        for inst in (distinct, shared):
            st = ExtendStats()
            sol = solve(inst, budget, st)
            runs.append((sol.r, sol.z, sol.x, st))
        assert runs[0] == runs[1]
        assert runs[0][3].matrix_evals > 0


def test_restrict_to_universe_and_empty():
    rng = random.Random(5557)
    inst = random_instance(rng, max_universe=3, max_hint=2)
    same = restrict(inst, set(inst.universe))
    assert same.q == inst.q
    assert same.hints == inst.hints
    none = restrict(inst, set())
    assert none.universe == ()
    assert set(none.hints.values()) <= {frozenset()}
    none.validate()


def test_restrict_single_weight():
    fns = {2: ConcaveProfitFn([0, 1]), 3: ConcaveProfitFn([0, 4])}
    inst = build(3, {0: (0, {2, 3}), 1: (5, {3})}, fns)
    sub = restrict(inst, {3})
    assert sub.universe == (3,)
    assert sub.hints == {0: {3}, 1: {3}}
    assert set(sub.fns) == {3}
    sub.validate()


def test_apply_update_consumes_hint_weights():
    fns = {2: ConcaveProfitFn([0, 1])}
    inst = build(3, {0: (0, {2})}, fns)
    sol = solve_singleton(restrict(inst, {2}))
    updated = apply_update(inst, {2}, sol)
    assert updated.q_at(2) == 1
    assert updated.hints[2] == frozenset()
    assert updated.universe == ()
    updated.validate()


def test_apply_update_subtracts_once_per_hint_set():
    # five finite entries hold two distinct hint sets, each entry its own
    # object: entries whose bases hold equal sets get one shared result, the
    # base's set minus the consumed weight
    fns = {2: ConcaveProfitFn([0, 1]), 3: ConcaveProfitFn([0, 2])}
    entries = {z: (0, {2, 3} if z % 2 else {2}) for z in range(-2, 3)}
    inst = build(4, entries, fns)
    assert inst.hints[-1] is not inst.hints[1]
    updated = apply_update(inst, {2}, trivial_solution(inst))
    for z in range(-2, 3):
        assert updated.hints[z] == ({3} if z % 2 else set())
        assert updated.hints[z] is updated.hints[z % 2]
    updated.validate()


def test_apply_update_requires_hinted_bases():
    inst = build(1, {0: (0, set())}, {})
    bad = HintedExtendSolution(1, {-1: 7}, {}, {})  # entry -1 is its own base
    with pytest.raises(ValueError):
        apply_update(inst, set(), bad)


def test_compose_with_trivial_sides():
    rng = random.Random(5558)
    inst = random_instance(rng, max_hint=1)
    sol = solve_singleton(inst)
    ident = trivial_solution(inst)
    left = compose(sol, ident)  # inner did nothing
    assert left.r == sol.r and left.x == sol.x
    updated = apply_update(inst, set(inst.universe), sol)
    right = compose(trivial_solution(updated), sol)  # outer did nothing
    assert right.r == sol.r
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


def frozen(*tables):
    """Every dict field of the given instances and solutions, items in order."""
    return [
        (name, list(value.items()))
        for table in tables
        for name, value in vars(table).items()
        if isinstance(value, dict)
    ]


def test_solvers_and_algebra_leave_their_inputs_unchanged():
    # tables share their dicts instead of copying them, so no step may
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
    forged = HintedExtendSolution(3, {**sol.r, 2: 99}, sol.z, sol.x)
    assert relaxed_check(inst, forged) != []
    # weight bookkeeping must match the index shift
    shifted = HintedExtendSolution(3, sol.r, sol.z, {**sol.x, 2: {2: 2}})
    assert relaxed_check(inst, shifted) != []


def test_relaxed_check_enum_limit():
    fns = {w: ConcaveProfitFn([0] * 8) for w in range(1, 7)}
    inst = build(2, {0: (0, set(range(1, 7)))}, fns)
    with pytest.raises(ValueError):
        relaxed_check(inst, trivial_solution(inst), enum_limit=10)
