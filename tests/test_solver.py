"""End-to-end solver agreement, engines, fallbacks, stats, and the fold engine."""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from knapsolve import (
    BOTTOM,
    BudgetExceededError,
    SolverConfig,
    Stats,
    break_ties,
    generate_instance,
    greedy_split,
    normalize,
    phase_schedule,
    rank_partition,
    solve_bellman,
    solve_exhaustive,
    solve_fast,
    solve_proximity_smawk,
    weight_partition,
)
from knapsolve.core import INT32_VALUE_CAP, INT64_VALUE_CAP, cell_dtype
from knapsolve.partition import DEFAULT_CONSTANT
from knapsolve.selftest import SOLVERS, TIE_SHAPES, tie_heavy_items
from knapsolve.solver import (
    _TILE,
    _CutScratch,
    _DenseFold,
    first_stage_dense,
    second_stage,
)


def random_items(rng, n_max=14, w_max=10, p_max=30, equal_weights=False):
    n = rng.randint(1, n_max)
    if equal_weights:
        w = rng.randint(1, w_max)
        return [(w, rng.randint(1, p_max)) for _ in range(n)]
    return [(rng.randint(1, w_max), rng.randint(1, p_max)) for _ in range(n)]


def test_frozen_small_instance():
    items = [(2, 30), (3, 40), (5, 50)]
    assert solve_bellman(items, 6) == 70
    assert solve_exhaustive(items, 6) == 70
    assert solve_fast(items, 6) == 70
    assert solve_proximity_smawk(items, 6) == 70


def test_bellman_edges():
    assert solve_bellman([(2, 3), (3, 4), (5, 5)], 6) == 7
    assert solve_bellman([(2, 3)], 0) == 0
    assert solve_bellman([], 9) == 0
    assert solve_bellman([(4, 9)], 4) == 9
    assert solve_bellman([(5, 9)], 4) == 0


def test_exhaustive_subset_reconstruction():
    profit, subset = solve_exhaustive([(2, 30), (3, 40), (5, 50)], 6, with_subset=True)
    assert profit == 70
    assert subset == frozenset({0, 1})
    rng = random.Random(11)
    for _ in range(60):
        items = random_items(rng)
        capacity = rng.randint(0, sum(w for w, _ in items))
        profit, subset = solve_exhaustive(items, capacity, with_subset=True)
        assert sum(items[i][0] for i in subset) <= capacity
        assert sum(items[i][1] for i in subset) == profit


def test_exhaustive_applies_normalize_input_rules():
    # the same input rules as normalize, so every solver refuses alike
    for items, capacity in (
        ([(2.9, 5), (3, 4), (1, 1)], 3),
        ([(True, 5), (2, 4)], 2),
        ([(2, 5.0), (2, 4)], 2),
        ([(2, 5), (2, 4)], 2.5),
        ([(2, 5), (2, 4)], -1),
        ([(0, 5), (2, 4)], 2),
    ):
        for solver in (solve_exhaustive, solve_bellman, solve_fast, solve_proximity_smawk):
            with pytest.raises(ValueError):
                solver(items, capacity)
    # a non-positive item gets the same text from every solver
    for solver in (solve_exhaustive, solve_bellman, solve_fast, solve_proximity_smawk):
        with pytest.raises(ValueError, match="item weights and profits must be >= 1"):
            solver([(0, 5), (2, 4)], 2)
    # items that are not (weight, profit) pairs get one typed refusal
    for make in (
        lambda: [5],
        lambda: [None],
        lambda: [(1, 2), 7],
        lambda: [(1, 2, 3)],
        lambda: [iter((1, 2))],
        lambda: 5,
    ):
        for solver in (solve_exhaustive, solve_bellman, solve_fast, solve_proximity_smawk):
            with pytest.raises(ValueError, match=r"items must be \(weight, profit\) pairs"):
                solver(make(), 5)
    # numpy integers are integers; subset indices still point into raw_items
    items = [(np.int64(2), np.int32(30)), (9, 1), (3, 40), (np.uint8(5), 50)]
    assert solve_exhaustive(items, np.int64(6), with_subset=True) == (70, frozenset({0, 2}))


def test_exhaustive_refuses_wide_instances():
    with pytest.raises(BudgetExceededError):
        solve_exhaustive([(1, 1)] * 41, 5)


def test_trivial_shortcut_reports_engine():
    stats = Stats()
    assert solve_fast([(2, 3), (3, 4)], 10, stats=stats) == 7
    assert stats.engine == "trivial"


def test_bellman_reports_engine():
    for capacity, want, engine in ((10, 7, "trivial"), (4, 4, "bellman")):
        stats = Stats()
        assert solve_bellman([(2, 3), (3, 4)], capacity, stats=stats) == want
        assert stats.engine == engine


def test_wide_weights_fall_back_to_capacity_dp():
    stats = Stats()
    items = [(50, 7), (60, 9)]  # w_max = 60 > n^2 = 4
    got = solve_fast(items, 70, stats=stats)
    assert got == solve_bellman(items, 70) == 9
    assert stats.engine == "bellman-fallback"


def test_forced_fallback_matches():
    # instances whose largest weight exceeds n^2 take the capacity DP
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 6)
        items = [(rng.randint(1, 3 * n * n), rng.randint(1, 30)) for _ in range(n)]
        items[0] = (n * n + rng.randint(1, n * n), items[0][1])
        total = sum(w for w, _ in items)
        capacity = rng.randint(max(w for w, _ in items), total - 1)
        stats = Stats()
        assert solve_fast(items, capacity, stats=stats) == solve_exhaustive(items, capacity)
        assert stats.engine == "bellman-fallback"


def test_all_solvers_agree_on_random_instances():
    rng = random.Random(321321)
    for trial in range(130):
        items = random_items(rng, equal_weights=trial % 4 == 0)
        capacity = rng.randint(0, sum(w for w, _ in items))
        want = solve_exhaustive(items, capacity)
        for name, solver in SOLVERS:
            assert solver(items, capacity) == want, (name, items, capacity)


def test_tie_heavy_differential_sweep():
    rng = random.Random(4401)
    checked = 0
    for trial in range(50 * len(TIE_SHAPES)):
        shape = TIE_SHAPES[trial % len(TIE_SHAPES)]
        items = tie_heavy_items(rng, shape)
        total = sum(w for w, _ in items)
        for capacity in (0, total - 1, rng.randint(0, total)):
            want = solve_exhaustive(items, capacity)
            for name, solver in SOLVERS:
                assert solver(items, capacity) == want, (name, shape, items, capacity)
            checked += 1
    # at n = 4w hard-equal-weights puts most items in a few equal-weight classes
    for w_max, seed in ((8, 1), (8, 2), (16, 3), (32, 4), (64, 5), (128, 6)):
        items, capacity = generate_instance(4 * w_max, w_max, 32, 0.5, seed, "hard-equal-weights")
        want = solve_bellman(items, capacity)
        for name, solver in SOLVERS:
            if name != "hinted" or w_max <= 16:
                assert solver(items, capacity) == want, (name, w_max, seed)
        checked += 1
    assert checked == 150 * len(TIE_SHAPES) + 6


def test_verify_mode_cross_checks():
    rng = random.Random(321323)
    for _ in range(30):
        items = random_items(rng)
        capacity = rng.randint(0, sum(w for w, _ in items))
        got = solve_fast(items, capacity, SolverConfig(verify=True))
        assert got == solve_bellman(items, capacity)


def test_engine_name_is_validated():
    with pytest.raises(ValueError):
        solve_fast([(2, 3), (3, 4), (4, 5)], 5, SolverConfig(engine="bogus"))


def test_engine_name_is_validated_when_the_config_is_built():
    with pytest.raises(ValueError, match="unknown engine 'bogus'"):
        SolverConfig(engine="bogus")


def test_proximity_table_budget():
    # 9e8 int32 cells, 3.6 GB: over the fold table's byte budget
    with pytest.raises(BudgetExceededError, match="fold table needs"):
        solve_proximity_smawk([(15000, 5), (15000, 9)], 15000)


def test_bellman_cell_budget():
    with pytest.raises(BudgetExceededError):
        solve_bellman([(2, 3), (3, 4)], 4, cell_budget=2)


def test_capacity_dp_row_byte_budget(monkeypatch):
    # a few items under a huge capacity pass the cell budget with rows far
    # larger than memory; the capacity DP must refuse them before allocating.
    # Both instances run at capacity 70: two int16 rows of 71 cells, 284 bytes
    import knapsolve.baselines

    fallback = [(50, 7), (60, 9)]  # w_max = 60 > n^2 = 4
    structured = [(5, k) for k in range(1, 20)]
    calls = (
        lambda: solve_bellman(fallback, 70),
        lambda: solve_fast(fallback, 70),
        lambda: solve_fast(structured, 70, SolverConfig(verify=True)),
    )
    monkeypatch.setattr(knapsolve.baselines, "TABLE_BYTE_BUDGET", 283)
    for call in calls:
        with pytest.raises(BudgetExceededError, match="284 bytes, over the budget of 283"):
            call()
    assert solve_fast(structured, 70) == solve_exhaustive(structured, 70)
    monkeypatch.setattr(knapsolve.baselines, "TABLE_BYTE_BUDGET", 284)
    assert [call() for call in calls] == [9, 9, solve_exhaustive(structured, 70)]


def test_capacity_dp_paths_normalize_once(monkeypatch):
    # the fallback and the verify check run the capacity DP on the instance
    # solve_fast already normalized, under the same budgets and messages
    import knapsolve.baselines
    import knapsolve.solver

    calls = []

    def counting(*args):
        calls.append(args)
        return normalize(*args)

    monkeypatch.setattr(knapsolve.solver, "normalize", counting)
    monkeypatch.setattr(knapsolve.baselines, "normalize", counting)
    fallback = [(50, 7), (60, 9)]  # w_max = 60 > n^2 = 4
    structured = [(2, 3), (3, 4), (4, 5), (5, 9)]
    for items, capacity in ((fallback, 70), (structured, 9)):
        calls.clear()
        got = solve_fast(items, capacity, SolverConfig(verify=True))
        assert got == solve_exhaustive(items, capacity) and len(calls) == 1
    with pytest.raises(BudgetExceededError, match="table needs 40 cells, over the budget of 39"):
        solve_fast(structured, 9, SolverConfig(verify=True, verify_cell_budget=39))
    with pytest.raises(BudgetExceededError, match="over the budget of"):
        solve_fast([(1 << 40, 7), ((1 << 40) + 1, 9)], 1 << 41)


def test_huge_profits_use_exact_arithmetic():
    big = 1 << 60
    items = [(3, big), (2, 5), (4, big + 7)]
    want = solve_exhaustive(items, 6)
    assert want == big + 12  # weights 4 + 2 fit together
    assert solve_bellman(items, 6) == want
    assert solve_fast(items, 6) == want
    assert solve_proximity_smawk(items, 6) == want


def test_profit_totals_straddling_narrow_table_cap():
    # totals just under the cap take int32 tables, just over take int64;
    # answers must not depend on which width was picked
    from knapsolve.core import INT32_VALUE_CAP

    rng = random.Random(4242)
    n = 12
    for bump in (-100, -1, 0, 1, 100):
        base = (INT32_VALUE_CAP + bump) // n
        items = [(rng.randint(1, 9), base + rng.randint(0, 5)) for _ in range(n)]
        cap = sum(w for w, _ in items) // 2
        want = solve_exhaustive(items, cap)
        assert solve_fast(items, cap) == want
        assert solve_bellman(items, cap) == want


def test_banded_capacity_dp_against_exhaustive():
    # the capacity DP updates only the cells dp[t] can still read, in cells
    # as narrow as the profit total allows; every edge of the band and each
    # cell width must agree with enumeration, through solve_bellman and
    # through solve_fast's verify check
    from knapsolve.baselines import _dp_cell_dtype

    rng = random.Random(9191)
    cases = []
    for _ in range(120):
        items = random_items(rng, equal_weights=rng.random() < 0.25)
        total = sum(w for w, _ in items)
        w_min = min(w for w, _ in items)
        for t in (0, total - 1, total - w_min, rng.randint(0, total)):
            cases.append((items, t))
    for _ in range(30):
        w = rng.randint(1, 9)
        cases.append(([(w, rng.randint(1, 30))], rng.randint(0, 2 * w)))
        heavy = [(rng.randint(10, 20), rng.randint(1, 30)) for _ in range(3)]
        cases.append((heavy + random_items(rng, n_max=8, w_max=9), 9))
    int32_max = (1 << 31) - 1
    for total, dtype in ((int32_max, np.int32), (int32_max + 1, np.int64), ((1 << 63) + 5, object)):
        assert _dp_cell_dtype(total) == dtype
        for _ in range(10):
            n = rng.randint(2, 12)
            weights = [rng.randint(1, 9) for _ in range(n)]
            profits = [total // n + rng.randint(-1000, 1000) for _ in range(n - 1)]
            items = list(zip(weights, profits + [total - sum(profits)]))
            t = rng.randint(max(weights), sum(weights) - 1)
            # every item fits alone, so the DP's total is the whole total
            assert sum(normalize(items, t).profits.tolist()) == total
            cases.append((items, t))
    for items, t in cases:
        want = solve_exhaustive(items, t)
        assert solve_bellman(items, t) == want, (items, t)
        assert solve_fast(items, t, SolverConfig(verify=True)) == want, (items, t)


@pytest.mark.parametrize("total, itemsize", [(32_767, 2), (32_768, 4)])
def test_capacity_dp_int16_cells_at_their_limit(monkeypatch, total, itemsize):
    # the capacity DP's cells lie in [0, total] with no sentinels, so int16
    # holds totals up to its maximum; this answer is total - 1, where a cell
    # one width too narrow would wrap
    import knapsolve.baselines
    from knapsolve.baselines import _dp_cell_dtype

    assert np.dtype(_dp_cell_dtype(total)).itemsize == itemsize
    rng = random.Random(total)
    weights = [rng.randint(1, 9) for _ in range(11)]
    profits = [total // 12 + rng.randint(-50, 50) for _ in range(10)]
    items = list(zip(weights, profits + [total - 1 - sum(profits)])) + [(1, 1)]
    t = sum(weights)  # every item but the (1, 1) fits
    assert sum(normalize(items, t).profits.tolist()) == total
    monkeypatch.setattr(knapsolve.baselines, "TABLE_BYTE_BUDGET", 0)
    with pytest.raises(BudgetExceededError, match=f"rows need {2 * (t + 1) * itemsize} bytes"):
        solve_bellman(items, t)
    monkeypatch.undo()
    assert solve_bellman(items, t) == solve_exhaustive(items, t) == total - 1


def test_solver_config_has_no_constant_knob():
    # the hinted engine always runs at the analysis constant: a config that
    # names another one is refused, and the read-only mirror reports C
    with pytest.raises(TypeError):
        SolverConfig(constant=2.0)
    config = SolverConfig(engine="hinted")
    assert config.constant == DEFAULT_CONSTANT == 2.0
    with pytest.raises(AttributeError):
        config.constant = 0.25


@pytest.mark.parametrize("constant", [-1, 0, math.nan, math.inf])
def test_solver_config_rejects_bad_constant(constant):
    # refused when the config is built, not deep inside the hinted engine:
    # the keyword is gone, so any constant, bad ones included, is refused
    with pytest.raises(TypeError, match="constant"):
        SolverConfig(constant=constant, engine="hinted")


@pytest.mark.parametrize("verify", ["no", 0, 1, None, np.bool_(True)])
def test_solver_config_rejects_non_bool_verify(verify):
    # "no" is truthy: read as given it would run the verification
    with pytest.raises(ValueError, match="verify must be a bool"):
        SolverConfig(verify=verify)


@pytest.mark.parametrize("budget", ["10", 10.0, True, False, -1])
def test_solver_config_rejects_bad_verify_cell_budget(budget):
    # refused when the config is built, not once a verification runs
    with pytest.raises(ValueError, match="verify_cell_budget must be a nonnegative int or None"):
        SolverConfig(verify=True, verify_cell_budget=budget)


def test_solver_config_accepts_its_documented_values():
    for budget in (None, 0, 39, np.int64(39)):
        assert SolverConfig(verify=True, verify_cell_budget=budget).verify_cell_budget == budget
    assert SolverConfig(verify=False).verify is False


def test_stats_populated_on_structured_path():
    items = [(3, 7), (4, 9), (5, 4), (2, 6), (3, 5), (4, 8)]
    capacity = 9
    stats = Stats()
    solve_fast(items, capacity, stats=stats)
    assert stats.engine == "dense"
    assert stats.peak_table_cells > 0
    # three add-side and three remove-side candidates, folded in full
    assert stats.fold_passes == 6
    hinted = Stats()
    solve_fast(items, capacity, SolverConfig(engine="hinted"), hinted)
    assert hinted.engine == "hinted"
    assert hinted.extend.matrix_evals > 0
    assert hinted.fold_passes == 0


def test_peak_table_cells_of_fallback_and_proximity():
    # the capacity DP's row of capacity + 1 cells
    stats = Stats()
    assert solve_fast([(50, 7), (60, 9)], 70, stats=stats) == 9
    assert stats.peak_table_cells == 71
    # proximity's one table of half-size 2 * w_max^2, w_max = 5
    stats = Stats()
    items = [(3, 7), (4, 9), (5, 4), (2, 6), (3, 5), (4, 8)]
    assert solve_proximity_smawk(items, 9, stats=stats) == solve_exhaustive(items, 9)
    assert stats.peak_table_cells == 4 * 5 * 5 + 1


def test_repeat_runs_are_deterministic():
    items = [(3, 7), (4, 9), (5, 4), (2, 6), (3, 5), (4, 8), (6, 11)]
    runs = []
    for _ in range(2):
        stats = Stats()
        got = solve_fast(items, 11, stats=stats)
        runs.append((got, stats.peak_table_cells, stats.fold_passes, stats.engine))
    assert runs[0] == runs[1]


# --- the fold engine against direct enumeration -------------------------

CELL_TYPES = [(np.int32, 1), (np.int64, 1 << 36), (object, 1 << 70)]


def concave_prefix(rng, cap, scale):
    incs = sorted((rng.randint(-40, 40) * scale for _ in range(cap)), reverse=True)
    out = [0]
    for d in incs:
        out.append(out[-1] + d)
    return out


def finite_cells(eng):
    """{z: value} over the engine's finite cells, checked to lie in its live span."""
    if eng.arr.dtype == object:
        slots = [k for k, v in enumerate(eng.arr) if v != BOTTOM]
    else:
        slots = np.flatnonzero(eng.arr > eng.threshold).tolist()
    assert all(eng.lo <= k < eng.hi for k in slots)
    return {k - eng.half: int(eng.arr[k]) for k in slots}


def fold_reference(cells, half, weight, prefix, direction):
    """q'[z] = max over x of q[z - direction*x*weight] + prefix[x], z in [-half, half]."""
    out = {}
    for z, v in cells.items():
        for x, gain in enumerate(prefix):
            t = z + direction * x * weight
            if -half <= t <= half and (t not in out or v + gain > out[t]):
                out[t] = v + gain
    return out


def window_reference(cells, slack):
    best = (BOTTOM, None)
    for z in sorted(cells):
        if z <= slack and (best[1] is None or cells[z] > best[0]):
            best = (cells[z], z)
    return best


def check_window(eng, cells, rng):
    for slack in {-eng.half, eng.half, rng.randint(-eng.half, eng.half)}:
        assert eng.window_best(slack) == window_reference(cells, slack)


def filled_fold(rng, half, dtype, scale, density=0.3):
    """An engine whose live span is the whole table, with random finite cells."""
    eng = _DenseFold(half, dtype)
    eng.arr[half] = eng.sentinel
    cells = {}
    for k in range(2 * half + 1):
        if rng.random() < density:
            cells[k - half] = eng.arr[k] = rng.randint(-1000, 1000) * scale
    eng.lo, eng.hi = 0, 2 * half + 1
    return eng, cells


def test_dense_fold_update_matches_enumeration():
    rng = random.Random(808)
    for dtype, scale in CELL_TYPES:
        for _ in range(40):
            half = rng.randint(1, 40)
            eng = _DenseFold(half, dtype)
            want = {0: 0}
            for _ in range(rng.randint(1, 8)):
                weight = rng.randint(1, half + 3)
                prefix = concave_prefix(rng, rng.randint(0, 4), scale)
                direction = rng.choice((+1, -1))
                eng.update(weight, prefix, direction)
                want = fold_reference(want, half, weight, prefix, direction)
                assert finite_cells(eng) == want
            check_window(eng, want, rng)


def test_dense_fold_resize_both_ways():
    rng = random.Random(809)
    for dtype, scale in CELL_TYPES:
        for _ in range(30):
            half = rng.randint(1, 30)
            eng = _DenseFold(half, dtype)
            want = {0: 0}
            for _ in range(6):
                new_half = rng.randint(1, 2 * half + 5)
                eng.resize(new_half)
                half = new_half
                want = {z: v for z, v in want.items() if -half <= z <= half}
                assert eng.half == half and eng.arr.size == 2 * half + 1
                assert finite_cells(eng) == want
                # only the live span is copied; everything outside is the sentinel
                outside = eng.arr[: eng.lo].tolist() + eng.arr[eng.hi :].tolist()
                assert all(v == eng.sentinel for v in outside)
                weight = rng.randint(1, half)
                prefix = concave_prefix(rng, rng.randint(1, 4), scale)
                direction = rng.choice((+1, -1))
                eng.update(weight, prefix, direction)
                want = fold_reference(want, half, weight, prefix, direction)
                assert finite_cells(eng) == want
            check_window(eng, want, rng)


def test_dense_fold_live_span_crossing_a_tile():
    # a table filled across more than one scratch tile, so each pass runs
    # several tiles and their order decides whether a cell is shifted twice
    rng = random.Random(810)
    half = _TILE // 2 + 5000
    for dtype, scale in CELL_TYPES:
        eng, want = filled_fold(rng, half, dtype, scale)
        for weight, direction in ((7, +1), (5, -1), (_TILE + 3, +1)):
            prefix = concave_prefix(rng, 2, scale)
            eng.update(weight, prefix, direction)
            want = fold_reference(want, half, weight, prefix, direction)
        assert finite_cells(eng) == want
        check_window(eng, want, rng)


def test_int32_fold_at_profit_cap_keeps_bottom_cells():
    # add-side profit of exactly INT32_VALUE_CAP is the most a sentinel can
    # climb under int32 cells; odd indices stay bottom under even weights
    # and must still read as bottom
    half, weight, gain = 9, 2, 1 << 20
    eng = _DenseFold(half, np.int32)
    want = {0: 0}
    for _ in range(INT32_VALUE_CAP // gain):
        for direction, prefix in ((+1, [0, gain]), (-1, [0, -gain])):
            eng.update(weight, prefix, direction)
            want = fold_reference(want, half, weight, prefix, direction)
    assert finite_cells(eng) == want
    assert all(z % 2 == 0 for z in want)
    assert eng.window_best(half) == window_reference(want, half)


# run lengths the binary chunks must cover: every length up to 9, and the
# lengths on either side of a power of two
RUN_LENGTHS = tuple(range(1, 10)) + (15, 16, 17)


def run_prefix(rng, lengths, scale):
    """A concave prefix made of one run of equal increments per length."""
    incs = sorted(rng.sample(range(-40, 41), len(lengths)), reverse=True)
    out = [0]
    for k, d in zip(lengths, incs):
        out += [out[-1] + d * scale * x for x in range(1, k + 1)]
    return out


def test_dense_fold_update_folds_runs():
    # each run length alone and behind other runs, both directions; the
    # table is wide enough that no chunk leaves it, so every chunk is a pass
    rng = random.Random(811)
    for dtype, scale in CELL_TYPES:
        for k in RUN_LENGTHS:
            for lengths in ((k,), (rng.randint(1, 3), k, rng.randint(1, 5))):
                for direction in (+1, -1):
                    weight = rng.randint(1, 5)
                    half = weight * sum(lengths) + rng.randint(1, 5)
                    eng = _DenseFold(half, dtype)
                    want = {0: 0}
                    for _ in range(2):
                        prefix = run_prefix(rng, lengths, scale)
                        passes = eng.update(weight, prefix, direction)
                        assert passes == sum(m.bit_length() for m in lengths)
                        want = fold_reference(want, half, weight, prefix, direction)
                        assert finite_cells(eng) == want
                        direction = -direction
                    check_window(eng, want, rng)


def test_dense_fold_runs_past_the_table_edge():
    # small tables filled edge to edge: the larger chunks shift past the edge
    # and are skipped, the remainder chunks after them still fit
    rng = random.Random(812)
    for dtype, scale in CELL_TYPES:
        for k in RUN_LENGTHS:
            for _ in range(4):
                half = rng.randint(1, 25)
                eng, want = filled_fold(rng, half, dtype, scale)
                weight = rng.randint(1, half + 3)
                lengths = (k,) if rng.random() < 0.5 else (k, rng.randint(1, 17))
                prefix = run_prefix(rng, lengths, scale)
                direction = rng.choice((+1, -1))
                passes = eng.update(weight, prefix, direction)
                assert passes <= sum(m.bit_length() for m in lengths)
                want = fold_reference(want, half, weight, prefix, direction)
                assert finite_cells(eng) == want
                check_window(eng, want, rng)


def test_dense_fold_chunk_shifts_wider_than_a_tile():
    # a 4-copy chunk of weight _TILE // 4 + 7 shifts past one scratch tile;
    # the chunks of weight 7 walk a span of two tiles
    rng = random.Random(813)
    half = _TILE // 2 + 5000
    for dtype, scale in CELL_TYPES:
        eng, want = filled_fold(rng, half, dtype, scale, density=0.1)
        for weight, lengths, direction in (
            (_TILE // 4 + 7, (7, 2), +1),
            (_TILE // 4 + 7, (4, 5), -1),
            (7, (17,), -1),
            (7, (16, 1), +1),
        ):
            prefix = run_prefix(rng, lengths, scale)
            eng.update(weight, prefix, direction)
            want = fold_reference(want, half, weight, prefix, direction)
        assert finite_cells(eng) == want
        check_window(eng, want, rng)


def test_int32_fold_at_profit_cap_keeps_bottom_cells_with_runs():
    # the climb of the test above folded as runs of 16 equal gains: each
    # chunk gains several increments at once, and the add-side total is
    # still exactly INT32_VALUE_CAP
    half, weight, gain, run = 40, 2, 1 << 20, 16
    eng = _DenseFold(half, np.int32)
    want = {0: 0}
    for _ in range(INT32_VALUE_CAP // (gain * run)):
        for direction in (+1, -1):
            prefix = [direction * gain * x for x in range(run + 1)]
            assert eng.update(weight, prefix, direction) == run.bit_length()
            want = fold_reference(want, half, weight, prefix, direction)
    assert finite_cells(eng) == want
    assert all(z % 2 == 0 for z in want)
    assert eng.window_best(half) == window_reference(want, half)


# --- bound-based pruning of the core fold --------------------------------


def prune_reference(cells, slack, add, remove, g):
    """Cells whose two-rate completion bound can pass the best entry at z <= slack.

    This is ``_DenseFold.cut``'s rule: the bound runs to s_g = g * (slack // g),
    a cell must reach LB + 1 unless it is LB's own (lowest-index) cell,
    ``add`` is (1, 0) once the add side is used up, and with ``remove`` None
    no cell above the slack survives.
    """
    feasible = [v for z, v in cells.items() if z <= slack]
    if not feasible:
        return dict(cells)
    lb = max(feasible)
    z_lb = min(z for z, v in cells.items() if z <= slack and v == lb)
    s_g = g * (slack // g)

    def keep(z, v):
        if z == z_lb:
            return True
        if z > slack and remove is None:
            return False
        w, p = add if z <= slack else remove
        return v + Fraction(p, w) * (s_g - z) >= lb + 1

    return {z: v for z, v in cells.items() if keep(z, v)}


def random_bound(rng, half, scale):
    """Slack and two rates with pa/wa <= pr/wr, as ``_DenseFold.cut`` needs."""
    wa, wr = rng.randint(1, 9), rng.randint(1, 9)
    pa = rng.randint(1, 40) * scale
    pr = -(-pa * wr // wa) + rng.randint(0, 20) * scale
    return rng.randint(0, half - 1), (wa, pa), (wr, pr)


def check_cut(eng, want, rng, slack, g, add, remove):
    span = eng.hi - eng.lo
    feasible = {z: v for z, v in want.items() if z <= slack}
    pos = eng.cut(slack, g * (slack // g), add, remove, _CutScratch(eng.arr.size))
    assert pos - eng.half == window_reference(feasible, slack)[1]
    want = prune_reference(want, slack, add, remove, g)
    got = finite_cells(eng)
    assert got == want
    assert span - (eng.hi - eng.lo) >= 0
    assert eng.lo == min(got) + eng.half and eng.hi == max(got) + eng.half + 1
    check_window(eng, want, rng)
    return want


def random_cut(rng, half, scale):
    """A ``random_bound`` with a gcd, and now and then a side used up."""
    slack, add, remove = random_bound(rng, half, scale)
    if rng.random() < 0.2:
        add = (1, 0)
    if rng.random() < 0.2:
        remove = None
    return slack, rng.randint(1, 4), add, remove


def int64_tiles_fit(half, rate):
    """Whether ``_DenseFold.cut`` compares integer cells under ``rate`` in int64."""
    return rate is None or 2 * rate[1] * (2 * half + 1) + 4 * rate[0] < 1 << 62


def test_dense_fold_cut_matches_reference():
    # every cell type at its scale, plus int64 cells under rates 16 times
    # their scale, which push the compare past int64 tiles onto Python ints
    rng = random.Random(817)
    ties = wide = 0
    cases = [(dtype, scale, scale) for dtype, scale in CELL_TYPES]
    for dtype, scale, rate_scale in cases + [(np.int64, 1 << 48, 1 << 52)]:
        for _ in range(150):
            half = rng.randint(2, 40)
            eng = _DenseFold(half, dtype)
            want = {0: 0}
            for _ in range(rng.randint(1, 8)):
                weight = rng.randint(1, half)
                prefix = concave_prefix(rng, rng.randint(0, 4), scale)
                direction = rng.choice((+1, -1))
                eng.update(weight, prefix, direction)
                want = fold_reference(want, half, weight, prefix, direction)
            slack, g, add, remove = random_cut(rng, half, rate_scale)
            if dtype == np.int64:
                wide += not (int64_tiles_fit(half, add) and int64_tiles_fit(half, remove))
            # a cell on LB's level at z <= slack is a tie the cut must drop
            lb = max(v for z, v in want.items() if z <= slack)
            ties += sum(v == lb for z, v in want.items() if z <= slack) > 1
            want = check_cut(eng, want, rng, slack, g, add, remove)
            eng.update(1, [0, scale], +1)
            assert finite_cells(eng) == fold_reference(want, half, 1, [0, scale], +1)
    assert ties > 0 and wide > 0


def test_dense_fold_cut_across_tiles():
    # values along a line between the two rates, with ties to LB, so the cut
    # meets LB's cell and both span ends in different scratch tiles
    rng = random.Random(818)
    half = _TILE + 5000
    for dtype, scale in CELL_TYPES:
        for g, removes_left in ((1, True), (3, False)):
            slack, add, remove = random_bound(rng, half, scale)
            slope = (Fraction(*add[::-1]) + Fraction(*remove[::-1])) / 2
            eng = _DenseFold(half, dtype)
            eng.arr[half] = eng.sentinel
            want = {}
            for k in range(0, 2 * half + 1, 3):
                z = k - half
                want[z] = eng.arr[k] = int(slope * z) + rng.randint(-50, 50) * scale
            eng.lo, eng.hi = 0, 2 * half + 1
            check_cut(eng, want, rng, slack, g, add, remove if removes_left else None)
            assert 0 < eng.lo


def stage_one_inputs(items, capacity, perturbed=False):
    """What ``first_stage_dense`` receives for an instance, plus the split.

    By default these are ``solve_fast``'s inputs: partitions on the original
    efficiency order.  With ``perturbed`` the partitions follow the
    ``break_ties`` order instead, as a direct caller may build them; the
    original profits are folded either way.
    """
    inst = normalize(items, capacity)
    work = break_ties(inst) if perturbed else inst
    split = greedy_split(work)
    wpart = weight_partition(work, split)
    schedule = phase_schedule(work.w_max, 2.0, len(wpart.innermost))
    rank_part = rank_partition(work, split, wpart.innermost)
    profits = [it.profit for it in inst.items]
    return profits, rank_part, schedule, split


def check_pruned(items, capacity, want=None):
    """solve_fast against an oracle; returns the cells it pruned."""
    if want is None:
        if len(items) <= 24:
            want = solve_exhaustive(items, capacity)
        else:
            want = solve_bellman(items, capacity)
    stats = Stats()
    assert solve_fast(items, capacity, stats=stats) == want
    return stats.cells_pruned


def staged_answer(items, capacity, perturbed=False):
    """The dense stage pipeline on ``stage_one_inputs``' partitions.

    ``first_stage_dense`` folds the innermost layer and ``second_stage`` the
    outer ones; returns the answer and the weight layers.
    """
    inst = normalize(items, capacity)
    profits, rank_part, schedule, split = stage_one_inputs(items, capacity, perturbed)
    eng = first_stage_dense(profits, rank_part, schedule, None, cell_dtype(sum(profits)))
    layers = weight_partition(break_ties(inst) if perturbed else inst, split).layers
    base = sum(p for i, p in enumerate(profits) if split.in_greedy[i])
    answer = second_stage(eng, inst, split, schedule, layers, SolverConfig(), profits, base)
    return answer, layers


def test_legacy_pipeline_on_perturbed_partitions():
    items = [(5, 7), (5, 8), (2, 3)]
    # the perturbed order puts (2, 3) (efficiency 1.5) inside the greedy set
    # and (5, 8) (efficiency 1.6) outside
    split = stage_one_inputs(items, 6, perturbed=True)[3]
    assert [items[i] for i in range(3) if split.in_greedy[i]] == [(2, 3)]
    assert staged_answer(items, 6, perturbed=True)[0] == 8
    # solve_fast orders by the original efficiencies
    split = stage_one_inputs(items, 6)[3]
    assert [items[i] for i in range(3) if split.in_greedy[i]] == [(5, 8)]
    check_pruned(items, 6)
    # near-equal efficiencies with n < 2 w_max let the perturbation put a
    # less efficient item inside the greedy set
    rng = random.Random(812)
    for _ in range(150):
        weights = [rng.randint(20, 60) for _ in range(rng.randint(10, 16))]
        items = [(w, w + rng.randint(0, 2)) for w in weights]
        capacity = rng.randint(1, sum(w for w, _ in items) - 1)
        if normalize(items, capacity).all_fit:
            continue
        want = solve_exhaustive(items, capacity)
        check_pruned(items, capacity, want)
        assert staged_answer(items, capacity, perturbed=True)[0] == want


def test_second_stage_folds_an_outer_layer():
    # at C = 2 a second weight layer needs w_max near 1024 with n about 4w;
    # stage two then folds its 77 weights around stage one's 923
    items, capacity = generate_instance(4096, 1024, 1000, 0.5, 1, "uniform")
    answer, layers = staged_answer(items, capacity)
    assert [len(layer) for layer in layers] == [923, 77]
    assert answer == solve_bellman(items, capacity) == 1_646_931


def test_pruning_on_equal_efficiencies():
    # every cell then lies on the bound, q[z] = rate * z, so while both
    # sides have items left only ties to LB can be dropped: once LB is
    # rate * s_g every other cell ties it, the cut keeps LB's cell alone and
    # the fold stops before its last candidate.  Keeping ties, it would run
    # to the end.
    rng = random.Random(813)
    for trial in range(40):
        rate = rng.randint(1, 4)
        items = [(w, rate * w) for w in (rng.randint(1, 30) for _ in range(24))]
        capacity = rng.randint(1, sum(w for w, _ in items) - 1)
        stats = Stats()
        assert solve_fast(items, capacity, stats=stats) == solve_exhaustive(items, capacity)
        assert stats.cells_pruned > 0 and stats.fold_passes < len(items)


def test_pruning_at_capacity_edges():
    rng = random.Random(814)
    for trial in range(40):
        items = [(rng.randint(1, 25), rng.randint(1, 50)) for _ in range(90)]
        total = sum(w for w, _ in items)
        # capacity one short of everything
        check_pruned(items, total - 1)
        # slack 0: the capacity is a prefix of the efficiency order, which
        # does not depend on the capacity once every item fits
        order = stage_one_inputs(items, total - 1)[3].order
        k = rng.randint(len(items) // 4, len(items) - 1)
        capacity = sum(items[i][0] for i in order[:k])
        split = stage_one_inputs(items, capacity)[3]
        assert split.greedy_weight == capacity
        check_pruned(items, capacity)


def test_pruning_with_unit_weights():
    rng = random.Random(815)
    for trial in range(20):
        items = [(1, rng.randint(1, 40)) for _ in range(rng.randint(2, 60))]
        check_pruned(items, rng.randint(0, len(items) - 1))


def test_pruning_across_cell_widths():
    rng = random.Random(816)
    n = 80
    for total, dtype in (
        (INT32_VALUE_CAP - 1, np.int32),
        (INT32_VALUE_CAP, np.int32),
        (INT32_VALUE_CAP + 1, np.int64),
        (1 << 40, np.int64),
        (INT64_VALUE_CAP, np.int64),
        (INT64_VALUE_CAP + 1, object),
    ):
        for _ in range(3):
            weights = [rng.randint(1, 20) for _ in range(n)]
            profits = [total // n + rng.randint(-n, 0) for _ in range(n - 1)]
            items = list(zip(weights, profits + [total - sum(profits)]))
            assert sum(p for _, p in items) == total
            capacity = sum(weights) // 2
            assert cell_dtype(total) == dtype
            # the core fold prunes at every cell width
            assert check_pruned(items, capacity, solve_bellman(items, capacity)) > 0


def test_pruning_removes_cells_at_scale():
    # proximity folds the same classes unpruned; the two larger profit
    # scales give int64 cells with a total past 2^62 / 16 w^2, and object
    # cells
    for n, w, p_max in ((1024, 256, 32), (1024, 256, 10**10), (256, 64, 2**58)):
        items, capacity = generate_instance(n, w, p_max, 0.5, 7, "uniform")
        assert check_pruned(items, capacity, solve_proximity_smawk(items, capacity)) > 0


# --- the dense path's core fold ------------------------------------------


def core_fold_reference(items, capacity):
    """The core fold on a {z: value} dict, with ``prune_reference`` as the cut.

    Returns (answer, fold_passes, peak_table_cells, best_index) for a
    nontrivial instance with w_max <= n^2, as ``solve_fast`` reports them.
    """
    inst = normalize(items, capacity)
    split = greedy_split(inst)
    weights, profits = inst.weights.tolist(), inst.profits.tolist()
    sides = (split.add_candidates, split.remove_candidates)
    candidates = {i for side in sides for m in side.values() for i in m}
    order = split.order.tolist()
    k = split.break_index
    adds = [(weights[i], profits[i]) for i in order[k:] if i in candidates]
    removes = [(weights[i], profits[i]) for i in reversed(order[:k]) if i in candidates]
    slack = inst.capacity - split.greedy_weight
    g = math.gcd(*(w for w, _ in adds + removes))
    s_g = g * (slack // g)
    w_max = inst.w_max
    cap = 2 * w_max * w_max
    half = min(cap, max(w_max, slack + 1))
    peak = 2 * half + 1
    cells = {0: 0}
    passes = 0
    while adds or removes:
        if adds and (not removes or passes % 2 == 0):
            (w, p), direction = adds.pop(0), +1
        else:
            (w, p), direction = removes.pop(0), -1
        # grow by doubling until the pass stays inside the table, up to cap
        reach = max(direction * z for z in cells) + w
        while reach > half and half < cap:
            half = min(2 * half, cap)
        peak = max(peak, 2 * half + 1)
        cells = fold_reference(cells, half, w, [0, direction * p], direction)
        passes += 1
        if passes % 8 == 0:
            add = adds[0] if adds else (1, 0)
            cells = prune_reference(cells, slack, add, removes[0] if removes else None, g)
            if len(cells) == 1:
                (z_lb, lb), = cells.items()
                if add[1] * (s_g - z_lb) < add[0]:
                    return split.greedy_profit + lb, passes, peak, z_lb
    lb, z_lb = window_reference(cells, slack)
    return split.greedy_profit + lb, passes, peak, z_lb


def test_core_fold_matches_reference():
    # pins the fold order, the table growth, the rates (the next unfolded
    # item per side), the cut's cadence and the stop rule, not only answers;
    # random profits scaled by 2^40 (int64 cells, totals near 2^62 / 16
    # w_max^2) and by 2^70 (object cells) too
    rng = random.Random(819)
    stopped = 0
    scales = {"random": 0, "random-2^40": 40, "random-2^70": 70}
    shapes = TIE_SHAPES + tuple(scales)
    for trial in range(360):
        shape = shapes[trial % len(shapes)]
        size = rng.randint(10, 60)
        items = []
        while len(items) < size:
            if shape in scales:
                items.append((rng.randint(1, 16), rng.randint(1, 40) << scales[shape]))
            else:
                items += tie_heavy_items(rng, shape)
        total = sum(w for w, _ in items)
        capacity = rng.choice((rng.randint(0, total), total // 2, total - 1))
        inst = normalize(items, capacity)
        if inst.all_fit or inst.w_max > inst.n * inst.n:
            continue
        stats = Stats()
        got = solve_fast(items, capacity, stats=stats)
        want = core_fold_reference(items, capacity)
        assert (got, stats.fold_passes, stats.peak_table_cells, stats.best_index) == want
        assert got == solve_bellman(items, capacity)
        split = greedy_split(inst)
        sides = (split.add_candidates, split.remove_candidates)
        stopped += stats.fold_passes < sum(len(m) for side in sides for m in side.values())
    assert stopped > 100


def pisinger_instance(family, n, r, seed):
    """One of Pisinger's hard families ("Where are the hard knapsack problems?",
    C&OR 32, 2005) at n items and range r, capacity half the total weight
    (made odd for even-odd)."""
    rng = random.Random(seed)
    items = []
    if family == "spanner":
        # two strongly correlated spanner items scaled by 2/m, then n
        # multiples a * (w, p) of them with a in [1, m]
        m = 10
        bases = []
        for _ in range(2):
            w = rng.randint(1, r)
            bases.append((-(-2 * w // m), -(-2 * (w + r // 10) // m)))
        for _ in range(n):
            w, p = rng.choice(bases)
            a = rng.randint(1, m)
            items.append((a * w, a * p))
    for _ in range(n if family != "spanner" else 0):
        w = rng.randint(1, r)
        if family == "subset-sum":
            p = w
        elif family == "even-odd":
            w = 2 * rng.randint(1, r // 2)
            p = w
        elif family == "strongly-correlated":
            p = w + r // 10
        elif family == "inverse-strongly-correlated":
            p, w = w, w + r // 10
        elif family == "profit-ceiling":
            p = 3 * -(-w // 3)
        else:  # near-equal
            p = 3 * w + rng.randint(0, 1)
        items.append((w, p))
    capacity = sum(w for w, _ in items) // 2
    return items, capacity | 1 if family == "even-odd" else capacity


PISINGER_FAMILIES = (
    "subset-sum",
    "even-odd",
    "strongly-correlated",
    "inverse-strongly-correlated",
    "profit-ceiling",
    "near-equal",
    "spanner",
)


def test_pisinger_families_against_bellman():
    for r, seed in ((8, 1), (16, 2), (64, 3), (128, 4)):
        for family in PISINGER_FAMILIES:
            items, capacity = pisinger_instance(family, 4 * r, r, seed)
            want = solve_bellman(items, capacity)
            assert solve_fast(items, capacity) == want, (family, r)
            assert solve_proximity_smawk(items, capacity) == want, (family, r)
            if r <= 16:
                hinted = solve_fast(items, capacity, SolverConfig(engine="hinted"))
                assert hinted == want, (family, r)


def test_core_fold_work_on_wide_w():
    # the benchmark's wide-w instances, n = 4w at w = 1024: each stops after
    # a few dozen passes on a table far below the 2 w^2 cap
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    calls, _ = workloads.build("wide-w", 1)
    for call in calls:
        stats = Stats()
        solve_fast(call.items, call.capacity, stats=stats)
        assert stats.fold_passes <= 100 and stats.peak_table_cells <= 300_000, call.label


def test_proximity_folds_runs_in_chunks():
    # the benchmark's proximity call on hard-equal-weights, n = 2048 at
    # w = 512: about 62 items per class over two profits, so each class
    # side folds in a few chunk passes instead of one pass per item
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    calls, _ = workloads.build("oracles", 1)
    (call,) = (
        c for c in calls
        if c.spec.kind == "proximity" and c.spec.family == "hard-equal-weights"
    )
    stats = Stats()
    got = solve_proximity_smawk(call.items, call.capacity, stats=stats)
    assert 0 < stats.fold_passes <= call.spec.n // 4
    assert got == solve_fast(call.items, call.capacity)


def test_fold_table_byte_budget(monkeypatch):
    # every fold table is refused before allocation past the byte budget:
    # the core fold's first table and its growth, proximity's fixed table
    # and the hinted engine's hand-over to stage two
    import knapsolve.baselines

    items, capacity = [(5, k) for k in range(1, 20)] + [(1, 1)] * 4, 40
    stats = Stats()
    want = solve_fast(items, capacity, stats=stats)
    first = 2 * 5 + 1  # half-size max(w_max, slack + 1) = 5, int32 cells
    assert stats.peak_table_cells > first
    for nbytes, call in (
        (4 * first, lambda: solve_fast(items, capacity)),
        (4 * stats.peak_table_cells, lambda: solve_fast(items, capacity)),
        (4 * (4 * 25 + 1), lambda: solve_proximity_smawk(items, capacity)),
    ):
        monkeypatch.setattr(knapsolve.baselines, "TABLE_BYTE_BUDGET", nbytes - 1)
        with pytest.raises(BudgetExceededError, match=f"fold table needs {nbytes} bytes"):
            call()
    # the hinted engine's perturbed profits take wider cells
    monkeypatch.setattr(knapsolve.baselines, "TABLE_BYTE_BUDGET", 0)
    with pytest.raises(BudgetExceededError, match="fold table needs [0-9]+ bytes"):
        solve_fast(items, capacity, SolverConfig(engine="hinted"))
    monkeypatch.setattr(knapsolve.baselines, "TABLE_BYTE_BUDGET", 4 * stats.peak_table_cells)
    assert solve_fast(items, capacity) == want == solve_exhaustive(items, capacity)


# --- proximity's window against its unwindowed fold ----------------------


def proximity_reference(items, capacity):
    """solve_proximity_smawk's class fold with no window: every class side
    folds over the whole live span, as before the window was added.

    Returns (answer, fold_passes, peak_table_cells, best_index) for a
    nontrivial instance.
    """
    inst = normalize(items, capacity)
    split = greedy_split(inst)
    profits = inst.profits.tolist()
    stats = Stats()
    eng = _DenseFold(2 * inst.w_max * inst.w_max, cell_dtype(sum(profits)), stats)
    passes = 0
    for w in sorted(split.add_candidates.keys() | split.remove_candidates.keys()):
        for direction, side in ((+1, split.add_candidates), (-1, split.remove_candidates)):
            prefix = [0]
            for idx in side.get(w, ()):
                prefix.append(prefix[-1] + direction * profits[idx])
            passes += eng.update(w, prefix, direction)
    best, best_z = eng.window_best(inst.capacity - split.greedy_weight)
    return split.greedy_profit + best, passes, stats.peak_table_cells, best_z


def check_proximity_window(items, capacity):
    """Proximity's answer and counters equal the unwindowed fold's; returns
    whether the instance was nontrivial."""
    stats = Stats()
    got = solve_proximity_smawk(items, capacity, stats=stats)
    if normalize(items, capacity).all_fit:
        assert got == solve_bellman(items, capacity)
        return False
    want = proximity_reference(items, capacity)
    assert (got, stats.fold_passes, stats.peak_table_cells, stats.best_index) == want, (
        items, capacity,
    )
    return True


def test_proximity_window_matches_unwindowed_fold():
    # the window drops only cells no optimal end can read: tie-heavy shapes,
    # Pisinger's families, generator instances at capacities next to the
    # edges, and profits past int64 (object cells) all fold to the same
    # answer, passes, table size and answer index
    rng = random.Random(6061)
    checked = 0
    for trial in range(40 * len(TIE_SHAPES)):
        items = tie_heavy_items(rng, TIE_SHAPES[trial % len(TIE_SHAPES)])
        total = sum(w for w, _ in items)
        for capacity in (total - 1, rng.randint(0, total)):
            checked += check_proximity_window(items, capacity)
    for r, seed in ((8, 1), (16, 2), (64, 3), (128, 4)):
        for family in PISINGER_FAMILIES:
            checked += check_proximity_window(*pisinger_instance(family, 4 * r, r, seed))
    for w_max in (1, 2, 5, 16, 40):
        for k, dist in enumerate(("uniform", "clustered", "hard-equal-weights")):
            items, _ = generate_instance(4 * w_max + 3, w_max, 50, 0.5, 100 * w_max + k, dist)
            total = sum(w for w, _ in items)
            w_min = min(w for w, _ in items)
            for capacity in (0, total - 1, total - w_min):
                checked += check_proximity_window(items, capacity)
            huge = [(w, p << 70) for w, p in items]
            checked += check_proximity_window(huge, total // 2)
    assert checked > 400


def test_proximity_window_shrinks_the_folded_span(monkeypatch):
    # on the benchmark's three proximity calls the window cuts the live span
    # each class side starts from to 51-57% of the unwindowed fold's (53%
    # summed); the sides folded first, while most weight is still to come,
    # keep their whole span
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    spans = []
    update = _DenseFold.update

    def spy(self, weight, prefix, direction):
        spans[-1] += self.hi - self.lo
        return update(self, weight, prefix, direction)

    monkeypatch.setattr(_DenseFold, "update", spy)
    calls, _ = workloads.build("oracles", 1)
    windowed = reference = 0
    for call in calls:
        if call.spec.kind != "proximity":
            continue
        spans.append(0)
        got = solve_proximity_smawk(call.items, call.capacity)
        spans.append(0)
        assert proximity_reference(call.items, call.capacity)[0] == got, call.label
        windowed += spans[-2]
        reference += spans[-1]
    assert len(spans) == 6 and 0 < 100 * windowed <= 55 * reference


# --- the capacity DP's chunks and order ------------------------------------


def check_capacity_dp(items, t):
    """solve_bellman, fast verify and a shuffled copy against enumeration."""
    want = solve_exhaustive(items, t)
    assert solve_bellman(items, t) == want, (items, t)
    assert solve_fast(items, t, SolverConfig(verify=True)) == want, (items, t)
    shuffled = list(items)
    random.Random(len(items) * 1009 + t).shuffle(shuffled)
    assert solve_bellman(shuffled, t) == want, (shuffled, t)
    return want


def test_capacity_dp_chunks_runs_of_identical_items():
    # a run of k identical items folds as binary chunks: every count up to k
    # is reachable and none past it, alone and among other items
    rng = random.Random(7171)
    for k in range(1, 18):
        w, p = rng.randint(1, 6), rng.randint(1, 20)
        run = [(w, p)] * k
        for t in range(0, k * w + 2):
            assert check_capacity_dp(run, t) == min(k, t // w) * p
        stats = Stats()
        if k > 1:
            # every chunk fits under t = k w - 1: ceil(log2(k + 1)) passes
            assert solve_bellman(run, k * w - 1, stats=stats) == (k - 1) * p
            assert stats.fold_passes == k.bit_length()
        for _ in range(6):
            others = random_items(rng, n_max=22 - k, w_max=8)
            mixed = run + others
            total = sum(w for w, _ in mixed)
            for t in (total - 1, total // 2, rng.randint(0, total)):
                check_capacity_dp(mixed, t)
    # several runs, each of mixed length, some sharing a weight
    for _ in range(40):
        items = []
        while len(items) < 20:
            items += [(rng.randint(1, 5), rng.randint(1, 9))] * rng.randint(1, 9)
        total = sum(w for w, _ in items)
        for t in (0, total - 1, rng.randint(0, total)):
            check_capacity_dp(items[:24], t)


def test_capacity_dp_drops_chunks_heavier_than_the_capacity():
    # seven copies of (3, 5) give chunks of 1, 2 and 4 copies; under t = 10
    # the 4-copy chunk (weight 12) is dropped and three copies still fit
    items = [(3, 5)] * 7 + [(2, 1)] * 2
    stats = Stats()
    assert solve_bellman(items, 10, stats=stats) == 3 * 5
    assert stats.fold_passes == 4  # (3, 5) x 1, (6, 10), (2, 1), (4, 2)
    assert check_capacity_dp(items, 10) == 15
    # the kept chunks all fit: the answer is their profit, with no band
    for items, t, want, passes in (
        ([(4, 9)] * 3, 5, 9, 1),  # chunks of 1 and 2 copies; 8 > 5 is dropped
        ([(4, 9)] * 3 + [(1, 2)], 5, 11, 2),
        ([(3, 5)] * 7, 10, 15, 2),  # 3 + 6 <= 10, the 12 is dropped
    ):
        assert not normalize(items, t).all_fit
        stats = Stats()
        assert solve_bellman(items, t, stats=stats) == want
        assert stats.peak_table_cells == t + 1 and stats.fold_passes == passes
        assert check_capacity_dp(items, t) == want


def test_capacity_dp_answer_ignores_item_order():
    rng = random.Random(8282)
    for _ in range(60):
        items = random_items(rng, n_max=18, w_max=12, p_max=40, equal_weights=rng.random() < 0.2)
        items += [rng.choice(items)] * rng.randint(0, 5)
        total = sum(w for w, _ in items)
        for t in (total - 1, rng.randint(0, total)):
            want = check_capacity_dp(items, t)
            for _ in range(3):
                rng.shuffle(items)
                assert solve_bellman(items, t) == want


def test_capacity_dp_passes_in_stats():
    # solve_bellman and the w_max > n^2 fallback report their chunk passes;
    # the verify check passes no Stats, so the dense counters stay put
    stats = Stats()
    assert solve_fast([(50, 7), (60, 9)], 70, stats=stats) == 9
    assert (stats.engine, stats.fold_passes) == ("bellman-fallback", 2)
    items = [(3, 7), (4, 9), (5, 4), (2, 6), (3, 5), (4, 8)] + [(2, 6)] * 5
    plain, verified = Stats(), Stats()
    solve_fast(items, 14, stats=plain)
    solve_fast(items, 14, SolverConfig(verify=True), verified)
    assert plain == verified
    stats = Stats()
    assert solve_bellman(items, 14, stats=stats) == solve_exhaustive(items, 14)
    assert stats.fold_passes == 5 + 3  # six (2, 6) copies: chunks of 1, 2, 3


def test_capacity_dp_passes_on_equal_weights():
    # the benchmark's pmax-32 hard-equal-weights verify instance, n = 1280
    # at w = 320: its long runs of identical items fold in few chunk passes
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    calls, _ = workloads.build("oracles", 1)
    (call,) = (
        c for c in calls
        if c.spec.kind == "fast-verify" and c.spec.p_max == 32
        and c.spec.family == "hard-equal-weights"
    )
    stats = Stats()
    got = solve_bellman(call.items, call.capacity, stats=stats)
    assert 0 < stats.fold_passes <= call.spec.n // 4
    assert got == solve_fast(call.items, call.capacity)
