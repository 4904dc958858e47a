"""Acceptance gate: end-to-end guarantees at the sizes they are promised.

Each test prints exactly one PASS/FAIL line (outside pytest's capture) so a
full run yields a readable eight-line scorecard.
"""

import csv
import math
import random
import time

import pytest

from knapsolve import (
    break_ties,
    generate_instance,
    normalize,
    recover_profit,
    row_maxima,
    solve_bellman,
    solve_exhaustive,
    solve_fast,
    solve_proximity_smawk,
)
from knapsolve.cli import main
from knapsolve.colorings import (
    balls_and_bins_bound,
    det_balls_and_bins,
    det_isolating_colorings,
    det_set_balancing,
    is_isolated,
)
from knapsolve.core import BOTTOM, is_bottom
from knapsolve.gen import DISTRIBUTIONS
from knapsolve.hinted import (
    ConcaveProfitFn,
    HintedExtendInstance,
    apply_update,
    compose,
    entrywise_max_solutions,
    relaxed_check,
    restrict,
    solve as solve_extension,
    solve_singleton,
    solve_small_b,
)
from test_colorings import multiset

# single fitted constant for the row-maxima evaluation budget; the measured
# maximum over the frozen suite below is 9.73, seen at square shapes where
# the bound's log term vanishes
C_EVAL = 12.0


def _report(capfd, label, ok, detail):
    with capfd.disabled():
        print(f"acceptance {label}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{label}: {detail}"


def test_exact_against_exhaustive_search(capfd):
    t0 = time.perf_counter()
    checked = 0
    bad = 0
    for i in range(1000):
        n = 1 + i % 16
        w_max = 1 + i % 12
        p_max = 1 + i % 20
        t_frac = (0.2, 0.35, 0.5, 0.65, 0.8)[i % 5]
        dist = DISTRIBUTIONS[i % 3]
        items, capacity = generate_instance(n, w_max, p_max, t_frac, 1000 + i, dist)
        capacity = min(capacity, 60)
        want = solve_exhaustive(items, capacity)
        got = solve_fast(items, capacity)
        checked += 1
        if got != want:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 60
    _report(
        capfd,
        "exhaustive-corpus",
        ok,
        f"{checked} instances, {bad} mismatches, {elapsed:.1f}s",
    )


def test_matches_capacity_dp_at_scale(capfd):
    t0 = time.perf_counter()
    bad = 0
    for i in range(200):
        n = (50, 120, 300, 700, 1500, 2000)[i % 6]
        w_max = (5, 12, 30, 60, 100)[i % 5]
        t_frac = (0.3, 0.5, 0.8)[i % 3]
        dist = DISTRIBUTIONS[i % 3]
        items, capacity = generate_instance(n, w_max, 1000, t_frac, 7000 + i, dist)
        want = solve_bellman(items, capacity)
        if solve_fast(items, capacity) != want:
            bad += 1
        if solve_proximity_smawk(items, capacity) != want:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 300
    _report(
        capfd,
        "capacity-dp-corpus",
        ok,
        f"200 instances x 2 solvers, {bad} mismatches, {elapsed:.1f}s",
    )


def test_row_maxima_exact_with_bounded_evals(capfd):
    rng = random.Random(977003)
    mismatches = 0
    over_budget = 0
    worst = 0.0
    for _ in range(500):
        ncols = rng.randint(1, 50)
        nrows = rng.randint(ncols, 200)
        offs = [rng.randint(-40, 40) for _ in range(ncols)]
        incs = sorted((rng.randint(-9, 9) for _ in range(nrows + ncols)), reverse=True)
        f = [0]
        for d in incs:
            f.append(f[-1] + d)
        cut = rng.random() < 0.5
        evals = [0]

        def value(i, j, _offs=offs, _f=f, _ncols=ncols, _cut=cut, _evals=evals):
            _evals[0] += 1
            if _cut and j > i:
                return BOTTOM
            return _offs[j - 1] + _f[i - j + _ncols]

        breaks = row_maxima(nrows, ncols, value)
        used = evals[0]
        argmax = [0] * (nrows + 1)
        for col in range(1, len(breaks)):
            for row in range(breaks[col - 1], breaks[col]):
                argmax[row] = col
        for i in range(1, nrows + 1):
            best, best_j = BOTTOM, 1
            for j in range(1, ncols + 1):
                v = value(i, j)
                if not is_bottom(v) and (is_bottom(best) or v > best):
                    best, best_j = v, j
            if argmax[i] != best_j:
                mismatches += 1
                break
        budget = C_EVAL * ncols * (1 + math.log2(math.ceil(nrows / ncols)))
        worst = max(worst, used / (budget / C_EVAL))
        if used > budget:
            over_budget += 1
    ok = mismatches == 0 and over_budget == 0
    _report(
        capfd,
        "row-maxima",
        ok,
        f"500 matrices, {mismatches} wrong, {over_budget} over budget, "
        f"worst fitted c {worst:.2f} of {C_EVAL}",
    )


def _random_extension(rng, budget):
    half = rng.randint(0, 30)
    n_uni = rng.randint(0, 6)
    universe = rng.sample(range(1, 13), n_uni)
    fns = {}
    for w in universe:
        cap = rng.randint(0, 3)
        incs = sorted((rng.randint(-6, 9) for _ in range(cap)), reverse=True)
        prefix = [0]
        for d in incs:
            prefix.append(prefix[-1] + d)
        fns[w] = ConcaveProfitFn(prefix)
    entries = {}
    for i in range(-half, half + 1):
        if rng.random() < 0.4:
            entries[i] = (
                rng.randint(-30, 30),
                rng.sample(universe, rng.randint(0, min(budget, len(universe)))),
            )
    if not entries:
        entries[0] = (0, rng.sample(universe, min(budget, len(universe))))
    return HintedExtendInstance.build(half, entries, fns)


def test_extension_solvers_meet_relaxed_contract(capfd):
    t0 = time.perf_counter()
    budgets = (1, 2, 3, 5)
    failures = 0
    for name, solver in (
        ("singleton", lambda inst, b: solve_singleton(inst)),
        ("small-budget", solve_small_b),
        ("general", solve_extension),
    ):
        rng = random.Random(88000 + len(name))
        for i in range(500):
            b = 1 if name == "singleton" else budgets[i % 4]
            inst = _random_extension(rng, b)
            sol = solver(inst, b)
            if relaxed_check(inst, sol) != []:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 120
    _report(
        capfd,
        "extension-contract",
        ok,
        f"3 solvers x 500 instances, {failures} contract violations, {elapsed:.1f}s",
    )


def test_extension_algebra_composes(capfd):
    rng = random.Random(88100)
    compose_fail = 0
    done = 0
    while done < 200:
        inst = _random_extension(rng, 3)
        if len(inst.universe) < 2:
            continue
        done += 1
        k = rng.randint(1, len(inst.universe) - 1)
        v1 = set(rng.sample(inst.universe, k))
        rest = [w for w in inst.universe if w not in v1]
        v2 = set(rng.sample(rest, rng.randint(1, len(rest))))
        budget = len(inst.universe)
        y1 = solve_extension(restrict(inst, v1), budget)
        mid = apply_update(inst, v1, y1)
        y2 = solve_extension(restrict(mid, v2), budget)
        composed = compose(y2, y1)
        if relaxed_check(restrict(inst, v1 | v2), composed) != []:
            compose_fail += 1

    max_fail = 0
    for i in range(200):
        base = _random_extension(rng, 3)
        size = base.size
        keep_a = [rng.random() < 0.7 for _ in range(size)]
        keep_b = [rng.random() < 0.7 for _ in range(size)]

        def masked(keep):
            entries = {i: e for i, e in base.entries().items() if keep[i + base.half_size]}
            return HintedExtendInstance.build(base.half_size, entries, base.fns)

        ka, kb = masked(keep_a), masked(keep_b)
        # both sides copy base's entries, so their entrywise maximum is base
        # masked to the entries either side keeps
        merged = masked([a or b for a, b in zip(keep_a, keep_b)])
        ym = entrywise_max_solutions(solve_extension(ka, 3), solve_extension(kb, 3))
        if relaxed_check(merged, ym) != []:
            max_fail += 1
    ok = compose_fail == 0 and max_fail == 0
    _report(
        capfd,
        "extension-algebra",
        ok,
        f"200 compositions ({compose_fail} bad), 200 max-folds ({max_fail} bad)",
    )


def test_coloring_guarantees(capfd):
    rng = random.Random(88200)
    disc_fail = 0
    for _ in range(200):
        m = rng.randint(1, 60)
        uni = list(range(rng.randint(4, 80)))
        sets = [
            set(rng.sample(uni, rng.randint(1, min(10, len(uni))))) for _ in range(m)
        ]
        signs = det_set_balancing(multiset(sets))
        b = max(len(s) for s in sets)
        bound = 4 * math.sqrt(b * math.log(2 * m))
        for s in sets:
            if abs(sum(signs[e] for e in s)) > bound:
                disc_fail += 1

    bins_fail = 0
    for _ in range(200):
        m = rng.randint(1, 40)
        num_colors = rng.choice((2, 4, 8))
        limit = max(1, int(num_colors * math.log2(2 * m))) if m else 1
        uni = list(range(60))
        sets = [
            set(rng.sample(uni, rng.randint(1, min(limit, 20)))) for _ in range(m)
        ]
        coloring = det_balls_and_bins(multiset(sets), num_colors)
        cap = balls_and_bins_bound(m)
        for s in sets:
            per = {}
            for e in s:
                per[coloring[e]] = per.get(coloring[e], 0) + 1
            if per and max(per.values()) > cap:
                bins_fail += 1

    iso_fail = 0
    rounds_fail = 0
    for _ in range(200):
        m = rng.randint(1, 40)
        b = rng.randint(1, 4)
        uni = list(range(30))
        sets = [set(rng.sample(uni, rng.randint(1, b))) for _ in range(m)]
        colorings = det_isolating_colorings(multiset(sets), b)
        if len(colorings) > max(1, math.ceil(math.log2(2 * m))):
            rounds_fail += 1
        for s in sets:
            if not any(is_isolated(s, c) for c in colorings):
                iso_fail += 1
    ok = disc_fail == 0 and bins_fail == 0 and iso_fail == 0 and rounds_fail == 0
    _report(
        capfd,
        "colorings",
        ok,
        f"balancing {disc_fail} over bound, bins {bins_fail} over load, "
        f"isolation {iso_fail} missed, {rounds_fail} too many rounds",
    )


def test_tie_breaking_round_trip(capfd):
    from fractions import Fraction

    rng = random.Random(88300)
    checked = 0
    bad = 0
    while checked < 200:
        n = rng.randint(2, 12)
        items = [(rng.randint(1, 12), rng.randint(1, 20)) for _ in range(n)]
        if rng.random() < 0.5:
            items[-1] = items[0]
        capacity = rng.randint(1, max(1, sum(w for w, _ in items) - 1))
        inst = normalize(items, capacity)
        if inst.all_fit or inst.n < 2:
            continue
        checked += 1
        primed = break_ties(inst)
        profits = [it.profit for it in primed.items]
        effs = [Fraction(it.profit, it.weight) for it in primed.items]
        if len(set(profits)) != primed.n or len(set(effs)) != primed.n:
            bad += 1
            continue
        raw_opt = solve_exhaustive(
            [(it.weight, it.profit) for it in inst.items], inst.capacity
        )
        primed_opt = solve_exhaustive(
            [(it.weight, it.profit) for it in primed.items], primed.capacity
        )
        if recover_profit(primed_opt, primed.tie_break_m, primed.w_max) != raw_opt:
            bad += 1
    ok = bad == 0
    _report(capfd, "tie-breaking", ok, f"{checked} instances, {bad} failures")


@pytest.mark.slow
def test_scaling_benchmark(capfd, tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "bench.csv"
    rc = main(
        [
            "bench",
            "--wmax-list", "256,512,1024,2048,4096",
            "--solvers", "fast,bellman",
            "--n-per-w", "4",
            "--pmax", "32",
            "--t-frac", "0.5",
            "--reps", "1",
            "--seed", "12345",
            "--out", str(out),
        ]
    )
    if rc != 0:
        _report(capfd, "scaling", False, f"bench command exited {rc}")
    times: dict = {}
    with open(out, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            key = (rec["solver"], int(rec["w_max"]))
            times.setdefault(key, []).append(int(rec["wall_time_ns"]))
    ws = (256, 512, 1024, 2048, 4096)
    med = {k: sorted(v)[len(v) // 2] for k, v in times.items()}
    xs = [math.log2(w) for w in ws]
    ys = [math.log2(med[("fast", w)]) for w in ws]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
    ratio = med[("bellman", 4096)] / med[("fast", 4096)]
    elapsed = time.perf_counter() - t0
    ok = slope <= 2.6 and ratio >= 5.0
    _report(
        capfd,
        "scaling",
        ok,
        f"fast exponent {slope:.2f} (need <= 2.6), speedup at 4096 "
        f"{ratio:.1f}x (need >= 5), {elapsed / 60:.1f} min",
    )
