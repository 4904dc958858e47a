"""Built-in cross-validation, run via ``knapsolve selftest``.

Each suite checks one slice of the machinery against a small, independent
reimplementation (naive scans, exhaustive search) on seeded random inputs,
so a field install can prove itself without the development test tree.
"""

from __future__ import annotations

import math
import random
import sys

from .baselines import solve_bellman, solve_exhaustive
from .colorings import (
    det_balls_and_bins,
    det_isolating_colorings,
    det_set_balancing,
    is_isolated,
)
from .core import BOTTOM, DpTable, break_ties, is_bottom, normalize, recover_profit
from .hinted import (
    ConcaveProfitFn,
    HintedExtendInstance,
    relaxed_check,
    solve_small_b,
    solve_singleton,
)
from .hinted import solve as hinted_solve
from .smawk import batch_update_weight_class, concave_maxplus_conv, row_maxima
from .solver import SolverConfig, solve_fast, solve_proximity_smawk


def _random_instance(rng, n_max=14, w_max=10, p_max=30):
    n = rng.randint(1, n_max)
    items = [(rng.randint(1, w_max), rng.randint(1, p_max)) for _ in range(n)]
    capacity = rng.randint(0, sum(w for w, _ in items))
    return items, capacity


def _concave_prefix(rng, cap, lo=-6, hi=9):
    incs = sorted((rng.randint(lo, hi) for _ in range(cap)), reverse=True)
    out = [0]
    for d in incs:
        out.append(out[-1] + d)
    return out


def _suite_tiebreak(rng, quick):
    checks, failures = 0, []
    rounds = 30 if quick else 150
    for _ in range(rounds):
        items, capacity = _random_instance(rng)
        if rng.random() < 0.5 and len(items) >= 2:
            items[-1] = items[0]  # force duplicates
        inst = normalize(items, capacity)
        if inst.all_fit:
            continue
        primed = break_ties(inst)
        from fractions import Fraction

        effs = {Fraction(it.profit, it.weight) for it in primed.items}
        profits = {it.profit for it in primed.items}
        if len(effs) != primed.n or len(profits) != primed.n:
            failures.append("perturbed efficiencies or profits collide")
            break
        for _ in range(4):
            picked = [i for i in range(inst.n) if rng.random() < 0.5]
            orig = sum(inst.items[i].profit for i in picked)
            prim = sum(primed.items[i].profit for i in picked)
            if recover_profit(prim, primed.tie_break_m, primed.w_max) != orig:
                failures.append("subset total did not survive the round trip")
        checks += 1
    return checks, failures


def _naive_leftmost_argmax(nrows, ncols, value):
    out = []
    for i in range(1, nrows + 1):
        best, best_j = None, 1
        for j in range(1, ncols + 1):
            v = value(i, j)
            if best is None or v > best:
                best, best_j = v, j
        out.append(best_j)
    return out


def _naive_conv(a, b):
    out = []
    for i in range(len(a) + len(b) - 1):
        best = BOTTOM
        for j in range(len(a)):
            x = i - j
            if 0 <= x < len(b) and not is_bottom(a[j]):
                v = a[j] + b[x]
                if is_bottom(best) or v > best:
                    best = v
        out.append(best)
    return out


def _suite_smawk(rng, quick):
    checks, failures = 0, []
    rounds = 30 if quick else 120
    for _ in range(rounds):
        ncols = rng.randint(1, 10)
        nrows = rng.randint(ncols, 70)
        offs = [rng.randint(-20, 20) for _ in range(ncols)]
        span = nrows + ncols + 2
        incs = sorted((rng.randint(-8, 8) for _ in range(span)), reverse=True)
        f = [0]
        for d in incs:
            f.append(f[-1] + d)

        def value(i, j):
            return offs[j - 1] + f[i - j + ncols]

        bp = row_maxima(nrows, ncols, value)
        argmax = [None] * (nrows + 1)
        for j in range(1, ncols + 1):
            for i in range(bp[j - 1], bp[j]):
                argmax[i] = j
        naive = _naive_leftmost_argmax(nrows, ncols, value)
        if argmax[1:] != naive:
            failures.append(f"row maxima disagree on {nrows}x{ncols} matrix")
            break
        checks += 1

    for _ in range(rounds):
        n = rng.randint(1, 14)
        m = rng.randint(1, 8)
        a = [BOTTOM if rng.random() < 0.3 else rng.randint(-30, 30) for _ in range(n)]
        b = _concave_prefix(rng, m - 1)
        got = concave_maxplus_conv(a, b)
        if got != _naive_conv(a, b):
            failures.append("concave convolution disagrees with direct scan")
            break
        checks += 1

    for _ in range(rounds // 2):
        half = rng.randint(2, 10)
        table = DpTable(half)
        for z in table.indices():
            if rng.random() < 0.6:
                table.set(z, rng.randint(-40, 40))
        w = rng.randint(1, 4)
        cap = rng.randint(1, 4)
        prefix = _concave_prefix(rng, cap)
        direction = 1 if rng.random() < 0.5 else -1
        new_half = rng.randint(half, half + cap * w)
        got = batch_update_weight_class(table, w, prefix, new_half, direction)
        bad = False
        for z in range(-new_half, new_half + 1):
            best = BOTTOM
            for x in range(cap + 1):
                src = z - direction * x * w
                if -half <= src <= half and not is_bottom(table.get(src)):
                    v = table.get(src) + prefix[x]
                    if is_bottom(best) or v > best:
                        best = v
            if got.get(z) != best:
                failures.append(f"batch update wrong at index {z}")
                bad = True
                break
        if bad:
            break
        checks += 1
    return checks, failures


def _random_hinted(rng, max_half=8, max_universe=4, max_hint=None):
    half = rng.randint(2, max_half)
    k = rng.randint(1, max_universe)
    universe = sorted(rng.sample(range(1, 8), k))
    fns = {w: ConcaveProfitFn(_concave_prefix(rng, rng.randint(1, 3))) for w in universe}
    size = 2 * half + 1
    q, hints = [], []
    for _ in range(size):
        if rng.random() < 0.45:
            q.append(rng.randint(-25, 25))
            pool = [w for w in universe if rng.random() < 0.6]
            if max_hint is not None:
                pool = pool[:max_hint]
            hints.append(set(pool))
        else:
            q.append(BOTTOM)
            hints.append(None)
    return HintedExtendInstance.build(half, q, hints, fns)


def _suite_hinted(rng, quick):
    checks, failures = 0, []
    rounds = 15 if quick else 60
    for _ in range(rounds):
        inst = _random_hinted(rng, max_hint=1)
        errs = relaxed_check(inst, solve_singleton(inst))
        if errs:
            failures.append("singleton: " + errs[0])
            break
        checks += 1
    for _ in range(rounds):
        inst = _random_hinted(rng)
        budget = max(
            [1] + [len(inst.hint_set(i) or ()) for i in inst.indices()]
        )
        errs = relaxed_check(inst, solve_small_b(inst, budget))
        if errs:
            failures.append("small-b: " + errs[0])
            break
        checks += 1
    big_rounds = 2 if quick else 6
    for _ in range(big_rounds):
        # wide universe so the budget clears the balls-and-bins threshold
        half = 8
        universe = list(range(1, 13))
        fns = {w: ConcaveProfitFn(_concave_prefix(rng, 1)) for w in universe}
        q, hints = [], []
        for _ in range(2 * half + 1):
            if rng.random() < 0.5:
                q.append(rng.randint(-20, 20))
                hints.append({w for w in universe if rng.random() < 0.9})
            else:
                q.append(BOTTOM)
                hints.append(None)
        inst = HintedExtendInstance.build(half, q, hints, fns)
        budget = max(
            [1] + [len(inst.hint_set(i) or ()) for i in inst.indices()]
        )
        errs = relaxed_check(inst, hinted_solve(inst, budget))
        if errs:
            failures.append("general: " + errs[0])
            break
        checks += 1
    return checks, failures


def _suite_colorings(rng, quick):
    checks, failures = 0, []
    rounds = 25 if quick else 100
    for _ in range(rounds):
        m = rng.randint(1, 30)
        b = rng.randint(1, 8)
        sets = [rng.sample(range(60), rng.randint(0, b)) for _ in range(m)]
        signs = det_set_balancing(sets)
        bound = 4 * math.sqrt(b * math.log(2 * m))
        for s in sets:
            disc = abs(sum(signs[e] for e in set(s)))
            if disc > bound:
                failures.append(f"discrepancy {disc} above {bound:.2f}")
                break
        colorings = det_isolating_colorings(sets, b)
        if len(colorings) > max(1, math.ceil(math.log2(2 * m))):
            failures.append("too many isolating rounds")
        for s in sets:
            if not any(is_isolated(s, h) for h in colorings):
                failures.append("a set was never isolated")
                break
        r = rng.choice([1, 2, 4, 8])
        if all(len(set(s)) <= r * math.log2(2 * m) for s in sets):
            det_balls_and_bins(sets, r)  # postcondition self-checks
        if failures:
            break
        checks += 1
    return checks, failures


def _suite_solver_cross(rng, quick):
    checks, failures = 0, []
    rounds = 25 if quick else 80
    for _ in range(rounds):
        items, capacity = _random_instance(rng, n_max=14, w_max=10, p_max=30)
        want = solve_exhaustive(items, capacity)
        got_bell = solve_bellman(items, capacity)
        got_fast = solve_fast(items, capacity)
        got_prox = solve_proximity_smawk(items, capacity)
        if not (want == got_bell == got_fast == got_prox):
            failures.append(
                f"disagreement: exhaustive={want} bellman={got_bell} "
                f"fast={got_fast} proximity={got_prox} on {items} t={capacity}"
            )
            break
        checks += 1
    hint_rounds = 4 if quick else 12
    for _ in range(hint_rounds):
        items, capacity = _random_instance(rng, n_max=12, w_max=6, p_max=12)
        want = solve_exhaustive(items, capacity)
        got = solve_fast(items, capacity, config=SolverConfig(engine="hinted"))
        if want != got:
            failures.append(f"hinted engine got {got}, want {want}")
            break
        got_c1 = solve_fast(items, capacity, config=SolverConfig(constant=1.0))
        got_c4 = solve_fast(items, capacity, config=SolverConfig(constant=4.0))
        if not (want == got_c1 == got_c4):
            failures.append("answer depends on the structural constant")
            break
        checks += 1
    return checks, failures


def _suite_baselines(rng, quick):
    checks, failures = 0, []
    rounds = 25 if quick else 100
    for _ in range(rounds):
        items, capacity = _random_instance(rng, n_max=16, w_max=12, p_max=40)
        profit, subset = solve_exhaustive(items, capacity, with_subset=True)
        if sum(items[i][0] for i in subset) > capacity:
            failures.append("exhaustive subset overweight")
            break
        if sum(items[i][1] for i in subset) != profit:
            failures.append("exhaustive subset profit mismatch")
            break
        if solve_bellman(items, capacity) != profit:
            failures.append("capacity DP disagrees with exhaustive search")
            break
        checks += 1
    return checks, failures


SUITES = (
    ("tie-break", _suite_tiebreak),
    ("smawk", _suite_smawk),
    ("hint-extension", _suite_hinted),
    ("colorings", _suite_colorings),
    ("solver-cross", _suite_solver_cross),
    ("baselines", _suite_baselines),
)


def run_selftest(quick: bool = False, seed: int = 20240817, stream=None) -> bool:
    stream = stream if stream is not None else sys.stdout
    all_ok = True
    for name, fn in SUITES:
        rng = random.Random(seed)
        checks, failures = fn(rng, quick)
        if failures:
            all_ok = False
            print(f"FAIL {name}: {failures[0]}", file=stream)
        else:
            print(f"ok {name} ({checks} checks)", file=stream)
    return all_ok
