"""Built-in differential check, run via ``knapsolve selftest``.

Every solver in ``SOLVERS`` must return ``solve_exhaustive``'s answer on
seeded small instances: uniformly random ones, tie-heavy ones whose greedy
order is full of equal efficiencies, among them small versions of
Pisinger's hard families (even weights, p = 3w + {0, 1}, spanner
multiples), and large-profit ones whose folds take each cell width, up to
object columns past int64.  Each
instance is solved at capacity 0, at its total weight minus one and at a
random capacity.  The test suite checks the same table, so a field install
can prove the solvers the tests prove, without the development test tree.
"""

from __future__ import annotations

import random
import sys

from .baselines import solve_bellman, solve_exhaustive
from .solver import SolverConfig, solve_fast, solve_proximity_smawk

SOLVERS = (
    ("bellman", solve_bellman),
    ("dense", solve_fast),
    ("hinted", lambda items, t: solve_fast(items, t, SolverConfig(engine="hinted"))),
    ("proximity", solve_proximity_smawk),
    ("verify", lambda items, t: solve_fast(items, t, SolverConfig(verify=True))),
)

TIE_SHAPES = (
    "equal-efficiency",
    "few-ratios",
    "duplicates",
    "unit-weights",
    "even-odd",
    "near-equal",
    "spanner",
)


def random_items(rng):
    return [(rng.randint(1, 10), rng.randint(1, 30)) for _ in range(rng.randint(1, 14))]


def tie_heavy_items(rng, shape):
    """A small instance whose greedy order has many efficiency ties."""
    n = rng.randint(2, 14)
    if shape == "equal-efficiency":
        rate = rng.randint(1, 5)
        return [(w, rate * w) for w in (rng.randint(1, 10) for _ in range(n))]
    if shape == "few-ratios":
        bases = [(rng.randint(1, 4), rng.randint(1, 9)) for _ in range(2)]
        return [
            (w * k, p * k)
            for w, p in (rng.choice(bases) for _ in range(n))
            for k in [rng.randint(1, 3)]
        ]
    if shape == "duplicates":
        bases = [(rng.randint(1, 10), rng.randint(1, 30)) for _ in range(rng.randint(1, 3))]
        return [rng.choice(bases) for _ in range(n)]
    if shape == "even-odd":
        # even weights, so the odd capacity total - 1 cannot be filled
        # exactly
        extra = rng.randint(0, 2)
        return [(w, w + extra) for w in (2 * rng.randint(1, 5) for _ in range(n))]
    if shape == "near-equal":
        return [(w, 3 * w + rng.randint(0, 1)) for w in (rng.randint(1, 10) for _ in range(n))]
    if shape == "spanner":
        # small multiples of two strongly correlated base items
        bases = [(w, w + 1) for w in (rng.randint(1, 4) for _ in range(2))]
        return [
            (k * w, k * p)
            for w, p in (rng.choice(bases) for _ in range(n))
            for k in [rng.randint(1, 4)]
        ]
    return [(1, rng.randint(1, 4)) for _ in range(n)]  # w_max = 1


# Profit totals the magnitude suite draws around: a fold's cells hold about
# 1.5 times the total, so these cross the int16 range (shifted int16 or
# int32 cells), sit past 2^27 (shifted int32), 2^32 (int64) and 2^63 (object).
MAGNITUDES = (1 << 16, 1 << 28, 1 << 33, 1 << 70)


def magnitude_items(rng, scale):
    """A small instance whose profit total is 0.5 to 0.8 times ``scale``."""
    n = rng.randint(2, 14)
    share = int(scale * rng.uniform(0.5, 0.8)) // n
    return [(rng.randint(1, 10), share + rng.randint(-share // 10, share // 10)) for _ in range(n)]


SUITES = (
    ("random", lambda rng, k: random_items(rng)),
    ("tie-heavy", lambda rng, k: tie_heavy_items(rng, TIE_SHAPES[k % len(TIE_SHAPES)])),
    ("magnitude", lambda rng, k: magnitude_items(rng, MAGNITUDES[k % len(MAGNITUDES)])),
)


def _cases(make, rng, rounds):
    for k in range(rounds):
        items = make(rng, k)
        total = sum(w for w, _ in items)
        for capacity in (0, total - 1, rng.randint(0, total)):
            yield items, capacity


def _disagreement(items, capacity):
    """The first solver whose answer differs from exhaustive search, described."""
    want = solve_exhaustive(items, capacity)
    for name, solver in SOLVERS:
        got = solver(items, capacity)
        if got != want:
            return f"{name} gave {got}, exhaustive search {want}, on {items} t={capacity}"
    return None


def run_selftest(quick: bool = False, seed: int = 20240817, stream=None) -> bool:
    """Run every suite, print one ``ok`` or ``FAIL`` line each; True when all pass."""
    stream = stream if stream is not None else sys.stdout
    all_ok = True
    for suite, make in SUITES:
        checks, failure = 0, None
        for items, capacity in _cases(make, random.Random(seed), 20 if quick else 100):
            failure = _disagreement(items, capacity)
            if failure:
                break
            checks += 1
        if failure:
            all_ok = False
            print(f"FAIL {suite}: {failure}", file=stream)
        else:
            print(f"ok {suite} ({checks} checks)", file=stream)
    return all_ok
