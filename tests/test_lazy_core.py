"""The dense path's lazy core against eager references.

``LazyCore`` finds the break by selection and sorts each side one key band
at a time, as far as the core fold reads.  The references sort everything:
``reference_split`` (pure Python) for the candidate sequences, and the
core fold run on ``greedy_split`` drained up front for the counters.  Every
case also runs with one-item first bands that double, so that instances of
a few hundred items cross many bands and cut their tie groups into chunks.
"""

import random
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import knapsolve.core
from knapsolve import (
    Stats,
    generate_instance,
    greedy_split,
    normalize,
    solve_bellman,
    solve_fast,
    solve_proximity_smawk,
)
from knapsolve.core import INT64_VALUE_CAP, LazyCore
from knapsolve.solver import _core_fold
from test_preprocess import reference_split
from test_solver import core_fold_reference

BANDS = {"default": None, "tiny": (1, 2)}


@pytest.fixture(params=sorted(BANDS))
def bands(request, monkeypatch):
    if BANDS[request.param]:
        first, growth = BANDS[request.param]
        monkeypatch.setattr(knapsolve.core, "_FIRST_BAND", first)
        monkeypatch.setattr(knapsolve.core, "_BAND_GROWTH", growth)
    return request.param


class _Drained:
    """A core side read to its end before the fold starts."""

    def __init__(self, items, members):
        self.weights = [items[i][0] for i in members]
        self.profits = [items[i][1] for i in members]
        self.sorted = 0

    def load(self):
        return False


def eager_core(inst):
    """The core the fold read before it was lazy: the whole split, sorted."""
    split = greedy_split(inst)
    items = inst.items
    sides = (split.add_candidates, split.remove_candidates)
    candidates = {i for side in sides for members in side.values() for i in members}
    order = split.order.tolist()
    k = split.break_index
    return SimpleNamespace(
        add=_Drained(items, [i for i in order[k:] if i in candidates]),
        remove=_Drained(items, [i for i in reversed(order[:k]) if i in candidates]),
        greedy_weight=split.greedy_weight,
        greedy_profit=split.greedy_profit,
    )


def counters(stats):
    return (stats.fold_passes, stats.peak_table_cells, stats.best_index, stats.cells_pruned)


def check_case(items, capacity):
    """The lazy core's sides and fold against both references; False if skipped."""
    inst = normalize(items, capacity)
    if inst.all_fit:
        return False
    # the candidates each side hands out, in walk order
    want = reference_split(list(inst.items), capacity, inst.w_max)
    candidates = {
        i for side in ("add_candidates", "remove_candidates")
        for members in want[side].values() for i in members
    }
    k = want["break_index"]
    core = LazyCore(inst)
    for side, members in (
        (core.add, want["order"][k:]),
        (core.remove, want["order"][k - 1 :: -1]),
    ):
        while side.load():
            pass
        assert list(zip(side.weights, side.profits)) == [
            inst.items[i] for i in members if i in candidates
        ]
        assert side.sorted <= len(members)
    assert (core.greedy_weight, core.greedy_profit) == (
        want["greedy_weight"], want["greedy_profit"],
    )
    # the fold: answer and counters
    stats = Stats()
    got = solve_fast(items, capacity, stats=stats)
    eager = Stats()
    assert _core_fold(inst, eager_core(inst), eager) == got
    assert counters(stats) == counters(eager)
    assert (got, *counters(stats)[:3]) == core_fold_reference(items, capacity)
    assert got == solve_bellman(items, capacity)
    return True


# --- the shapes -------------------------------------------------------------


def remove_cap_items(rng):
    # one efficiency on several weights; a run of identical items per weight
    # reaches past the 2 w_max cap, and the capacity keeps most of the runs
    # inside the greedy set, where the walk meets them by descending index
    w_max = rng.randint(2, 4)
    rate = rng.randint(1, 5)
    items = []
    for w in range(1, w_max + 1):
        items += [(w, rate * w)] * rng.randint(2 * w_max - 2, 2 * w_max + 6)
    items += [(rng.randint(1, w_max), rng.randint(1, rate * w_max)) for _ in range(30)]
    rng.shuffle(items)
    return items, sum(w for w, _ in items) - rng.randint(1, 12)


def big_group_items(rng, n):
    # a few efficiencies, each group many times a band, with mixed weights
    ratios = [(rng.randint(1, 4), rng.randint(1, 9)) for _ in range(3)]
    items = []
    for _ in range(n):
        w, p = rng.choice(ratios)
        k = rng.randint(1, 2)
        items.append((w * k, p * k))
    items += [(rng.randint(1, 8), rng.randint(1, 20)) for _ in range(n // 8)]
    rng.shuffle(items)
    return items, rng.randint(1, sum(w for w, _ in items) - 1)


def break_in_tie_items(rng, n):
    # every item has one efficiency, so the break always falls in a tie group
    rate = rng.randint(1, 3)
    items = [(w, rate * w) for w in (rng.randint(1, 6) for _ in range(n))]
    return items, rng.randint(1, sum(w for w, _ in items) - 1)


def unit_items(rng, n):
    items = [(1, rng.randint(1, 6)) for _ in range(n)]
    return items, rng.randint(1, n - 1)


def total_minus_one_items(rng, n):
    items = [(rng.randint(1, 8), rng.randint(1, 30)) for _ in range(n)]
    return items, sum(w for w, _ in items) - 1


def object_key_items(rng, n):
    # profit * w_max^2 passes 2^59, so the keys are ranked Python ints; with
    # some ties and duplicates among them
    base = (1 << 58) // 64
    ratios = [(w, base * w + rng.randint(0, 3)) for w in (rng.randint(1, 8) for _ in range(4))]
    items = [rng.choice(ratios) for _ in range(n)] + [(8, rng.randint(1, 1 << 20))]
    return items, rng.randint(1, sum(w for w, _ in items) - 1)


def wide_weight_items(rng, n):
    # w_max > n^2: a few items, each heavy next to their count
    items = [(rng.randint(1, 4 * n * n), rng.randint(1, 40)) for _ in range(n)]
    items[0] = (n * n + rng.randint(1, 3 * n * n), items[0][1])
    total = sum(w for w, _ in items)
    return items, rng.randint(max(w for w, _ in items), total - 1)


SHAPES = {
    "big-groups": lambda rng: big_group_items(rng, rng.randint(100, 400)),
    "break-in-tie": lambda rng: break_in_tie_items(rng, rng.randint(60, 300)),
    "unit-weights": lambda rng: unit_items(rng, rng.randint(20, 300)),
    "total-minus-one": lambda rng: total_minus_one_items(rng, rng.randint(40, 300)),
    "object-keys": lambda rng: object_key_items(rng, rng.randint(20, 80)),
    "wide-weights": lambda rng: wide_weight_items(rng, rng.randint(3, 12)),
}


def test_identical_items_straddling_the_remove_cap(bands):
    rng = random.Random(9101)
    checked = 0
    for _ in range(40):
        checked += check_case(*remove_cap_items(rng))
    assert checked >= 30


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_lazy_core_matches_eager_references(bands, shape):
    rng = random.Random(f"lazy-{shape}")
    checked = 0
    for _ in range(12):
        items, capacity = SHAPES[shape](rng)
        checked += check_case(items, capacity)
    assert checked >= 10
    inst = normalize(items, capacity)
    big = int(inst.profits.max()) * inst.w_max**2 > INT64_VALUE_CAP
    assert big == (shape == "object-keys")


def test_groups_longer_than_the_default_bands():
    # default bands: groups of hundreds of items cross the first band ends,
    # and the cap (2 w_max = 16) cuts each weight class far inside them
    rng = random.Random(9102)
    for n in (700, 1500):
        check_case(*big_group_items(rng, n))
        check_case(*break_in_tie_items(rng, n))
        check_case(*unit_items(rng, n))


def test_many_items_sorts_a_sixteenth():
    # the benchmark's many-items instances, n = 2^17 at w = 64: the core
    # finds the break without sorting, and sorts at most n / 16 items
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    calls, _ = workloads.build("many-items", 1)
    for call in calls:
        n = len(call.items)
        stats = Stats()
        sizes = []
        real = {name: getattr(np, name) for name in ("argsort", "lexsort", "sort", "unique")}

        def spy(name):
            def run(a, *args, **kwargs):
                sizes.append(np.size(a))
                return real[name](a, *args, **kwargs)
            return run

        with pytest.MonkeyPatch.context() as mp:
            for name in real:
                mp.setattr(np, name, spy(name))
            got = solve_fast(call.items, call.capacity, stats=stats)
        assert stats.core_sorted <= n // 16, call.label
        assert max(sizes, default=0) <= n // 16, call.label
        assert got == solve_proximity_smawk(call.items, call.capacity), call.label


def test_generator_instances_agree_with_the_eager_fold():
    for dist in ("uniform", "clustered", "hard-equal-weights"):
        items, capacity = generate_instance(4096, 16, 32, 0.5, 5, dist)
        inst = normalize(items, capacity)
        stats, eager = Stats(), Stats()
        got = solve_fast(items, capacity, stats=stats)
        assert _core_fold(inst, eager_core(inst), eager) == got
        assert counters(stats) == counters(eager)
        assert stats.core_sorted < inst.n // 4


def test_a_side_stops_at_its_last_candidate():
    # 20,000 random efficiencies lie close together around the break, so
    # the prune drops cells but never leaves LB's cell alone, and the fold
    # reads every candidate; five weights cap after about 640 items per
    # side, and the walk stops there instead of sorting the other 9,000 or
    # so items of each side
    rng = random.Random(9103)
    items = [(rng.randint(60, 64), rng.randint(1 << 35, 1 << 36)) for _ in range(20_000)]
    capacity = sum(w for w, _ in items) // 2
    inst = normalize(items, capacity)
    stats, eager = Stats(), Stats()
    got = solve_fast(items, capacity, stats=stats)
    assert _core_fold(inst, eager_core(inst), eager) == got
    assert counters(stats) == counters(eager)
    assert stats.fold_passes == 2 * 5 * 128 and stats.cells_pruned > 0
    assert stats.core_sorted <= inst.n // 4
