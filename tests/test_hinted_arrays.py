"""The array tables' algebra against the dict tables it replaced.

``restrict``, ``apply_update``, ``compose`` and ``entrywise_max_solutions``
below are the dict versions the hinted engine ran while its tables were
dicts keyed by signed index: an instance held ``q`` (index -> value) and
``hints`` (index -> frozenset), a solution ``r`` (index -> value) and, only
for the entries that extend a base, ``z`` (index -> base) and ``x``
(index -> multiplicities).  The array versions must agree with them entry
for entry on random small tables.
"""

import random
from dataclasses import dataclass

import numpy as np
import pytest

from knapsolve.core import BOTTOM
from knapsolve import hinted
from knapsolve.hinted import ConcaveProfitFn, HintedExtendInstance, HintedExtendSolution


@dataclass
class DictInstance:
    half_size: int
    universe: tuple
    q: dict
    hints: dict
    fns: dict


@dataclass
class DictSolution:
    half_size: int
    r: dict
    z: dict
    x: dict

    def value(self, index: int):
        return self.r.get(index, BOTTOM)

    def base(self, index: int) -> int:
        return self.z.get(index, index)


def restrict(inst, subset):
    vset = frozenset(subset) & set(inst.universe)
    shrunk = {s: s & vset for s in set(inst.hints.values())}
    hints = {i: shrunk[s] for i, s in inst.hints.items()}
    fns = {w: fn for w, fn in inst.fns.items() if w in vset}
    return DictInstance(inst.half_size, tuple(sorted(vset)), inst.q, hints, fns)


def apply_update(inst, subset, sol):
    vset = frozenset(subset)
    hints = {}
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
    return DictInstance(inst.half_size, universe, sol.r, hints, fns)


def compose(outer, inner):
    if outer.half_size != inner.half_size:
        raise ValueError("solutions live on different tables")
    z, xs = dict(inner.z), dict(inner.x)
    for i, mid in outer.z.items():
        z[i] = inner.base(mid)
        own, below = outer.x[i], inner.x.get(mid)
        if below:
            merged = dict(below)
            for w, cnt in own.items():
                merged[w] = merged.get(w, 0) + cnt
            own = merged
        xs[i] = own
    return DictSolution(outer.half_size, outer.r, z, xs)


def entrywise_max_solutions(a, b):
    if a.half_size != b.half_size:
        raise ValueError("solutions disagree on shape")
    r, z, xs = {}, {}, {}
    for i in sorted(a.r.keys() | b.r.keys()):
        src = a if a.value(i) > b.value(i) else b
        r[i] = src.r[i]
        if i in src.z:
            z[i], xs[i] = src.z[i], src.x[i]
    return DictSolution(a.half_size, r, z, xs)


# ---------------------------------------------------------------------------
# conversions and random tables


def as_dicts(table):
    """The dict form of an array instance or solution."""
    entries = table.entries()
    if isinstance(table, HintedExtendInstance):
        q = {i: v for i, (v, _) in entries.items()}
        hints = {i: s for i, (_, s) in entries.items()}
        return DictInstance(table.half_size, table.universe, q, hints, table.fns)
    r = {i: v for i, (v, _, _) in entries.items()}
    z = {i: b for i, (_, b, _) in entries.items() if b != i}
    x = {i: m for i, (_, b, m) in entries.items() if b != i}
    return DictSolution(table.half_size, r, z, x)


def assert_same(got, want):
    """An array table equals a dict table, field for field, its keys ascending."""
    assert vars(as_dicts(got)) == vars(want)
    assert np.all(np.diff(got.keys) > 0)
    if isinstance(got, HintedExtendInstance):
        got.validate()


def value(rng, offset):
    return offset + rng.randint(-9, 9)


def random_table(rng, half, universe, offset, shared):
    """A random instance; ``shared``: equal hint sets as one object, else one per entry."""
    fns = {w: ConcaveProfitFn([0, rng.randint(0, 5)]) for w in universe}
    pool = [frozenset(rng.sample(universe, rng.randint(0, len(universe)))) for _ in range(3)]
    size = rng.choice((0, 1, rng.randint(0, 2 * half + 1)))
    keys = sorted(rng.sample(range(-half, half + 1), min(size, 2 * half + 1)))
    own = tuple(rng.choice(pool) if shared else frozenset(rng.choice(pool)) for _ in keys)
    values = np.array([value(rng, offset) for _ in keys], dtype=object)
    inst = HintedExtendInstance.from_arrays(
        half, tuple(universe), np.array(keys, np.int64), hinted._cells(values),
        own, np.arange(len(keys)), fns,
    )
    inst.validate()
    return inst


def random_solution(rng, half, base_keys, universe, offset):
    """A random solution over a table with entries ``base_keys``: every
    entry of that table, some new entries, each either its own base or an
    extension of an entry below it by one of a few shared maps."""
    pool = [
        {w: rng.randint(1, 3) for w in rng.sample(universe, rng.randint(1, len(universe)))}
        for _ in range(3 if universe else 0)
    ]
    extra = [i for i in range(-half, half + 1) if i not in base_keys and rng.random() < 0.3]
    entries = {}
    for i in sorted(set(base_keys) | set(extra)):
        others = [j for j in base_keys if j < i]
        if pool and others and (i not in base_keys or rng.random() < 0.5):
            entries[i] = (value(rng, offset), rng.choice(others), rng.choice(pool))
        elif i in base_keys:
            entries[i] = (value(rng, offset), i, {})
    return HintedExtendSolution.build(half, entries)


OFFSETS = (0, 1 << 70, -(1 << 64))


@pytest.mark.parametrize("seed", range(6))
def test_array_algebra_matches_the_dict_tables(seed):
    rng = random.Random(2600 + seed)
    seen = dict.fromkeys(
        ("empty", "one entry", "distinct objects", "past int64", "mixed cells", "merged maps"), 0
    )
    for _ in range(150):
        half = rng.randint(0, 5)
        universe = rng.sample(range(1, 7), rng.randint(0, 4))
        offset, other = rng.choice(OFFSETS), rng.choice(OFFSETS)
        shared = rng.random() < 0.5
        inst = random_table(rng, half, universe, offset, shared)
        ref = as_dicts(inst)
        subset = set(rng.sample(range(1, 8), rng.randint(0, 4)))

        assert_same(hinted.restrict(inst, subset), restrict(ref, subset))

        keys = inst.keys.tolist()
        sol = random_solution(rng, half, keys, universe, other)
        assert_same(
            hinted.apply_update(inst, subset, sol), apply_update(ref, subset, as_dicts(sol))
        )

        outer = random_solution(rng, half, sol.keys.tolist(), universe, offset)
        got = hinted.compose(outer, sol)
        assert_same(got, compose(as_dicts(outer), as_dicts(sol)))

        b = random_solution(rng, half, keys, universe, offset)
        assert_same(
            hinted.entrywise_max_solutions(sol, b),
            entrywise_max_solutions(as_dicts(sol), as_dicts(b)),
        )
        assert_same(
            hinted.entrywise_max_solutions(outer, b),
            entrywise_max_solutions(as_dicts(outer), as_dicts(b)),
        )
        seen["empty"] += not keys
        seen["one entry"] += len(keys) == 1
        # one set object per entry, some of them equal: the table merged them
        seen["distinct objects"] += not shared and len(inst.sets) < len(keys)
        seen["past int64"] += inst.values.dtype == object
        seen["mixed cells"] += sol.values.dtype != b.values.dtype
        seen["merged maps"] += bool((np.count_nonzero(got.counts, axis=1) > 1).any())
    assert min(seen.values()) >= 5, seen


def test_array_algebra_refuses_foreign_bases():
    inst = HintedExtendInstance.build(2, {0: (0, {1})}, {1: ConcaveProfitFn([0, 1])})
    stray = HintedExtendSolution.build(2, {0: (0, 0, {}), 1: (1, -1, {1: 1})})
    with pytest.raises(ValueError):
        hinted.apply_update(inst, {1}, stray)
    with pytest.raises(ValueError):
        apply_update(as_dicts(inst), {1}, as_dicts(stray))
    inner = hinted.trivial_solution(inst)
    with pytest.raises(ValueError):
        hinted.compose(stray, inner)
