"""Deterministic set balancing, low-collision coloring, isolating families."""

import itertools
import math
import random
from collections import Counter

import pytest

from knapsolve import colorings
from knapsolve.colorings import (
    ColoringError,
    balls_and_bins_bound,
    det_balls_and_bins,
    det_isolating_colorings,
    det_set_balancing,
    is_isolated,
)


def multiset(sets):
    """The colorings' input: each distinct set with its copy count."""
    return Counter(map(frozenset, sets))


def discrepancy(s, signs):
    return abs(sum(signs[e] for e in s))


def test_set_balancing_small():
    signs = det_set_balancing(multiset([{1, 2}]))
    assert set(signs) == {1, 2}
    assert set(signs.values()) <= {-1, 1}
    assert discrepancy({1, 2}, signs) <= 4 * math.sqrt(2 * math.log(2))


def test_set_balancing_random_systems():
    rng = random.Random(313)
    for _ in range(60):
        m = rng.randint(1, 40)
        universe = list(range(rng.randint(4, 60)))
        sets = [
            set(rng.sample(universe, rng.randint(1, min(12, len(universe)))))
            for _ in range(m)
        ]
        signs = det_set_balancing(multiset(sets))
        assert set(signs) == set().union(*sets)
        assert all(v in (-1, 1) for v in signs.values())
        b = max(len(s) for s in sets)
        bound = 4 * math.sqrt(b * math.log(2 * m))
        for s in sets:
            assert discrepancy(s, signs) <= bound


def test_balls_and_bins_bound_values(monkeypatch):
    assert balls_and_bins_bound(1) == 12
    assert balls_and_bins_bound(8) == 48
    assert balls_and_bins_bound(0) == 12  # floor at 2m = 2
    monkeypatch.setattr(colorings, "BALLS_AND_BINS_BETA", 1)
    assert balls_and_bins_bound(8) == 4


def test_balls_and_bins_partitions_the_universe():
    sets = [set(range(8))]
    coloring = det_balls_and_bins(multiset(sets), 8)
    assert set(coloring) == set(range(8))
    assert all(0 <= c < 8 for c in coloring.values())


def test_balls_and_bins_rounds_colors_down_to_power_of_two():
    coloring = det_balls_and_bins(multiset([{1, 2, 3}]), 3)
    assert all(c < 2 for c in coloring.values())


def test_balls_and_bins_respects_per_color_load():
    rng = random.Random(71717)
    for _ in range(40):
        m = rng.randint(1, 20)
        universe = list(range(40))
        limit_size = max(1, int(2 * math.log2(2 * m)))
        sets = [
            set(rng.sample(universe, rng.randint(1, limit_size))) for _ in range(m)
        ]
        coloring = det_balls_and_bins(multiset(sets), 2)
        bound = balls_and_bins_bound(m)
        for s in sets:
            per = {}
            for e in s:
                per[coloring[e]] = per.get(coloring[e], 0) + 1
            assert max(per.values()) <= bound


def test_balls_and_bins_preconditions():
    with pytest.raises(ValueError):
        det_balls_and_bins(multiset([{1}]), 0)
    with pytest.raises(ValueError):
        det_balls_and_bins(multiset([set(range(9))]), 2)  # 9 > 2 * log2(2)


def test_balls_and_bins_detects_impossible_load(monkeypatch):
    # a zero beta makes the self-check bound 0, unreachable for a nonempty set
    monkeypatch.setattr(colorings, "BALLS_AND_BINS_BETA", 0)
    with pytest.raises(ColoringError):
        det_balls_and_bins(multiset([{1, 2, 3}, {1, 2, 3}]), 2)


def test_isolating_single_pair():
    found = det_isolating_colorings(multiset([{1, 2}]), 2)
    assert len(found) == 1
    assert is_isolated({1, 2}, found[0])
    assert all(0 <= c < 4 for c in found[0].values())


def test_isolating_singletons_are_vacuous():
    found = det_isolating_colorings(multiset([{3}, {7}]), 1)
    assert len(found) >= 1
    assert all(is_isolated(s, found[0]) for s in ({3}, {7}))


def test_isolating_rejects_oversized_sets():
    with pytest.raises(ValueError):
        det_isolating_colorings(multiset([{1, 2, 3}]), 2)


def test_isolating_random_families():
    rng = random.Random(424242)
    for _ in range(60):
        m = rng.randint(1, 30)
        universe = list(range(25))
        b = rng.randint(1, 4)
        sets = [
            set(rng.sample(universe, rng.randint(1, b))) for _ in range(m)
        ]
        found = det_isolating_colorings(multiset(sets), b)
        assert 1 <= len(found) <= max(1, math.ceil(math.log2(2 * m)))
        for coloring in found:
            assert all(0 <= c < max(1, b * b) for c in coloring.values())
        for s in sets:
            assert any(is_isolated(s, col) for col in found)


def per_set_isolating_colorings(sets, size_bound):
    """``det_isolating_colorings`` as it was before copies were grouped.

    Frozen as a reference: it tracks every set separately, copies included,
    so grouped copies must reproduce its colorings exactly.
    """
    m = len(sets)
    normalized = [sorted(set(s)) for s in sets]
    for s in normalized:
        if len(s) > size_bound:
            raise ValueError("set exceeds the declared size bound")
    universe = sorted(set().union(*map(set, sets)))
    colors = max(1, size_bound * size_bound)

    colorings = []
    remaining = [i for i, s in enumerate(normalized) if len(s) >= 2]
    max_rounds = max(1, math.ceil(math.log2(2 * m))) if m else 1
    while remaining:
        if len(colorings) >= max_rounds:
            raise ColoringError("isolating colorings did not converge")
        member_sets = {e: [] for e in universe}
        for i in remaining:
            for e in normalized[i]:
                member_sets[e].append(i)
        colored_count = {i: 0 for i in remaining}
        used_colors = {i: set() for i in remaining}
        collided = {i: False for i in remaining}
        full = 2 * colors

        coloring = {}
        for e in universe:
            active = [i for i in member_sets[e] if not collided[i]]
            penalty = {}
            for i in active:
                s_len = len(normalized[i])
                x = colored_count[i]
                u = s_len - x - 1
                fresh = 2 * (x + 1) * u + u * (u - 1)
                for c in used_colors[i]:
                    penalty[c] = penalty.get(c, 0) + (full - fresh)
            choice = None
            if len(penalty) < colors:
                for c in range(colors):
                    if c not in penalty:
                        choice = c
                        break
            else:
                best = None
                for c in range(colors):
                    pen = penalty.get(c, 0)
                    if best is None or pen < best:
                        best = pen
                        choice = c
            coloring[e] = choice
            for i in active:
                if choice in used_colors[i]:
                    collided[i] = True
                else:
                    used_colors[i].add(choice)
                    colored_count[i] += 1
        colorings.append(coloring)
        remaining = [i for i in remaining if collided[i]]
    if not colorings:
        colorings.append({e: 0 for e in universe})
    return colorings


def table_like_sets(rng, distinct, universe, size_bound):
    """Hint sets the way a hinted table holds them: a few sets, each repeated
    up to thousands of times, among many empty and singleton sets."""
    sets = []
    for _ in range(distinct):
        s = frozenset(rng.sample(universe, rng.randint(2, size_bound)))
        sets += [s] * rng.choice((1, 7, 300, 2500))
    sets += [frozenset()] * rng.randint(0, 3000)
    sets += [frozenset({e}) for e in universe] * rng.randint(0, 20)
    rng.shuffle(sets)
    return sets


def test_isolating_grouped_copies_match_per_set_reference():
    rng = random.Random(9014)
    for _ in range(25):
        b = rng.randint(2, 4)
        universe = list(range(rng.randint(4, 30)))
        sets = table_like_sets(rng, rng.randint(1, 12), universe, b)
        assert det_isolating_colorings(multiset(sets), b) == per_set_isolating_colorings(sets, b)


def test_isolating_multi_round_copies_match_per_set_reference():
    # every pair of 8 elements under 4 colors: some pair shares a color in
    # any single coloring, so more than one round is needed; the uneven
    # copy counts steer the penalties
    pairs = [frozenset(p) for p in itertools.combinations(range(8), 2)]
    sets = [s for k, s in enumerate(pairs) for _ in range(1 + (k * 37) % 500)]
    sets += [frozenset()] * 2000 + [frozenset({3})] * 900
    got = det_isolating_colorings(multiset(sets), 2)
    assert len(got) > 1
    assert got == per_set_isolating_colorings(sets, 2)
    assert all(any(is_isolated(s, c) for c in got) for s in pairs)


def test_isolating_only_empty_and_singleton_sets():
    sets = [frozenset()] * 1000 + [frozenset({5})] * 1000 + [frozenset({2})]
    got = det_isolating_colorings(multiset(sets), 3)
    assert got == per_set_isolating_colorings(sets, 3) == [{2: 0, 5: 0}]


def per_set_balancing(sets):
    """``det_set_balancing`` tracking every set of the list on its own.

    Each set, every copy and empty set included, keeps its own undecided
    count and signed sum, m is the length of the list, and an element's
    per-set terms are summed by ``math.fsum``.
    """
    sets = [frozenset(s) for s in sets]
    universe = sorted(set().union(*sets))
    signs = dict.fromkeys(universe, 1)
    if not universe:
        return signs
    t = math.sqrt(math.log(2 * len(sets)) / max(map(len, sets)))
    rho = list(map(len, sets))
    sigma = [0] * len(sets)
    for e in universe:
        holding = [i for i, s in enumerate(sets) if e in s]
        total = math.fsum(math.cosh(t) ** rho[i] * math.sinh(t * sigma[i]) for i in holding)
        signs[e] = 1 if total <= 0 else -1
        for i in holding:
            rho[i] -= 1
            sigma[i] += signs[e]
    return signs


def per_set_balls_and_bins(sets, num_colors):
    """``det_balls_and_bins`` tracking every set of the list on its own."""
    sets = [frozenset(s) for s in sets]
    m = len(sets)
    if m and any(len(s) > num_colors * math.log2(2 * m) for s in sets):
        raise ValueError("set larger than num_colors * log2(2m)")
    parts = [sorted(set().union(*sets))]
    for _ in range(num_colors.bit_length() - 1):
        halves = []
        for part in parts:
            # every set restricted to the part: m sets, empty ones included
            signs = per_set_balancing([s & set(part) for s in sets])
            halves += [[e for e in part if signs.get(e, 1) == sign] for sign in (1, -1)]
        parts = halves
    coloring = {e: color for color, part in enumerate(parts) for e in part}
    loads = [max(Counter(coloring[e] for e in s).values()) for s in sets if s]
    if max(loads, default=0) > balls_and_bins_bound(m):
        raise ColoringError("balls-and-bins bound exceeded")
    return coloring


def outcome(f, *args):
    """``f``'s result, or the type of what it raised."""
    try:
        return f(*args)
    except (ColoringError, ValueError) as exc:
        return type(exc)


def assert_empty_copies_count_only_in_m(sets, k, size_bound, num_colors):
    # k empty copies change each coloring only through m: the coloring of
    # the padded multiset is the per-set reference's of the padded list,
    # where an empty set is in no sum, estimator or check
    padded = list(sets) + [frozenset()] * k
    copies = multiset(padded)
    assert det_set_balancing(copies) == per_set_balancing(padded)
    assert outcome(det_balls_and_bins, copies, num_colors) == outcome(
        per_set_balls_and_bins, padded, num_colors
    )
    assert outcome(det_isolating_colorings, copies, size_bound) == outcome(
        per_set_isolating_colorings, padded, size_bound
    )


def test_empty_copies_count_only_in_m():
    rng = random.Random(2512)
    for _ in range(60):
        universe = list(range(rng.randint(1, 40)))
        b = rng.randint(1, min(6, len(universe)))
        sets = [
            frozenset(rng.sample(universe, rng.randint(1, b)))
            for _ in range(rng.randint(1, 60))
        ]
        k = rng.randint(0, 200)
        assert_empty_copies_count_only_in_m(sets, k, b, rng.randint(1, 8))


def test_empty_copies_among_two_repeated_sets_count_only_in_m():
    # copies of two sets meet at opposite signed sums, where set balancing
    # nets their terms to zero
    rng = random.Random(2513)
    for _ in range(30):
        universe = list(range(rng.randint(4, 24)))
        pair = [frozenset(rng.sample(universe, rng.randint(2, 4))) for _ in range(2)]
        sets = [pair[0]] * rng.randint(1, 1500) + [pair[1]] * rng.randint(1, 1500)
        k = rng.randint(0, 3000)
        assert_empty_copies_count_only_in_m(sets, k, 4, rng.choice((2, 3, 4)))


def test_colorings_of_stage_one_tables_ignore_their_padding(monkeypatch):
    # the multiset the engine hands a coloring for each table stage one
    # gives the hint-set solver is the table's 2L + 1 sets the way the
    # analysis colors them, an empty set at every other index
    from knapsolve import SolverConfig, generate_instance, hinted, solve_fast

    tables, handed = [], []
    real = hinted.solve

    def solve(inst, budget, stats):
        tables.append((inst, len(handed)))
        return real(inst, budget, stats)

    def recorder(coloring, reference):
        def record(copies, size):
            handed.append((coloring, reference, copies, size))
            return coloring(copies, size)

        return record

    monkeypatch.setattr(hinted, "solve", solve)
    monkeypatch.setattr(
        hinted,
        "det_balls_and_bins",
        recorder(det_balls_and_bins, per_set_balls_and_bins),
    )
    monkeypatch.setattr(
        hinted,
        "det_isolating_colorings",
        recorder(det_isolating_colorings, per_set_isolating_colorings),
    )
    solve_fast(*generate_instance(96, 24, 32, 0.5, 1, "uniform"), SolverConfig(engine="hinted"))
    checked = Counter()
    # a table's own coloring, if it needs one, is the first after it starts
    for (inst, first), (_, after) in zip(tables, tables[1:] + [(None, len(handed))]):
        if first == after:
            continue
        coloring, reference, copies, size = handed[first]
        held = [s for _, s in inst.entries().values()]
        padded = held + [frozenset()] * (inst.size - len(held))
        assert Counter(copies) == Counter(padded)
        assert coloring(copies, size) == reference(padded, size)
        checked[coloring.__name__] += 1
    assert checked["det_balls_and_bins"] >= 1, checked
    assert checked["det_isolating_colorings"] >= 4, checked


@pytest.mark.parametrize("k", [1, 2, 8, 12, 13, 32, 40])
def test_set_balancing_alternates_on_one_set(k):
    # one set at sigma = 0 has an empty sum, so +1, and at sigma = 1 a
    # positive one, so -1: an exact rule alternates from the smallest element
    elems = range(100, 100 + 2 * k)
    signs = det_set_balancing(multiset([elems]))
    assert [signs[e] for e in elems] == [1, -1] * k


def test_set_balancing_breaks_an_exact_tie_to_plus():
    # D = {0, 1} signs 0 to +1 and so 1 to -1; A signs 2 to +1.  At 3,
    # A is at sigma = +1 and B at sigma = -1 with equal rho and equal
    # copies, so their terms cancel and 3 is signed +1
    for extra in range(30):
        rest = set(range(4, 4 + extra))
        a = frozenset({2, 3} | rest)
        b = frozenset({1, 3} | rest)
        for copies in (1, 2, 3, 5):
            for d_copies in (1, 2):
                sets = [frozenset({0, 1})] * d_copies + [a, b] * copies
                signs = det_set_balancing(multiset(sets))
                assert [signs[e] for e in range(4)] == [1, -1, 1, 1], (extra, copies)
