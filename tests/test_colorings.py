"""Deterministic set balancing, low-collision coloring, isolating families."""

import itertools
import math
import random
from collections import Counter

import pytest

from knapsolve.colorings import (
    ColoringError,
    balls_and_bins_bound,
    det_balls_and_bins,
    det_isolating_colorings,
    det_set_balancing,
    is_isolated,
)


def discrepancy(s, signs):
    return abs(sum(signs[e] for e in s))


def test_set_balancing_small():
    signs = det_set_balancing([{1, 2}])
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
        signs = det_set_balancing(sets)
        assert set(signs) == set().union(*sets)
        assert all(v in (-1, 1) for v in signs.values())
        b = max(len(s) for s in sets)
        bound = 4 * math.sqrt(b * math.log(2 * m))
        for s in sets:
            assert discrepancy(s, signs) <= bound


def test_balls_and_bins_bound_values():
    assert balls_and_bins_bound(1, 12) == 12
    assert balls_and_bins_bound(8, 12) == 48
    assert balls_and_bins_bound(0, 12) == 12  # floor at 2m = 2
    assert balls_and_bins_bound(1, 0) == 1


def test_balls_and_bins_partitions_the_universe():
    sets = [set(range(8))]
    coloring = det_balls_and_bins(sets, 8)
    assert set(coloring) == set(range(8))
    assert all(0 <= c < 8 for c in coloring.values())


def test_balls_and_bins_rounds_colors_down_to_power_of_two():
    coloring = det_balls_and_bins([{1, 2, 3}], 3)
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
        coloring = det_balls_and_bins(sets, 2)
        bound = balls_and_bins_bound(m, 12)
        for s in sets:
            per = {}
            for e in s:
                per[coloring[e]] = per.get(coloring[e], 0) + 1
            assert max(per.values()) <= bound


def test_balls_and_bins_preconditions():
    with pytest.raises(ValueError):
        det_balls_and_bins([{1}], 0)
    with pytest.raises(ValueError):
        det_balls_and_bins([set(range(9))], 2)  # 9 > 2 * log2(2)


def test_balls_and_bins_detects_impossible_load():
    # a zero beta makes the self-check bound 1, unreachable for 3 elements
    # split across 2 colors
    with pytest.raises(ColoringError):
        det_balls_and_bins([{1, 2, 3}, {1, 2, 3}], 2, beta=0)


def test_isolating_single_pair():
    colorings = det_isolating_colorings([{1, 2}], 2)
    assert len(colorings) == 1
    assert is_isolated({1, 2}, colorings[0])
    assert all(0 <= c < 4 for c in colorings[0].values())


def test_isolating_singletons_are_vacuous():
    colorings = det_isolating_colorings([{3}, {7}], 1)
    assert len(colorings) >= 1
    assert all(is_isolated(s, colorings[0]) for s in ({3}, {7}))


def test_isolating_rejects_oversized_sets():
    with pytest.raises(ValueError):
        det_isolating_colorings([{1, 2, 3}], 2)


def test_isolating_random_families():
    rng = random.Random(424242)
    for _ in range(60):
        m = rng.randint(1, 30)
        universe = list(range(25))
        b = rng.randint(1, 4)
        sets = [
            set(rng.sample(universe, rng.randint(1, b))) for _ in range(m)
        ]
        colorings = det_isolating_colorings(sets, b)
        assert 1 <= len(colorings) <= max(1, math.ceil(math.log2(2 * m)))
        for coloring in colorings:
            assert all(0 <= c < max(1, b * b) for c in coloring.values())
        for s in sets:
            assert any(is_isolated(s, col) for col in colorings)


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
        assert det_isolating_colorings(sets, b) == per_set_isolating_colorings(sets, b)


def test_isolating_multi_round_copies_match_per_set_reference():
    # every pair of 8 elements under 4 colors: some pair shares a color in
    # any single coloring, so more than one round is needed; the uneven
    # copy counts steer the penalties
    pairs = [frozenset(p) for p in itertools.combinations(range(8), 2)]
    sets = [s for k, s in enumerate(pairs) for _ in range(1 + (k * 37) % 500)]
    sets += [frozenset()] * 2000 + [frozenset({3})] * 900
    got = det_isolating_colorings(sets, 2)
    assert len(got) > 1
    assert got == per_set_isolating_colorings(sets, 2)
    assert all(any(is_isolated(s, c) for c in got) for s in pairs)


def test_isolating_only_empty_and_singleton_sets():
    sets = [frozenset()] * 1000 + [frozenset({5})] * 1000 + [frozenset({2})]
    got = det_isolating_colorings(sets, 3)
    assert got == per_set_isolating_colorings(sets, 3) == [{2: 0, 5: 0}]


def outcome(f, *args, **kwargs):
    """``f``'s result, or the type of what it raised."""
    try:
        return f(*args, **kwargs)
    except (ColoringError, ValueError) as exc:
        return type(exc)


def assert_padding_changes_nothing(sets, size_bound, num_colors):
    # each coloring of the full list equals the coloring of its nonempty
    # sets, in order, with m counting every set
    m = len(sets)
    nonempty = [s for s in sets if s]
    assert det_set_balancing(nonempty, m) == det_set_balancing(sets)
    assert outcome(det_balls_and_bins, nonempty, num_colors, m=m) == outcome(
        det_balls_and_bins, sets, num_colors
    )
    assert det_isolating_colorings(nonempty, size_bound, m) == det_isolating_colorings(
        sets, size_bound
    )


def test_colorings_ignore_empty_sets_given_m():
    rng = random.Random(2512)
    for _ in range(60):
        universe = list(range(rng.randint(1, 40)))
        b = rng.randint(1, min(6, len(universe)))
        sets = [
            frozenset(rng.sample(universe, rng.randint(1, b)))
            for _ in range(rng.randint(1, 60))
        ]
        for _ in range(rng.randint(0, 200)):  # empty sets among them
            sets.insert(rng.randint(0, len(sets)), frozenset())
        assert_padding_changes_nothing(sets, b, rng.randint(1, 8))


def test_colorings_ignore_empty_sets_among_two_repeated_sets():
    # copies of two sets meet at opposite signed sums, where set balancing
    # nets their terms to zero
    rng = random.Random(2513)
    for _ in range(30):
        universe = list(range(rng.randint(4, 24)))
        pair = [frozenset(rng.sample(universe, rng.randint(2, 4))) for _ in range(2)]
        sets = [pair[0]] * rng.randint(1, 1500) + [pair[1]] * rng.randint(1, 1500)
        sets += [frozenset()] * rng.randint(0, 3000)
        rng.shuffle(sets)
        assert_padding_changes_nothing(sets, 4, rng.choice((2, 3, 4)))


def test_colorings_of_stage_one_tables_ignore_their_padding(monkeypatch):
    # the tables stage one hands the hint-set solver, padded to 2L + 1 sets
    # the way the analysis colors them, against _coloring_sets with m = 2L + 1
    from knapsolve import SolverConfig, generate_instance, hinted, solve_fast

    tables = []
    real = hinted.solve

    def solve(inst, budget, stats):
        tables.append((inst, budget))
        return real(inst, budget, stats)

    monkeypatch.setattr(hinted, "solve", solve)
    solve_fast(*generate_instance(96, 24, 32, 0.5, 1, "uniform"), SolverConfig(engine="hinted"))
    checked = Counter()
    for inst, budget in tables:
        sets = hinted._coloring_sets(inst)
        if not sets:
            continue
        held = [s for _, s in inst.entries().values()]
        padded = held + [frozenset()] * (inst.size - len(held))
        assert sets == [s for s in padded if s]
        largest = max(map(len, sets))
        assert det_isolating_colorings(sets, largest, inst.size) == det_isolating_colorings(
            padded, largest
        )
        log_m = math.log2(4 * inst.half_size + 2)
        if budget > max(1, 2 * log_m):  # the balls-and-bins split
            num_colors = math.ceil(budget / log_m)
            assert det_balls_and_bins(sets, num_colors, m=inst.size) == det_balls_and_bins(
                padded, num_colors
            )
            checked["balls and bins"] += 1
        checked["isolating"] += 1
    assert checked["balls and bins"] >= 1 and checked["isolating"] >= 4, checked


@pytest.mark.parametrize("k", [1, 2, 8, 12, 13, 32, 40])
def test_set_balancing_alternates_on_one_set(k):
    # one set at sigma = 0 has an empty sum, so +1, and at sigma = 1 a
    # positive one, so -1: an exact rule alternates from the smallest element
    elems = range(100, 100 + 2 * k)
    signs = det_set_balancing([set(elems)])
    assert [signs[e] for e in elems] == [1, -1] * k


def test_colorings_ignore_copies_given_m():
    # giving every set k copies, with m unchanged, changes no coloring
    rng = random.Random(3030)
    for _ in range(200):
        universe = list(range(rng.randint(2, 40)))
        b = rng.randint(1, min(8, len(universe)))
        sets = [
            frozenset(rng.sample(universe, rng.randint(1, b)))
            for _ in range(rng.randint(1, 30))
        ]
        m = len(sets)
        k = rng.randint(2, 5)
        copied = [s for s in sets for _ in range(k)]
        num_colors = rng.randint(1, 8)
        assert det_set_balancing(copied, m) == det_set_balancing(sets)
        assert outcome(det_balls_and_bins, copied, num_colors, m=m) == outcome(
            det_balls_and_bins, sets, num_colors
        )


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
                signs = det_set_balancing(sets)
                assert [signs[e] for e in range(4)] == [1, -1, 1, 1], (extra, copies)
