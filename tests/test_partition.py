"""Weight layers, dyadic rank groups, and the phased size/budget schedule."""

import math
import random

import pytest

from knapsolve import (
    break_ties,
    greedy_split,
    normalize,
    phase_schedule,
    rank_partition,
    weight_partition,
)


def random_split(rng, n_max=16, w_max=9, p_max=30):
    """Random non-trivial instance plus its greedy split, or None."""
    n = rng.randint(2, n_max)
    items = [(rng.randint(1, w_max), rng.randint(1, p_max)) for _ in range(n)]
    capacity = rng.randint(1, max(1, sum(w for w, _ in items) - 1))
    inst = normalize(items, capacity)
    if inst.all_fit or inst.n < 2:
        return None
    primed = break_ties(inst)
    return primed, greedy_split(primed)


def test_phase_schedule_frozen_small_width():
    sched = phase_schedule(1, 2.0, 1)
    assert sched.phase_count == 2
    assert sched.item_bounds[0] == 2


def test_phase_schedule_frozen_width_16():
    # base = sqrt(16 * log2(32)) = sqrt(80); C = 1
    sched = phase_schedule(16, 1.0, 1)
    assert sched.item_bounds[0] == 9
    assert sched.item_bounds[1] == 13
    assert sched.table_half_sizes[1] == 13 * 16

    sched2 = phase_schedule(16, 2.0, 1)
    assert sched2.phase_count == 6
    assert sched2.table_half_sizes == [288, 416, 576, 816, 1152, 1632, 2304]
    assert sched2.hint_budgets == [0, 13, 9, 7, 5, 4, 3, 2]
    assert sched2.stage_two_size(1) == 272


def test_phase_schedule_monotone():
    for w in (1, 2, 3, 5, 16, 64, 257):
        for c in (1.0, 2.0, 4.0):
            sched = phase_schedule(w, c, 1)
            sizes = sched.table_half_sizes
            assert all(a <= b for a, b in zip(sizes, sizes[1:]))
            budgets = sched.hint_budgets[1:]
            assert all(a >= b for a, b in zip(budgets, budgets[1:]))
            assert all(b >= 1 for b in budgets)
            twos = [sched.stage_two_size(j) for j in range(1, 6)]
            assert all(a >= b for a, b in zip(twos, twos[1:]))


def test_phase_schedule_size_budget_product():
    # m_j * b_j tracks C^2 * w * log2(2w) within the rounding slack
    for w in (1, 2, 4, 16, 100, 1024):
        for c in (1.0, 2.0, 4.0):
            sched = phase_schedule(w, c, 1)
            target = c * c * w * math.log2(2 * w)
            for j in range(1, sched.phase_count + 1):
                ratio = sched.item_bounds[j] * sched.hint_budgets[j] / target
                assert 1.0 <= ratio <= 4.0, (w, c, j, ratio)


def test_phase_schedule_first_budget_clamp():
    assert phase_schedule(4, 1.0, 50).hint_budgets[1] == 50
    assert phase_schedule(4, 1.0, 1).hint_budgets[1] < 50


def test_phase_schedule_rejects_bad_width():
    with pytest.raises(ValueError):
        phase_schedule(0, 2.0, 1)


def test_weight_partition_single_layer_when_width_is_small():
    inst = normalize([(1, 11), (2, 19), (3, 26), (4, 33)], 5)
    primed = break_ties(inst)
    part = weight_partition(primed, greedy_split(primed), constant=1.0)
    assert part.layer_count == 1
    assert part.innermost == {1, 2, 3, 4}


def test_weight_partition_covers_support_disjointly():
    rng = random.Random(60601)
    for _ in range(150):
        made = random_split(rng, n_max=24, w_max=30)
        if made is None:
            continue
        primed, split = made
        part = weight_partition(primed, split)
        support = {it.weight for it in primed.items}
        union = set()
        for layer in part.layers:
            assert not (layer & union)
            union |= layer
        assert union == support
        assert part.layers[0] == part.innermost
        assert len(part.layers) == part.layer_count
        # the layer index, found from the layers, holds every weight
        layer_of = {w: j for j, layer in enumerate(part.layers, 1) for w in layer}
        for w in support:
            assert w in part.layers[layer_of[w] - 1]


def test_weight_partition_layer_sizes_bounded():
    rng = random.Random(60602)
    base_of = lambda w, c: 2.0 * c * math.sqrt(w * math.log2(w))
    for _ in range(150):
        made = random_split(rng, n_max=30, w_max=40)
        if made is None or made[0].w_max < 2:
            continue
        primed, split = made
        part = weight_partition(primed, split, constant=2.0)
        # every non-final cumulative support fits its two-sided window cap
        for j in range(1, part.layer_count):
            cap = 2 * max(1, math.ceil(base_of(primed.w_max, 2.0) * (2**j)))
            assert len(set().union(*part.layers[:j])) <= cap


def test_rank_partition_dyadic_blocks():
    inst = normalize([(1, 100), (3, 9), (3, 7), (3, 5)], 3)
    primed = break_ties(inst)
    split = greedy_split(primed)
    part = rank_partition(primed, split, {3})
    assert part.phase_count == 3  # ceil(log2(2 * 3 + 1))
    assert part.group(1, 1, 3) == [1]
    assert part.group(1, 2, 3) == [2, 3]
    assert part.group(1, 3, 3) == []
    # past the last phase every group is empty, on both sides
    assert part.group(1, 4, 3) == [] and part.group(-1, 4, 3) == []
    assert part.phase_items(1, 2) == {3: [2, 3]}


def test_rank_partition_empty_inner_layer():
    inst = normalize([(2, 9), (2, 5), (3, 4)], 4)
    primed = break_ties(inst)
    part = rank_partition(primed, greedy_split(primed), set())
    assert all(not g for g in part.add_groups)
    assert all(not g for g in part.remove_groups)


def test_rank_partition_blocks_cover_candidates():
    rng = random.Random(60603)
    for _ in range(150):
        made = random_split(rng, n_max=20, w_max=6)
        if made is None:
            continue
        primed, split = made
        inner = {it.weight for it in primed.items}
        part = rank_partition(primed, split, inner)
        for groups, table in (
            (part.add_groups, split.add_candidates),
            (part.remove_groups, split.remove_candidates),
        ):
            seen = []
            for phase in groups:
                for w, block in phase.items():
                    assert set(block) <= set(table[w])
                    seen.extend(block)
            assert len(seen) == len(set(seen))
            want = [i for w in inner for i in table.get(w, [])]
            assert sorted(seen) == sorted(want)
