"""Instance model: normalization, tie-breaking, greedy split, cell widths."""

import random
from fractions import Fraction

import numpy as np
import pytest

from knapsolve import (
    BOTTOM,
    break_ties,
    greedy_split,
    is_bottom,
    normalize,
    recover_profit,
    solve_fast,
)
from knapsolve.core import INT32_VALUE_CAP, INT64_VALUE_CAP, cell_dtype


def test_normalize_drops_oversized_items():
    inst = normalize([(5, 9)], 3)
    assert inst.n == 0
    assert inst.all_fit and inst.total_profit == 0


def test_normalize_trivial_when_everything_fits():
    inst = normalize([(2, 3), (3, 4)], 10)
    assert inst.all_fit
    assert inst.total_profit == 7


def test_normalize_keeps_hard_instances():
    inst = normalize([(2, 3), (3, 4), (5, 5)], 6)
    assert inst.n == 3
    assert inst.w_max == 5
    assert not inst.all_fit


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize([(0, 3)], 5)
    with pytest.raises(ValueError):
        normalize([(2, 0)], 5)
    with pytest.raises(ValueError):
        normalize([(2, 3)], -1)


def test_normalize_refuses_non_integers():
    # int(2.9) would silently make the weight 2 and the answer 6, not 5
    with pytest.raises(ValueError):
        solve_fast([(2.9, 5), (3, 4), (1, 1)], 3)
    for items, capacity in (
        ([(2.0, 3)], 5),
        ([(2, 3.5)], 5),
        ([(True, 3)], 5),
        ([(2, np.True_)], 5),
        ([(2, np.float64(3))], 5),
        ([("2", 3)], 5),
        ([(2, 3)], 5.0),
        ([(2, 3)], False),
    ):
        with pytest.raises(ValueError):
            normalize(items, capacity)


def test_normalize_accepts_numpy_integers():
    items = [(np.int64(2), np.int32(3)), (np.uint8(3), np.int64(4)), (5, 5)]
    inst = normalize(items, np.int64(6))
    assert inst.items == ((2, 3), (3, 4), (5, 5))
    assert all(type(v) is int for it in inst.items for v in it)
    assert type(inst.capacity) is int
    assert solve_fast(items, np.int64(6)) == solve_fast([(2, 3), (3, 4), (5, 5)], 6) == 7


def same_instance(a, b):
    assert a.items == b.items
    assert (a.weights.dtype, a.profits.dtype) == (b.weights.dtype, b.profits.dtype)
    assert (a.capacity, a.w_max, a.all_fit, a.total_profit) == (
        b.capacity, b.w_max, b.all_fit, b.total_profit,
    )


@pytest.mark.parametrize("dtype", sorted({np.dtype(c).name for c in np.typecodes["AllInteger"]}))
def test_integer_arrays_normalize_as_lists(dtype):
    # an integer array is checked by dtype and converted whole; it must give
    # the instance the list of Python ints gives
    rng = np.random.default_rng(4244)
    top = min(np.iinfo(dtype).max, 1000)
    for capacity in (0, 40, 300, 10**6):
        arr = rng.integers(1, top, size=(60, 2), endpoint=True).astype(dtype)
        same_instance(normalize(arr, capacity), normalize(arr.tolist(), capacity))
    empty = np.empty((0, 2), dtype=dtype)
    same_instance(normalize(empty, 5), normalize([], 5))


def test_integer_array_edges():
    big = np.iinfo(np.uint64).max
    arr = np.array([[2, big], [3, 4], [4, 1]], dtype=np.uint64)
    inst = normalize(arr, 5)
    same_instance(inst, normalize(arr.tolist(), 5))
    assert inst.profits.dtype == object and inst.items[0] == (2, big)
    assert solve_fast(arr, 5) == big + 4
    with pytest.raises(ValueError, match="item weights and profits must be >= 1"):
        normalize(np.array([[2, 3], [0, 4]], dtype=np.int16), 5)
    with pytest.raises(ValueError, match="item weights and profits must be >= 1"):
        normalize(np.array([[2, 3], [-1, 4]], dtype=np.int64), 5)
    for shape in ((3,), (2, 3), (2, 2, 2)):
        with pytest.raises(ValueError, match=r"items must be \(weight, profit\) pairs"):
            normalize(np.ones(shape, dtype=np.int32), 5)
    # bool and float arrays are refused value by value, as lists are
    for arr, message in (
        (np.array([[True, False]]), "item weight must be an integer, got np.True_"),
        (np.array([[2.0, 3.0]], dtype=np.float32), "item weight must be an integer"),
        (np.array([[2, 3.5]]), "item weight must be an integer"),
    ):
        with pytest.raises(ValueError, match=message):
            normalize(arr, 5)


def test_cell_dtype_thresholds():
    assert cell_dtype(INT32_VALUE_CAP) == np.int32
    assert cell_dtype(INT32_VALUE_CAP + 1) == np.int64
    assert cell_dtype(INT64_VALUE_CAP) == np.int64
    assert cell_dtype(INT64_VALUE_CAP + 1) is object


def test_break_ties_frozen_example():
    # n=2 duplicates (2,3): modulus 1 + 2 + 3 = 6, then (3*6+i)*2 + 1
    inst = normalize([(2, 3), (2, 3)], 3)
    primed = break_ties(inst)
    assert primed.tie_break_m == 6
    assert [it.profit for it in primed.items] == [39, 41]
    assert recover_profit(39 + 41, 6, 2) == 6


def test_recover_profit_edges():
    assert recover_profit(0, 6, 2) == 0
    assert is_bottom(recover_profit(BOTTOM, 6, 2))


def test_break_ties_makes_everything_distinct():
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 14)
        items = [(rng.randint(1, 10), rng.randint(1, 30)) for _ in range(n)]
        if n >= 2 and rng.random() < 0.6:
            items[-1] = items[0]  # force a duplicate pair
        capacity = rng.randint(0, sum(w for w, _ in items))
        inst = normalize(items, capacity)
        if inst.all_fit:
            continue
        primed = break_ties(inst)
        effs = {Fraction(it.profit, it.weight) for it in primed.items}
        assert len(effs) == primed.n
        assert len({it.profit for it in primed.items}) == primed.n
        # any subset total survives the round trip
        for _ in range(4):
            picked = [i for i in range(inst.n) if rng.random() < 0.5]
            orig = sum(inst.items[i].profit for i in picked)
            prim = sum(primed.items[i].profit for i in picked)
            assert recover_profit(prim, primed.tie_break_m, primed.w_max) == orig


def test_break_ties_refuses_trivial_instances():
    with pytest.raises(ValueError):
        break_ties(normalize([(1, 1)], 5))


def test_greedy_split_frozen_example():
    # efficiencies 15 > 13.33 > 10; capacity 6 fits only the first two
    inst = normalize([(2, 30), (3, 40), (5, 50)], 6)
    split = greedy_split(inst)
    assert split.break_index == 2
    assert split.in_greedy.tolist() == [True, True, False]
    assert split.greedy_weight == 5
    assert split.greedy_profit == 70


def test_greedy_split_rank_order_within_class():
    # one cheap high-efficiency item fills the sack; the weight-3 items sit
    # outside and must be ranked 1,2,3 by decreasing profit
    inst = normalize([(1, 100), (3, 9), (3, 7), (3, 5)], 3)
    split = greedy_split(inst)
    assert split.in_greedy.tolist() == [True, False, False, False]
    assert split.add_candidates[3] == [1, 2, 3]


def test_greedy_split_weight_window():
    rng = random.Random(4242)
    for _ in range(120):
        n = rng.randint(2, 16)
        items = [(rng.randint(1, 9), rng.randint(1, 25)) for _ in range(n)]
        capacity = rng.randint(0, sum(w for w, _ in items))
        inst = normalize(items, capacity)
        if inst.all_fit:
            continue
        primed = break_ties(inst)
        split = greedy_split(primed)
        # maximal prefix: W(G) in (t - w_max, t]
        assert primed.capacity - primed.w_max < split.greedy_weight <= primed.capacity
        assert 0 <= split.break_index < primed.n
        # remove-side ranks increase with profit
        for members in split.remove_candidates.values():
            profits = [primed.items[i].profit for i in members]
            assert profits == sorted(profits)


def ratio_order(inst):
    """Item indices by exact efficiency, descending, ties by ascending index."""
    return sorted(
        range(inst.n),
        key=lambda i: (-Fraction(inst.items[i].profit, inst.items[i].weight), i),
    )


def test_greedy_split_order_matches_exact_ratios():
    # the integer keys must order items as exact ratios do, perturbed or not,
    # with ties (only unperturbed instances have them) going to the lower index
    rng = random.Random(4243)
    for trial in range(200):
        w_max = rng.choice((1, 2, 7, 64, 1000))
        items = [
            (rng.randint(1, w_max), rng.randint(1, 10 ** rng.randint(1, 19)))
            for _ in range(rng.randint(2, 40))
        ]
        if trial % 2:
            # tied: scaled copies of a few base ratios, plus duplicates
            bases = items[: rng.randint(1, 3)]
            items = [
                (w * k, p * k)
                for w, p in (rng.choice(bases) for _ in range(len(items)))
                for k in [rng.randint(1, max(1, w_max // w))]
            ]
        inst = normalize(items, sum(w for w, _ in items) - 1)
        assert greedy_split(inst).order.tolist() == ratio_order(inst)
        primed = break_ties(inst)
        assert greedy_split(primed).order.tolist() == ratio_order(primed)


def test_greedy_split_breaks_ties_by_index():
    inst = normalize([(2, 4), (3, 6), (4, 1)], 5)  # 4/2 == 6/3
    split = greedy_split(inst)
    assert split.order.tolist() == ratio_order(inst) == [0, 1, 2]
    assert split.in_greedy.tolist() == [True, True, False]
    # duplicates inside one weight class rank in the walk's order: by
    # descending index inside G, by ascending index outside it
    split = greedy_split(normalize([(3, 5), (1, 9), (3, 5), (3, 5), (3, 5)], 7))
    assert split.order.tolist() == [1, 0, 2, 3, 4]
    assert split.remove_candidates[3] == [2, 0]
    assert split.add_candidates[3] == [3, 4]
    # ratios 1/999 and 1/1000 differ by about 1e-6 and must stay distinct
    split = greedy_split(normalize([(999, 1), (1000, 1), (1, 1)], 1000))
    assert split.order.tolist() == [2, 0, 1]


def test_bottom_arithmetic():
    assert is_bottom(BOTTOM + 5)
    assert max(BOTTOM, -3) == -3
    assert BOTTOM < -(10**30)

