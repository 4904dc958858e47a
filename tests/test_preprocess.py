"""Array preprocessing against a pure-Python reference, and normalize's input contract.

``normalize``, ``greedy_split`` and ``weight_partition`` run as numpy array
passes.  The reference here is the per-item formulation they replace:
items sorted by (exact ratio descending, index ascending), the greedy walk,
per-class rank sorts, and distinct-weight counts walked outward from the
break one position at a time.  Every structure must match exactly.
"""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knapsolve import (
    break_ties,
    generate_instance,
    greedy_split,
    normalize,
    solve_bellman,
    solve_exhaustive,
    solve_fast,
    solve_proximity_smawk,
    weight_partition,
)
from knapsolve.core import INT64_VALUE_CAP, Item, _integer

# --- the reference --------------------------------------------------------


def reference_instance(raw_items, capacity, perturbed=False):
    """(kept (weight, profit) list, w_max, tie-break modulus) without numpy."""
    kept = [(w, p) for w, p in raw_items if w <= capacity]
    w_max = max((w for w, _ in kept), default=0)
    if not perturbed:
        return kept, w_max, 0
    n = len(kept)
    m = 1 + n + n * (n + 1) // 2
    return [(w, (p * m + i) * w_max + 1) for i, (w, p) in enumerate(kept, 1)], w_max, m


def reference_split(items, capacity, w_max):
    n = len(items)
    order = sorted(range(n), key=lambda i: (-Fraction(items[i][1], items[i][0]), i))
    in_greedy = [False] * n
    used = profit = 0
    break_index = None
    for pos, i in enumerate(order):
        if used + items[i][0] > capacity:
            break_index = pos
            break
        used += items[i][0]
        profit += items[i][1]
        in_greedy[i] = True
    add, remove = {}, {}
    for i in range(n):
        (remove if in_greedy[i] else add).setdefault(items[i][0], []).append(i)
    # each side ranks in the order a walk outward from the break meets it
    for side, sign in ((add, -1), (remove, +1)):
        for w, members in side.items():
            members.sort(key=lambda i: (sign * items[i][1], -sign * i))
            side[w] = members[: 2 * w_max]
    return {
        "order": order, "break_index": break_index, "in_greedy": in_greedy,
        "greedy_weight": used, "greedy_profit": profit,
        "add_candidates": add, "remove_candidates": remove,
    }


def reference_layers(weights_in_order, i_star, w_max, constant=2.0):
    """(layer count, layers, cumulative, layer_of) by the walk-outward counts."""
    n = len(weights_in_order)
    base = 2.0 * constant * math.sqrt(w_max * math.log2(w_max)) if w_max > 1 else 0.0
    s = 1
    if base > 0:
        while base * (2**s) < w_max:
            s += 1
    left, right, seen = [], [], set()
    for pos in range(i_star - 1, -1, -1):
        seen.add(weights_in_order[pos])
        left.append(len(seen))
    seen = set()
    for pos in range(i_star, n):
        seen.add(weights_in_order[pos])
        right.append(len(seen))
    layers, cumulative, covered = [], [], set()
    for j in range(1, s + 1):
        threshold = max(1, math.ceil(base * (2**j)))
        if j == s:
            lo, hi = 0, n - 1
        else:
            lo = i_star - sum(1 for d in left if d <= threshold)
            hi = i_star + sum(1 for d in right if d <= threshold) - 1
        support = set(weights_in_order[lo : hi + 1])
        layers.append(support - covered)
        covered |= support
        cumulative.append(set(covered))
    layer_of = {w: j for j, layer in enumerate(layers, 1) for w in layer}
    return s, layers, cumulative, layer_of


def check_against_reference(raw_items, capacity, perturbed=False, constant=2.0):
    """Run the array preprocessing and the reference; every structure must agree."""
    inst = normalize(raw_items, capacity)
    kept, w_max, m = reference_instance(raw_items, capacity)
    assert inst.items == tuple(kept)
    assert inst.w_max == w_max
    assert inst.all_fit == (sum(w for w, _ in kept) <= capacity)
    if inst.all_fit:
        assert inst.total_profit == sum(p for _, p in kept)
        with pytest.raises(ValueError):
            greedy_split(inst)
        return None
    if perturbed:
        inst = break_ties(inst)
        kept, w_max, m = reference_instance(raw_items, capacity, perturbed=True)
        assert inst.tie_break_m == m and inst.items == tuple(kept)
    for arr, column in ((inst.weights, 0), (inst.profits, 1)):
        total = sum(item[column] for item in kept)
        assert arr.dtype == (np.int64 if total <= INT64_VALUE_CAP else object)

    split = greedy_split(inst)
    want = reference_split(kept, capacity, w_max)
    for name, value in want.items():
        got = getattr(split, name)
        assert (got.tolist() if name in ("order", "in_greedy") else got) == value, name
    for side in (split.add_candidates, split.remove_candidates):
        assert all(type(v) is int for members in side.values() for v in members)

    part = weight_partition(inst, split, constant)
    s, layers, cumulative, layer_of = reference_layers(
        [kept[i][0] for i in want["order"]], want["break_index"], w_max, constant
    )
    # the cumulative supports and the layer index, found from the layers
    got_cumulative = [set().union(*part.layers[: j + 1]) for j in range(part.layer_count)]
    got_layer_of = {w: j for j, layer in enumerate(part.layers, 1) for w in layer}
    assert (part.layer_count, part.layers, got_cumulative, got_layer_of) == (
        s, layers, cumulative, layer_of,
    )
    return inst, split


# --- fixed cases ------------------------------------------------------------


def test_random_instances_match_reference():
    rng = random.Random(5150)
    for trial in range(300):
        w_max = rng.choice((1, 2, 5, 16, 64))
        n = rng.randint(1, 60)
        items = [(rng.randint(1, w_max), rng.randint(1, 40)) for _ in range(n)]
        total = sum(w for w, _ in items)
        capacity = rng.choice((0, total - 1, rng.randint(0, total)))
        constant = rng.choice((0.05, 0.5, 2.0))
        check_against_reference(items, capacity, perturbed=trial % 3 == 0, constant=constant)


def test_layer_windows_cut_inside_the_order():
    # enough distinct weights on each side of the break that every layer
    # but the last stops short of the ends of the order
    for seed, family in enumerate(("uniform", "clustered", "hard-equal-weights")):
        items, capacity = generate_instance(2000, 512, 1000, 0.5, seed, family)
        for constant in (0.05, 0.2, 1.0):
            inst, split = check_against_reference(items, capacity, constant=constant)
            part = weight_partition(inst, split, constant)
            if family == "uniform":
                assert part.layer_count >= 2
                assert len(part.layers[0]) < len(set(inst.weights.tolist()))


def test_object_keys_with_int64_profits():
    # the perturbed oracle shape: primed profits fit int64, their keys
    # p' * w_max^2 do not (about 2.7e19)
    for family in ("uniform", "hard-equal-weights"):
        items, capacity = generate_instance(1280, 320, 10**6, 0.5, 3, family)
        inst, split = check_against_reference(items, capacity, perturbed=True)
        assert inst.profits.dtype == np.int64
        assert int(inst.profits.max()) * inst.w_max**2 > 1 << 63


def test_profits_past_int64():
    rng = random.Random(5151)
    for trial in range(60):
        n = rng.randint(2, 30)
        items = [(rng.randint(1, 9), (1 << 64) + rng.randint(0, 1 << 70)) for _ in range(n)]
        if trial % 2:
            items += [(w, p) for w, p in items[:3]]  # duplicates
        capacity = sum(w for w, _ in items) - 1
        inst, _ = check_against_reference(items, capacity, perturbed=trial % 4 == 1)
        assert inst.profits.dtype == object
    items = [(3, 1 << 64), (2, 5), (4, (1 << 64) + 7), (1, 2)]
    assert solve_fast(items, 6) == solve_exhaustive(items, 6) == (1 << 64) + 12


def test_all_equal_efficiencies_and_duplicates():
    rng = random.Random(5152)
    for _ in range(100):
        a, b = rng.randint(1, 4), rng.randint(1, 9)
        items = [(a * k, b * k) for k in (rng.randint(1, 6) for _ in range(rng.randint(2, 40)))]
        items += items[: rng.randint(0, 5)]
        total = sum(w for w, _ in items)
        check_against_reference(items, rng.choice((total - 1, rng.randint(0, total))))


def test_unit_weights():
    rng = random.Random(5153)
    for _ in range(60):
        items = [(1, rng.randint(1, 5)) for _ in range(rng.randint(2, 50))]
        inst, _ = check_against_reference(items, rng.randint(1, len(items) - 1))
        assert inst.w_max == 1


def test_capacity_edges_and_heavy_items():
    rng = random.Random(5154)
    for _ in range(100):
        items = [(rng.randint(1, 30), rng.randint(1, 50)) for _ in range(rng.randint(2, 40))]
        assert check_against_reference(items, 0) is None  # every item dropped
        total = sum(w for w, _ in items)
        check_against_reference(items, total - 1)
        # a capacity below most weights: the heavy items are dropped first
        check_against_reference(items, rng.randint(1, 15))
    inst = normalize([(5, 9), (7, 1)], 4)
    assert inst.n == 0 and inst.all_fit and inst.total_profit == 0


# --- the same comparison as a property --------------------------------------

profit_values = st.one_of(
    st.integers(1, 50), st.integers(1, 10**6), st.integers(1 << 62, 1 << 70)
)


@st.composite
def instances(draw):
    w_max = draw(st.sampled_from((1, 2, 7, 64)))
    pairs = st.tuples(st.integers(1, w_max), profit_values)
    items = draw(st.lists(pairs, min_size=1, max_size=40))
    if draw(st.booleans()):
        # equal efficiencies: scaled copies of the first item
        w, p = items[0]
        items += [(w * k, p * k) for k in range(1, w_max // w + 1)]
    total = sum(w for w, _ in items)
    capacity = draw(st.one_of(st.just(0), st.just(total - 1), st.integers(0, total)))
    # small constants give several layers with thresholds that cut the order
    return items, capacity, draw(st.booleans()), draw(st.sampled_from((0.05, 0.3, 2.0)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(instances())
def test_preprocessing_matches_reference_property(case):
    items, capacity, perturbed, constant = case
    check_against_reference(items, capacity, perturbed=perturbed, constant=constant)


# --- normalize's input contract ---------------------------------------------


@pytest.mark.parametrize(
    "items, capacity, message",
    [
        ([(True, 3), (2, 4)], 5, "item weight must be an integer"),
        ([(2, np.True_), (2, 4)], 5, "item profit must be an integer"),
        ([(2.9, 5), (3, 4)], 3, "item weight must be an integer"),
        ([(2, 4), (3, np.float64(2.0))], 5, "item profit must be an integer"),
        ([(Fraction(2), 4)], 5, "item weight must be an integer"),
        ([(2, 4)], np.float64(5.0), "capacity must be an integer"),
        ([(2, 4)], True, "capacity must be an integer"),
        ([(0, 4)], 5, "item weights and profits must be >= 1"),
        ([(2, 4), (3, -1 << 70)], 5, "item weights and profits must be >= 1"),
        ([(2, 4, 1)], 5, "items must be (weight, profit) pairs"),
        ([5], 5, "items must be (weight, profit) pairs"),
        ([None], 5, "items must be (weight, profit) pairs"),
        ([(1, 2), 7], 5, "items must be (weight, profit) pairs"),
        ([iter((1, 2))], 5, "items must be (weight, profit) pairs"),
        (5, 5, "items must be (weight, profit) pairs"),
        # the first bad value in input order is the one named
        ([(2, 2.5), (2.9, 3)], 5, "item profit must be an integer, got 2.5"),
        ([(2, 1 << 70), (np.int64(3), 2.0), (1.5, 4)], 5, "item profit must be an integer, got 2.0"),
    ],
)
def test_normalize_refuses(items, capacity, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        normalize(items, capacity)


# bytes, mappings and sets unpack to two values but are no pair
@pytest.mark.parametrize(
    "items",
    [
        [b"\x03\x04", (2, 2)],
        [(2, 2), bytearray(b"\x03\x04")],
        [{3: 1, 4: 1}, (2, 2)],
        [{3, 4}, (2, 2)],
        [(2, 2), frozenset((3, 4))],
    ],
    ids=["bytes", "bytearray", "dict", "set", "frozenset"],
)
def test_normalize_refuses_unordered_pairs(items):
    with pytest.raises(ValueError, match=r"items must be \(weight, profit\) pairs"):
        normalize(items, 2)


def test_every_solver_refuses_unordered_pairs():
    # each of them answered 4 here, reading the bytes, the mapping's keys or
    # the set's iteration order as a (weight, profit) pair
    for items in ([b"\x03\x04", (2, 2)], [{3: 1, 4: 1}, (2, 2)], [{3, 4}, (2, 2)]):
        for solver in (solve_fast, solve_bellman, solve_proximity_smawk, solve_exhaustive):
            with pytest.raises(ValueError, match=r"items must be \(weight, profit\) pairs"):
                solver(items, 4)


def test_normalize_accepts_pair_shapes():
    want = normalize([(3, 4), (2, 2), (1, 1)], 4)
    for items in (
        [Item(3, 4), [2, 2], np.array([1, 1])],
        np.array([[3, 4], [2, 2], [1, 1]], dtype=np.int64),
        np.array([[3, 4], [2, 2], [1, 1]], dtype=object),
        ((3, 4), (2, 2), (1, 1)),
    ):
        assert normalize(items, 4).items == want.items


def test_normalize_accepts_integer_types():
    plain = [(2, 3), (3, 4), (5, 5)]
    want = normalize(plain, 6)
    for items in (
        [(np.int64(2), np.int32(3)), (np.uint8(3), np.int16(4)), (5, np.uint64(5))],
        np.array(plain, dtype=np.int64),
        np.array(plain, dtype=np.uint16),
        (pair for pair in plain),
    ):
        inst = normalize(items, np.int32(6))
        assert inst.items == want.items and inst.all_fit == want.all_fit
        assert all(type(v) is int for it in inst.items for v in it)
        assert inst.weights.dtype == inst.profits.dtype == np.int64
    assert solve_fast(np.array(plain), 6) == solve_fast(plain, 6) == 7


def test_normalize_accepts_values_past_int64():
    big = 2**63 + 5
    for items in ([(2, np.uint64(big)), (3, 4), (4, 1)], [(2, big), (3, 4), (4, 1)]):
        inst = normalize(items, 5)
        assert inst.items == ((2, big), (3, 4), (4, 1))
        assert inst.profits.dtype == object and inst.weights.dtype == np.int64
        assert solve_fast(items, 5) == big + 4
    # a huge weight is dropped against a smaller capacity, then the rest is int64
    inst = normalize([(1 << 80, 3), (2, 4), (3, 5)], 4)
    assert inst.items == ((2, 4), (3, 5)) and inst.weights.dtype == np.int64
    inst = normalize([(1 << 80, 3), (2, 4)], 1 << 81)
    assert inst.weights.dtype == object and inst.all_fit and inst.total_profit == 7


def test_instance_arrays_are_read_only():
    inst = normalize([(2, 3), (3, 4), (5, 5)], 6)
    for arr in (inst.weights, inst.profits, break_ties(inst).profits):
        with pytest.raises(ValueError):
            arr[0] = 1


# --- normalize against a per-value reference --------------------------------


def normalize_reference(raw_items, capacity):
    """(weights, profits, their dtypes, all_fit) of ``normalize``, value by value.

    Each value goes through ``_integer`` in input order, then the documented
    rules: values >= 1, items heavier than the capacity dropped, and a
    column int64 while its total is at most ``INT64_VALUE_CAP``.
    """
    capacity = _integer(capacity, "capacity")
    pairs = [(_integer(w, "item weight"), _integer(p, "item profit")) for w, p in raw_items]
    if any(v < 1 for pair in pairs for v in pair):
        raise ValueError("item weights and profits must be >= 1")
    weights = [w for w, _ in pairs if w <= capacity]
    profits = [p for w, p in pairs if w <= capacity]

    def dtype(column):
        return np.dtype(np.int64) if sum(column) <= INT64_VALUE_CAP else np.dtype(object)

    return weights, profits, dtype(weights), dtype(profits), sum(weights) <= capacity


PAST_INT64 = st.integers(1 << 63, 1 << 70)
COLUMN_VALUES = {
    "plain": st.integers(1, 60),
    "numpy": st.builds(
        lambda cls, v: cls(v),
        st.sampled_from((np.int64, np.int32, np.uint8, np.uint64)),
        st.integers(1, 60),
    ),
    "refused": st.sampled_from((True, False, np.True_, np.False_, 2.0, 2.5, np.float64(3.0), 0, -1)),
    "past-int64": PAST_INT64,
}


@st.composite
def raw_inputs(draw):
    """(container, its data: a list of pairs or an (n, 2) array, capacity)."""
    n = draw(st.integers(0, 12))
    container = draw(st.sampled_from(("list", "tuple", "generator", "array")))
    if container == "array":
        dtype = draw(st.sampled_from((np.int64, np.int32, np.uint16, np.uint64)))
        rows = draw(st.lists(st.tuples(st.integers(1, 60), st.integers(1, 60)), min_size=n, max_size=n))
        data = np.array(rows, dtype=dtype).reshape(n, 2)
        if n and draw(st.integers(0, 3)) == 0:
            data[draw(st.integers(0, n - 1)), draw(st.integers(0, 1))] = 0
        if dtype is np.uint64 and n and draw(st.booleans()):
            # values past int64 in one column only
            column = draw(st.integers(0, 1))
            for row in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
                data[row, column] = draw(st.integers(1 << 63, (1 << 64) - 1))
    else:
        columns = []
        for _ in range(2):
            special = COLUMN_VALUES[draw(st.sampled_from(sorted(COLUMN_VALUES)))]
            values = st.one_of(COLUMN_VALUES["plain"], special)
            columns.append(draw(st.lists(values, min_size=n, max_size=n)))
        data = list(zip(*columns))
    # drop none, some or all items
    capacity = draw(st.one_of(st.sampled_from((0, 60, 1 << 80)), st.integers(1, 59)))
    return container, data, capacity


def fresh(container, data):
    """The drawn input in its container, anew: a generator is read only once."""
    if container == "generator":
        return (pair for pair in data)
    return tuple(data) if container == "tuple" else data


@settings(derandomize=True, max_examples=400, deadline=None)
@given(raw_inputs())
# every item fits, so the columns are kept unmasked
@example(("array", np.array([[2, 3], [4, 5], [6, 7]]), 60))
@example(("list", [(2, 3), (4, 5), (6, 7)], 60))
def test_normalize_matches_per_value_reference(case):
    container, data, capacity = case
    before = [(w, p) for w, p in data]
    try:
        weights, profits, w_dtype, p_dtype, all_fit = normalize_reference(fresh(container, data), capacity)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            normalize(fresh(container, data), capacity)
        assert str(got.value) == str(err)
        return
    inst = normalize(fresh(container, data), capacity)
    assert inst.weights.tolist() == weights and inst.profits.tolist() == profits
    assert all(type(v) is int for v in inst.weights.tolist() + inst.profits.tolist())
    assert (inst.weights.dtype, inst.profits.dtype) == (w_dtype, p_dtype)
    assert inst.all_fit == all_fit and inst.w_max == max(weights, default=0)
    assert inst.total_profit == (sum(profits) if all_fit else 0)
    for arr in (inst.weights, inst.profits):
        assert not arr.flags.writeable and arr.flags.c_contiguous
        if container == "array":
            assert not np.shares_memory(arr, data)
    assert [(w, p) for w, p in data] == before
