"""Structural partitions driving the hinted engine's two stages.

Weights are split into layers W_1, ..., W_s by distance from the greedy
break point in the efficiency order: layer j collects the distinct weights
seen in a window around the break whose support size is capped at
ceil(2 * C * sqrt(w_max * log2(w_max))) * 2^j, minus all earlier layers.
Exchange solutions interact mostly with low layers, so the DP can spend a
shrinking index range on each successive layer.

Within the innermost layer, items of each weight class are grouped by the
dyadic block of their rank: group j holds ranks [2^(j-1), 2^j - 1].  The
phase schedule fixes, per dyadic phase, the DP table half-size L_j = m_j *
w_max and the hint budget b_j used by the hint-propagating stage.

All square-root and logarithm expressions are rounded up to integers, and
every structural quantity is clamped to at least 1 so degenerate instances
(w_max = 1) stay well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GreedySplit, Instance


@dataclass
class WeightPartition:
    """Disjoint weight layers, innermost first."""

    layer_count: int
    layers: list[set[int]]  # layers[j - 1] = W_j

    @property
    def innermost(self) -> set[int]:
        return self.layers[0]


def _by_first_occurrence(weights) -> list[int]:
    """Distinct values of ``weights`` in the order they first occur."""
    values, first = np.unique(weights, return_index=True)
    return values[np.argsort(first)].tolist()


def weight_partition(inst: Instance, split: GreedySplit, constant: float = 2.0) -> WeightPartition:
    """Partition the distinct weights into layers around the greedy break.

    The layer count s is the smallest s >= 1 with
    2 * C * sqrt(w_max * log2(w_max)) * 2^s >= w_max; the last layer is
    forced to absorb every remaining weight so the layers cover the support.

    Layer j's window walks outward from the break on each side as long as
    the side's distinct-weight count stays within the threshold, so its
    support is, per side, the threshold-many distinct weights met first.
    """
    if inst.w_max < 1:
        raise ValueError("instance has no items")
    weights_in_order = inst.weights[split.order]
    i_star = split.break_index

    base = 2.0 * constant * math.sqrt(inst.w_max * math.log2(inst.w_max)) if inst.w_max > 1 else 0.0
    s = 1
    if base > 0:
        while base * (2**s) < inst.w_max:
            s += 1

    # distinct weights in the order a walk outward from the break meets them
    left = _by_first_occurrence(weights_in_order[:i_star][::-1])
    right = _by_first_occurrence(weights_in_order[i_star:])

    layers: list[set[int]] = []
    covered: set[int] = set()
    for j in range(1, s + 1):
        threshold = None if j == s else max(1, math.ceil(base * (2**j)))
        support = set(left[:threshold]) | set(right[:threshold])
        layers.append(support - covered)
        covered |= support
    return WeightPartition(layer_count=s, layers=layers)


@dataclass
class RankPartition:
    """Dyadic rank groups of the innermost layer's weight classes.

    ``add_groups[j][w]`` lists the rank-ordered item indices of weight w
    outside the greedy set whose rank falls in [2^(j-1), 2^j - 1]; phases are
    1-based, j in [1, k].  ``remove_groups`` mirrors this inside the greedy
    set.  Ranks beyond 2 * w_max are never materialized (no optimal exchange
    reaches them), which leaves every group beyond phase k empty.
    """

    phase_count: int
    add_groups: list[dict[int, list[int]]]
    remove_groups: list[dict[int, list[int]]]

    def group(self, direction: int, phase: int, weight: int) -> list[int]:
        """The group's item indices; empty past the last phase."""
        if phase > self.phase_count:
            return []
        groups = self.add_groups if direction > 0 else self.remove_groups
        return groups[phase - 1].get(weight, [])

    def phase_items(self, direction: int, phase: int) -> dict[int, list[int]]:
        groups = self.add_groups if direction > 0 else self.remove_groups
        return groups[phase - 1]


def rank_partition(inst: Instance, split: GreedySplit, inner_weights: set[int]) -> RankPartition:
    """Group the innermost layer's items by the dyadic block of their rank."""
    k = max(1, math.ceil(math.log2(2 * inst.w_max + 1)))
    add_groups: list[dict[int, list[int]]] = [{} for _ in range(k)]
    remove_groups: list[dict[int, list[int]]] = [{} for _ in range(k)]
    for w in inner_weights:
        for groups, table in (
            (add_groups, split.add_candidates),
            (remove_groups, split.remove_candidates),
        ):
            members = table.get(w, [])
            for j in range(1, k + 1):
                lo = 2 ** (j - 1) - 1  # rank 2^(j-1), 0-based
                hi = 2**j - 1  # one past rank 2^j - 1
                block = members[lo:hi]
                if block:
                    groups[j - 1][w] = block
    return RankPartition(
        phase_count=k,
        add_groups=add_groups,
        remove_groups=remove_groups,
    )


@dataclass
class PhaseSchedule:
    """Table sizes and hint budgets for the phased first stage.

    ``table_half_sizes[j]`` = L_j = m_j * w_max for j in [0, k];
    ``hint_budgets[j]`` = b_j for j in [1, k + 1] (index 0 unused).  The
    first budget is clamped up to the innermost layer's support size, since
    the initial hint set is that whole layer.
    """

    w_max: int
    constant: float
    phase_count: int
    item_bounds: list[int]  # m_0 .. m_k
    table_half_sizes: list[int]  # L_0 .. L_k
    hint_budgets: list[int]  # index j valid for 1 <= j <= k + 1

    def stage_two_size(self, layer: int) -> int:
        """Half-size L'_j the table shrinks to after finishing layer j."""
        return int(4 * self.constant * self.w_max * math.sqrt(self.w_max) / (2**layer)) + self.w_max


def phase_schedule(w_max: int, constant: float, inner_support_size: int) -> PhaseSchedule:
    """Compute m_j, L_j and b_j for all phases.

    m_j = ceil(C * 2^(j/2) * sqrt(w_max * log2(2 * w_max))) bounds how many
    items of phases <= j any optimal exchange can use per side, so tables of
    half-size m_j * w_max never lose the optimum.  b_j uses the same product
    with 2^(-j/2): later phases allow more items but need fewer hint
    candidates.
    """
    if w_max < 1:
        raise ValueError("w_max must be >= 1")
    k = max(1, math.ceil(math.log2(2 * w_max + 1)))
    base = math.sqrt(w_max * math.log2(2 * w_max))
    item_bounds = [max(1, math.ceil(constant * (2 ** (j / 2)) * base)) for j in range(k + 1)]
    budgets = [0] + [
        max(1, math.ceil(constant * (2 ** (-j / 2)) * base)) for j in range(1, k + 2)
    ]
    budgets[1] = max(budgets[1], inner_support_size)
    return PhaseSchedule(
        w_max=w_max,
        constant=constant,
        phase_count=k,
        item_bounds=item_bounds,
        table_half_sizes=[m * w_max for m in item_bounds],
        hint_budgets=budgets,
    )
