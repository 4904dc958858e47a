"""Deterministic coloring constructions used by the hint-guided DP solver.

Three primitives, all derandomized with pessimistic estimators:

* ``det_set_balancing``: signs every universe element +1/-1 so each given
  set has small signed discrepancy (hyperbolic-cosine potential).
* ``det_balls_and_bins``: splits the universe into r color classes so every
  set meets every class in O(log m) elements (recursive halving via set
  balancing).
* ``det_isolating_colorings``: a short list of colorings into b^2 colors
  such that every set of size <= b is injectively colored ("isolated") by
  at least one of them (collision-counting estimator, exact integer
  arithmetic).

Each takes its sets as one multiset: a mapping from each distinct
frozenset to its copy count, the empty set's count included.  The number
of sets m, on which their parameters depend, is the total count.  Copies
of one set share every step, so each works once per distinct set,
weighted by its count: the outputs are those of tracking every copy on its
own in exact arithmetic, whatever the order of the mapping.  An empty set
adds nothing to any sum, estimator or check, so it counts only in m.  All
loops process elements in sorted order, so outputs are fully deterministic
functions of their inputs.
"""

from __future__ import annotations

import math
from collections import Counter


class ColoringError(RuntimeError):
    """A coloring postcondition failed; inputs violate the size preconditions."""


def _sorted_universe(sets) -> list:
    universe = set()
    for s in sets:
        universe |= set(s)
    return sorted(universe)


def _balance(copies: dict, m: int) -> dict:
    """``det_set_balancing`` of the sets ``copies`` counts, m sets in all."""
    universe = _sorted_universe(copies)
    signs = dict.fromkeys(universe, 1)
    if m == 0 or not universe:
        return signs
    t = math.sqrt(math.log(2 * m) / max(map(len, copies)))
    cosh_t = math.cosh(t)
    member_sets: dict = {e: [] for e in universe}
    rho, sigma, count = [], [], []  # undecided elements, signed sum, copies
    for i, (s, n) in enumerate(copies.items()):
        for e in s:
            member_sets[e].append(i)
        rho.append(len(s))
        sigma.append(0)
        count.append(n)
    for e in universe:
        # copies at (rho, sigma) and (rho, -sigma) cancel; sigma = 0 adds 0
        net: dict = {}
        for i in member_sets[e]:
            if sigma[i]:
                key = (rho[i], abs(sigma[i]))
                net[key] = net.get(key, 0) + (count[i] if sigma[i] > 0 else -count[i])
        total = math.fsum(
            n * cosh_t**r * math.sinh(t * s) for (r, s), n in net.items() if n
        )
        sign = 1 if total <= 0 else -1
        signs[e] = sign
        for i in member_sets[e]:
            rho[i] -= 1
            sigma[i] += sign
    return signs


def det_set_balancing(copies: dict) -> dict:
    """Assign +1/-1 to every element so all sets have small discrepancy.

    With m sets of size at most b, every returned assignment satisfies
    |sum of signs over S_i| <= 2 * sqrt(b * ln(2m)) (callers assert the
    relaxed bound 4 * sqrt(b * ln(2m))), with t = sqrt(ln(2m) / b).
    Greedy choice per element, minimizing the potential
    sum_i cosh(t * sigma_i) * cosh(t)^rho_i, where rho_i counts the
    undecided elements of S_i and sigma_i is its signed sum so far: the
    element is signed +1 exactly when
    sum_i cosh(t)^rho_i * sinh(t * sigma_i) <= 0 over the sets holding it,
    an empty sum included.  rho and sigma are integers kept once per
    distinct set; the copy counts are netted per (rho, |sigma|), so terms
    that cancel are never formed and a mathematical tie always signs +1.
    Each nonzero net term is evaluated afresh and the terms are summed by
    ``math.fsum``, so the order of the sets does not matter.
    """
    return _balance(copies, sum(copies.values()))


# The balls-and-bins load factor: a set meets a color class in at most
# BALLS_AND_BINS_BETA * log2(2m) elements.
BALLS_AND_BINS_BETA = 12


def balls_and_bins_bound(num_sets: int) -> int:
    """Largest per-(set, color) intersection ``det_balls_and_bins`` allows."""
    return math.ceil(BALLS_AND_BINS_BETA * math.log2(max(2, 2 * num_sets)))


def det_balls_and_bins(copies: dict, num_colors: int) -> dict:
    """Color the universe so every set meets every color class in few points.

    ``num_colors`` is rounded down to a power of two and the classes are
    produced by repeated halving with set balancing, each part's restricted
    distinct sets carrying the copy counts of the sets they come from.
    Requires |S_i| <= num_colors * log2(2m); guarantees (and checks, raising
    ``ColoringError`` otherwise) that every set meets every color class in
    at most ``balls_and_bins_bound(m)`` elements.  Both checks run once per
    distinct set.
    """
    if num_colors < 1:
        raise ValueError("need at least one color")
    m = sum(copies.values())
    if m > 0:
        limit = num_colors * math.log2(2 * m)
        if any(len(s) > limit for s in copies):
            raise ValueError("set larger than num_colors * log2(2m)")
    levels = num_colors.bit_length() - 1  # round colors down to a power of two

    parts: list[list] = [_sorted_universe(copies)]
    for _ in range(levels):
        next_parts: list[list] = []
        for part in parts:
            part_set = frozenset(part)
            restricted: Counter = Counter()
            for s, n in copies.items():
                if r := s & part_set:
                    restricted[r] += n
            signs = _balance(restricted, m)
            next_parts.append([e for e in part if signs.get(e, 1) == 1])
            next_parts.append([e for e in part if signs.get(e, 1) == -1])
        parts = next_parts

    coloring = {e: color for color, part in enumerate(parts) for e in part}
    bound = balls_and_bins_bound(m)
    for s in filter(None, copies):
        color, load = Counter(map(coloring.__getitem__, s)).most_common(1)[0]
        if load > bound:
            raise ColoringError(
                f"balls-and-bins bound {bound} exceeded for color {color}"
            )
    return coloring


def is_isolated(s, coloring: dict) -> bool:
    elems = set(s)
    return len({coloring[e] for e in elems}) == len(elems)


def det_isolating_colorings(copies: dict, size_bound: int) -> list[dict]:
    """Colorings into size_bound^2 colors, jointly isolating every set.

    Every set must have at most ``size_bound`` elements.  Each round colors
    the universe greedily, keeping the expected number of still-colliding
    sets below half by the collision estimator
    p(x) = (2x(s - x) + (s - x)(s - x - 1)) / (2 b^2)  (exact integers,
    scaled by 2 b^2), so at most log2(2m) rounds are needed; the list is as
    short as the inputs allow.  A distinct set's penalty counts once per
    copy, and m (with the round cap) counts every copy.
    """
    m = sum(copies.values())
    if any(len(s) > size_bound for s in copies):
        raise ValueError("set exceeds the declared size bound")
    universe = _sorted_universe(copies)
    colors = max(1, size_bound * size_bound)

    colorings: list[dict] = []
    # distinct sets that need isolating, with their copy counts
    remaining = [(s, n) for s, n in copies.items() if len(s) >= 2]
    max_rounds = max(1, math.ceil(math.log2(2 * m))) if m else 1
    while remaining:
        if len(colorings) >= max_rounds:
            raise ColoringError("isolating colorings did not converge")
        member_sets: dict = {e: [] for e in universe}
        for i, (elems, _) in enumerate(remaining):
            for e in elems:
                member_sets[e].append(i)
        # per-set state for this round
        colored_count = [0] * len(remaining)
        used_colors: list[set[int]] = [set() for _ in remaining]
        collided = [False] * len(remaining)
        full = 2 * colors  # scaled estimator value of a collided set

        coloring = {}
        for e in universe:
            active = [i for i in member_sets[e] if not collided[i]]
            # Penalty of reusing a color some active set already holds;
            # fresh colors are always at least as good.
            penalty: dict[int, int] = {}
            for i in active:
                elems, n = remaining[i]
                x = colored_count[i]
                u = len(elems) - x - 1
                fresh = 2 * (x + 1) * u + u * (u - 1)
                for c in used_colors[i]:
                    penalty[c] = penalty.get(c, 0) + n * (full - fresh)
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
        remaining = [rem for rem, hit in zip(remaining, collided) if hit]
    if not colorings:
        colorings.append({e: 0 for e in universe})
    return colorings
