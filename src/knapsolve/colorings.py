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

All loops process elements and sets in sorted order, so outputs are fully
deterministic functions of their inputs.
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


def det_set_balancing(sets: list) -> dict:
    """Assign +1/-1 to every element so all sets have small discrepancy.

    With m sets of size at most b, every returned assignment satisfies
    |sum of signs over S_i| <= 2 * sqrt(b * ln(2m)) up to floating point
    slack (callers assert the relaxed bound 4 * sqrt(b * ln(2m))).  Greedy
    choice per element, minimizing the exponential moment potential
    sum_i cosh(t * sigma_i) * cosh(t)^rho_i scaled by exp(-t * lambda).
    """
    universe = _sorted_universe(sets)
    signs = {e: 1 for e in universe}
    m = len(sets)
    if m == 0 or not universe:
        return signs
    b = max((len(set(s)) for s in sets), default=0)
    if b == 0:
        return signs
    t = math.sqrt(math.log(2 * m) / b)
    lam = 2.0 * math.sqrt(b * math.log(2 * m))
    scale = math.exp(-t * lam)
    cosh_t = math.cosh(t)
    e_plus = math.exp(t)
    e_minus = math.exp(-t)

    member_sets: dict = {e: [] for e in universe}
    plus_term = []
    minus_term = []
    for i, s in enumerate(sets):
        elems = set(s)
        for e in elems:
            member_sets[e].append(i)
        plus_term.append(scale * cosh_t ** len(elems))
        minus_term.append(scale * cosh_t ** len(elems))

    for e in universe:
        gain_plus = 0.0
        gain_minus = 0.0
        for i in member_sets[e]:
            # new terms if rho decreases and sigma moves by +/- 1
            p_up = plus_term[i] * e_plus / cosh_t
            p_dn = plus_term[i] * e_minus / cosh_t
            m_up = minus_term[i] * e_minus / cosh_t
            m_dn = minus_term[i] * e_plus / cosh_t
            gain_plus += p_up + m_up
            gain_minus += p_dn + m_dn
        sign = 1 if gain_plus <= gain_minus else -1
        signs[e] = sign
        for i in member_sets[e]:
            if sign == 1:
                plus_term[i] *= e_plus / cosh_t
                minus_term[i] *= e_minus / cosh_t
            else:
                plus_term[i] *= e_minus / cosh_t
                minus_term[i] *= e_plus / cosh_t
    return signs


def balls_and_bins_bound(num_sets: int, beta: int) -> int:
    """Largest per-(set, color) intersection ``det_balls_and_bins`` allows."""
    return max(1, math.ceil(beta * math.log2(max(2, 2 * num_sets))))


def det_balls_and_bins(sets: list, num_colors: int, beta: int = 12) -> dict:
    """Color the universe so every set meets every color class in few points.

    ``num_colors`` is rounded down to a power of two and the classes are
    produced by repeated halving with ``det_set_balancing``.  Requires
    |S_i| <= num_colors * log2(2m); guarantees (and checks, raising
    ``ColoringError`` otherwise) that every set meets every color class in
    at most beta * log2(2m) elements.
    """
    if num_colors < 1:
        raise ValueError("need at least one color")
    universe = _sorted_universe(sets)
    m = len(sets)
    if m > 0:
        limit = num_colors * math.log2(2 * m)
        for s in sets:
            if len(set(s)) > limit:
                raise ValueError("set larger than num_colors * log2(2m)")
    levels = num_colors.bit_length() - 1  # round colors down to a power of two

    parts: list[list] = [universe]
    for _ in range(levels):
        next_parts: list[list] = []
        for part in parts:
            part_set = set(part)
            restricted = [part_set & set(s) for s in sets]
            signs = det_set_balancing(restricted)
            plus = [e for e in part if signs.get(e, 1) == 1]
            minus = [e for e in part if signs.get(e, 1) == -1]
            next_parts.append(plus)
            next_parts.append(minus)
        parts = next_parts

    coloring = {}
    for color, part in enumerate(parts):
        for e in part:
            coloring[e] = color

    bound = balls_and_bins_bound(m, beta)
    for s in sets:
        per_color: dict[int, int] = {}
        for e in set(s):
            c = coloring[e]
            per_color[c] = per_color.get(c, 0) + 1
            if per_color[c] > bound:
                raise ColoringError(
                    f"balls-and-bins bound {bound} exceeded for color {c}"
                )
    return coloring


def is_isolated(s, coloring: dict) -> bool:
    elems = set(s)
    return len({coloring[e] for e in elems}) == len(elems)


def det_isolating_colorings(sets: list, size_bound: int) -> list[dict]:
    """Colorings into size_bound^2 colors, jointly isolating every set.

    Every set must have at most ``size_bound`` elements.  Each round colors
    the universe greedily, keeping the expected number of still-colliding
    sets below half by the collision estimator
    p(x) = (2x(s - x) + (s - x)(s - x - 1)) / (2 b^2)  (exact integers,
    scaled by 2 b^2), so at most log2(2m) rounds are needed; the list is as
    short as the inputs allow.  Copies of one set share every step of a
    round, so each distinct set is tracked once and its penalty counts once
    per copy: the estimator sums, and so the colorings, are those of the
    full list, and m (with the round cap) counts every copy.
    """
    m = len(sets)
    copies = Counter(map(frozenset, sets))
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
