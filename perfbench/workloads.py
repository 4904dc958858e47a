"""Workload definitions: which solver calls a pass makes, on which instances.

Every instance comes from ``knapsolve.generate_instance`` with a seed derived
from the benchmark's ``--seed``, the workload name and the call's position,
so one seed always gives the same inputs.  Capacities are half the total
weight (``t_frac = 0.5``) throughout.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

from knapsolve import (
    SolverConfig,
    SplitMix64,
    generate_instance,
    solve_fast,
    solve_proximity_smawk,
)

FAMILIES = ("uniform", "clustered", "hard-equal-weights")
T_FRAC = 0.5

# Call kinds, each one public entry point of the package:
#   fast         solve_fast(items, t)                      dense engine
#   fast-verify  solve_fast(items, t, verify=True)         dense + capacity DP
#   proximity    solve_proximity_smawk(items, t)           flat 2w^2 fold
#   hinted       solve_fast(items, t, engine="hinted")     hint-set engine


@dataclass(frozen=True)
class Spec:
    kind: str
    n: int
    w_max: int
    p_max: int
    family: str


@dataclass
class Call:
    index: int
    spec: Spec
    items: list
    capacity: int

    @property
    def label(self) -> str:
        s = self.spec
        return f"{self.index}:{s.kind}:{s.family}:n={s.n}:w={s.w_max}:pmax={s.p_max}"


def _specs(kind, n, w_max, p_max, families=FAMILIES):
    return [Spec(kind, n, w_max, p_max, fam) for fam in families]


# The hinted engine skips `clustered`: at w = 32 those instances have about
# five distinct weights, and their hinted time swings from 0.2 to 1.4 s with
# the seed, which alone moves the `oracles` pass by +-7%.
HINTED_FAMILIES = ("uniform", "hard-equal-weights")


# Full sizes, and the reduced sizes the benchmark's own test runs.
WORKLOADS = {
    "wide-w": {
        "full": _specs("fast", 4096, 1024, 32),
        "smoke": _specs("fast", 256, 64, 32),
    },
    "many-items": {
        "full": _specs("fast", 1 << 17, 64, 32),
        "smoke": _specs("fast", 4096, 16, 32),
    },
    "oracles": {
        "full": _specs("fast-verify", 1280, 320, 32)
        + _specs("fast-verify", 1280, 320, 10**6)
        + _specs("proximity", 2048, 512, 32)
        + _specs("hinted", 128, 32, 32, HINTED_FAMILIES),
        "smoke": _specs("fast-verify", 128, 32, 32)
        + _specs("fast-verify", 128, 32, 10**6)
        + _specs("proximity", 128, 32, 32)
        + _specs("hinted", 32, 8, 32, HINTED_FAMILIES),
    },
}

# Warm-up instances: tiny, but they go through every code path of a kind.
WARMUP = Spec("fast", 64, 8, 32, "uniform")


def instance_seed(seed: int, workload: str, index: int) -> int:
    key = (seed << 40) ^ (zlib.crc32(workload.encode()) << 8) ^ index
    return SplitMix64(key).next_u64()


def build(workload: str, seed: int, size: str = "full"):
    """Generate the workload's calls; returns (calls, generation seconds)."""
    calls = []
    t0 = time.perf_counter()
    for index, spec in enumerate(WORKLOADS[workload][size]):
        items, capacity = generate_instance(
            spec.n, spec.w_max, spec.p_max, T_FRAC,
            instance_seed(seed, workload, index), spec.family,
        )
        calls.append(Call(index, spec, items, capacity))
    return calls, time.perf_counter() - t0


def solver_for(kind: str):
    """The untraced entry point for a call kind: f(items, capacity) -> int."""
    if kind == "fast":
        return solve_fast
    if kind == "fast-verify":
        cfg = SolverConfig(verify=True)
        return lambda items, t: solve_fast(items, t, cfg)
    if kind == "proximity":
        return solve_proximity_smawk
    if kind == "hinted":
        cfg = SolverConfig(engine="hinted")
        return lambda items, t: solve_fast(items, t, cfg)
    raise ValueError(f"unknown call kind {kind!r}")


def runner(workload: str, size: str = "full"):
    """Warm up every call kind the workload uses, once, on a tiny instance.

    Returns run(call) -> answer, with each kind's entry point resolved in
    advance so a timed call makes nothing but the solver call.
    """
    items, capacity = generate_instance(
        WARMUP.n, WARMUP.w_max, WARMUP.p_max, T_FRAC, 1, WARMUP.family
    )
    solvers = {s.kind: solver_for(s.kind) for s in WORKLOADS[workload][size]}
    for kind in sorted(solvers):
        solvers[kind](items, capacity)
    return lambda call: solvers[call.spec.kind](call.items, call.capacity)
