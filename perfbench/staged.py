"""Traced re-run of each call kind, stage by stage, from the public functions.

Spans are recorded around the calls into each module; nothing inside the
package is instrumented.  ``run_staged`` follows ``solve_fast`` step for
step (normalize, break_ties, greedy_split, the three partitions, stage one,
stage two, and the capacity-DP check for ``verify``), so its answer must
equal ``solve_fast``'s on the same instance; the caller checks that.

Counters are computed from the structures the stages return, outside any
span.  Those marked deterministic depend only on the instance, so two
traced passes must give the same values.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from knapsolve import (
    SolverConfig,
    Stats,
    break_ties,
    greedy_split,
    normalize,
    phase_schedule,
    rank_partition,
    recover_profit,
    solve_bellman,
    solve_proximity_smawk,
    weight_partition,
)
from knapsolve.core import INT32_VALUE_CAP, INT64_VALUE_CAP
from knapsolve.solver import first_stage_dense, first_stage_hinted, second_stage

# Layer spans and the metric each one's self time feeds.
SPAN_METRICS = {
    "core.normalize": "core.normalize_s",
    "core.break_ties": "core.break_ties_s",
    "core.greedy_split": "core.greedy_split_s",
    "partition.weight_partition": "partition.s",
    "partition.phase_schedule": "partition.s",
    "partition.rank_partition": "partition.s",
    "solver.first_stage_dense": "solver.stage1_s",
    "solver.second_stage": "solver.stage2_s",
    "solver.first_stage_hinted": "hinted.stage1_s",
    "solver.solve_proximity_smawk": "solver.proximity_s",
    "baselines.solve_bellman": "baselines.bellman_s",
}

# Counters summed over a pass; all of them repeat exactly for one instance.
DETERMINISTIC = (
    "partition.layers",
    "partition.inner_weights",
    "partition.phases",
    "solver.stage1_passes",
    "solver.stage1_cells_bound",
    "solver.stage2_passes",
    "solver.proximity_cells",
    "baselines.bellman_cells",
    "hinted.matrix_evals",
    "hinted.ap_count",
    "hinted.bucket_inserts",
    "core.items",
)
# Counters that take the largest value over a pass.
PEAKS = ("solver.peak_table_cells", "solver.cell_bytes", "solver.table_bytes")


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index, call id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.call_id = ""

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.call_id])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter_ns()
            self._open.pop()

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def new_counters() -> dict:
    return {name: 0 for name in DETERMINISTIC + PEAKS}


def _cell_width(total_profit: int) -> tuple:
    """(dtype, bytes per cell) by the rule the dense engine uses."""
    if total_profit > INT64_VALUE_CAP:
        return object, 8  # object cells: one pointer each, ints boxed apart
    if total_profit <= INT32_VALUE_CAP:
        return np.int32, 4
    return np.int64, 8


def run_staged(kind: str, items, capacity: int, tr: Tracer, counters: dict) -> int:
    """Answer one call through traced stages inside one "call" span.

    Counters accumulate in ``counters``; the work of computing them is done
    outside the call span, so it counts neither as solve time nor as time
    uncovered by layer spans.
    """
    stages = None
    with tr.span("call"):
        if kind == "proximity":
            with tr.span("solver.solve_proximity_smawk"):
                answer = solve_proximity_smawk(items, capacity)
        else:
            config = SolverConfig(engine="hinted" if kind == "hinted" else "auto")
            answer, stages = _staged_fast(items, capacity, config, tr)
        if kind == "fast-verify":
            with tr.span("baselines.solve_bellman"):
                ref = solve_bellman(items, capacity, cell_budget=config.verify_cell_budget)
    if kind == "proximity":
        _count_proximity(items, capacity, counters)
    elif stages is not None:
        _count_stages(stages, counters)
    if kind == "fast-verify":
        counters["baselines.bellman_cells"] += _bellman_cells(items, capacity)
        if ref != answer:
            raise RuntimeError(f"staged answer {answer} != capacity DP {ref}")
    return answer


def _bellman_cells(items, capacity: int) -> int:
    inst = normalize(items, capacity)
    return 0 if inst.all_fit else inst.n * (inst.capacity + 1)


def _staged_fast(items, capacity, config: SolverConfig, tr: Tracer):
    """``solve_fast`` stage by stage; returns (answer, stage outputs or None)."""
    with tr.span("core.normalize"):
        inst = normalize(items, capacity)
    if inst.all_fit:
        return inst.total_profit, None
    if inst.w_max > inst.n * inst.n:
        raise RuntimeError("capacity-DP fallback is not staged; use smaller weights")
    with tr.span("core.break_ties"):
        primed = break_ties(inst)
    with tr.span("core.greedy_split"):
        split = greedy_split(primed)
    with tr.span("partition.weight_partition"):
        wpart = weight_partition(primed, split, config.constant)
    with tr.span("partition.phase_schedule"):
        schedule = phase_schedule(primed.w_max, config.constant, len(wpart.innermost))
    with tr.span("partition.rank_partition"):
        rank_part = rank_partition(primed, split, wpart.innermost)
    stats = Stats()
    if config.resolved_engine() == "hinted":
        with tr.span("solver.first_stage_hinted"):
            table = first_stage_hinted(
                primed, rank_part, schedule, config, wpart.innermost, stats
            )
        profits = [it.profit for it in primed.items]
        with tr.span("solver.second_stage"):
            total = second_stage(
                table, primed, split, schedule, wpart.layers, config,
                profits, split.greedy_profit, stats,
            )
        answer = recover_profit(total, primed.tie_break_m, primed.w_max)
        cell_bytes = 8  # object cells
    else:
        profits = [it.profit for it in inst.items]
        dtype, cell_bytes = _cell_width(sum(profits))
        base = sum(p for i, p in enumerate(profits) if split.in_greedy[i])
        with tr.span("solver.first_stage_dense"):
            eng = first_stage_dense(profits, rank_part, schedule, stats, dtype)
        with tr.span("solver.second_stage"):
            answer = second_stage(
                eng, primed, split, schedule, wpart.layers, config, profits, base, stats
            )
    stages = {
        "n": inst.n, "split": split, "wpart": wpart, "schedule": schedule,
        "rank_part": rank_part, "stats": stats, "cell_bytes": cell_bytes,
        "dense": config.resolved_engine() == "dense",
    }
    return answer, stages


def _count_stages(st: dict, counters: dict) -> None:
    split, wpart, schedule, stats = st["split"], st["wpart"], st["schedule"], st["stats"]
    counters["core.items"] += st["n"]
    counters["partition.layers"] += wpart.layer_count
    counters["partition.inner_weights"] += len(wpart.innermost)
    counters["partition.phases"] += schedule.phase_count
    counters["solver.stage2_passes"] += sum(
        len(split.add_candidates.get(w, [])) + len(split.remove_candidates.get(w, []))
        for layer in wpart.layers[1:]
        for w in layer
    )
    if st["dense"]:
        passes, cells = _stage_one_work(st["rank_part"], schedule)
        counters["solver.stage1_passes"] += passes
        counters["solver.stage1_cells_bound"] += cells
    else:
        counters["hinted.matrix_evals"] += stats.extend.matrix_evals
        counters["hinted.ap_count"] += stats.extend.ap_count
        counters["hinted.bucket_inserts"] += stats.extend.bucket_inserts
    cells, cell_bytes = stats.peak_table_cells, st["cell_bytes"]
    if cells * cell_bytes > counters["solver.table_bytes"]:
        counters["solver.table_bytes"] = cells * cell_bytes
        counters["solver.cell_bytes"] = cell_bytes
    counters["solver.peak_table_cells"] = max(counters["solver.peak_table_cells"], cells)


def _stage_one_work(rank_part, schedule) -> tuple[int, int]:
    """Shift passes of stage one, and passes times the scheduled table size.

    One pass per item of each rank group; the cell figure is computed from
    the schedule, an upper bound on cells the fold touches (it folds only
    the live span of each table).
    """
    passes = cells = 0
    for j in range(1, schedule.phase_count + 1):
        n_j = sum(
            len(g)
            for d in (+1, -1)
            for g in rank_part.phase_items(d, j).values()
        )
        passes += n_j
        cells += n_j * (2 * schedule.table_half_sizes[j] + 1)
    return passes, cells


def _count_proximity(items, capacity: int, counters: dict) -> None:
    """One pass per candidate over the fixed 4 w^2 + 1 cell table."""
    inst = normalize(items, capacity)
    if inst.all_fit:
        return
    split = greedy_split(break_ties(inst))
    passes = sum(len(c) for c in split.add_candidates.values())
    passes += sum(len(c) for c in split.remove_candidates.values())
    counters["solver.proximity_cells"] += passes * (4 * inst.w_max * inst.w_max + 1)
