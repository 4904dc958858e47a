"""The package's public surface: every exported name resolves, nothing else lingers."""

import dataclasses
import inspect

import knapsolve
import knapsolve.colorings
import knapsolve.core
import knapsolve.hinted
import knapsolve.smawk


def defined_in(module):
    """Public functions and classes a module defines itself."""
    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }


def test_every_exported_name_resolves():
    assert len(set(knapsolve.__all__)) == len(knapsolve.__all__)
    for name in knapsolve.__all__:
        assert hasattr(knapsolve, name), name


def test_no_public_name_outside_all():
    # a retired name left imported in the package would show up here
    public = {
        name
        for name, obj in vars(knapsolve).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert public == set(knapsolve.__all__)


def test_modules_define_only_the_live_building_blocks():
    assert defined_in(knapsolve.smawk) == {"row_maxima"}
    assert defined_in(knapsolve.core) == {
        "FoldCells",
        "GreedySplit",
        "Instance",
        "Item",
        "LazyCore",
        "break_ties",
        "cell_dtype",
        "fold_cells",
        "greedy_split",
        "is_bottom",
        "normalize",
        "recover_profit",
    }
    assert defined_in(knapsolve.hinted) == {
        "ConcaveProfitFn",
        "ExtendStats",
        "HintedExtendInstance",
        "HintedExtendSolution",
        "apply_update",
        "compose",
        "entrywise_max_solutions",
        "relaxed_check",
        "restrict",
        "solve",
        "solve_singleton",
        "solve_small_b",
        "trivial_solution",
    }
    assert defined_in(knapsolve.colorings) == {
        "ColoringError",
        "balls_and_bins_bound",
        "det_balls_and_bins",
        "det_isolating_colorings",
        "det_set_balancing",
        "is_isolated",
    }


def test_colorings_take_no_defaulted_parameter():
    # each coloring takes one multiset of sets and its one size argument; a
    # retired knob (m, beta) coming back as a default fails here
    for coloring in (
        knapsolve.colorings.det_set_balancing,
        knapsolve.colorings.det_balls_and_bins,
        knapsolve.colorings.det_isolating_colorings,
    ):
        params = inspect.signature(coloring).parameters.values()
        assert all(p.default is p.empty for p in params), coloring


def field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def test_config_and_stats_fields_are_pinned():
    # a new knob or counter, or a retired one left behind, fails here
    assert field_names(knapsolve.SolverConfig) == [
        "engine",
        "verify",
        "verify_cell_budget",
    ]
    assert field_names(knapsolve.Stats) == [
        "peak_table_cells",
        "cell_bytes",
        "fold_passes",
        "engine",
        "extend",
        "best_index",
        "cells_pruned",
        "core_sorted",
    ]


def test_hint_table_fields_are_pinned():
    # the sparse tables hold their finite entries as arrays, one code per
    # entry into the table's distinct hint sets or witness count rows, and
    # no per-slot list or counter field: a dropped one coming back fails here
    assert field_names(knapsolve.hinted.HintedExtendInstance) == [
        "half_size",
        "universe",
        "keys",
        "values",
        "sets",
        "codes",
        "fns",
    ]
    assert field_names(knapsolve.hinted.HintedExtendSolution) == [
        "half_size",
        "keys",
        "values",
        "bases",
        "counts",
        "codes",
    ]
