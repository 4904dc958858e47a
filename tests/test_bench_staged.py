"""The benchmark's staged re-run of each call kind must answer as the solver does.

``perfbench/staged.py`` rebuilds ``solve_fast`` and the oracles from the
public stage functions; a change to those functions' signatures or results
would otherwise show only as missing layer numbers in a full benchmark run.
"""

import sys
from pathlib import Path

import pytest

from knapsolve import generate_instance

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import staged  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("kind", ["fast", "fast-verify", "proximity", "hinted"])
@pytest.mark.parametrize("family", ["uniform", "hard-equal-weights"])
def test_staged_answer_matches_solver(kind, family):
    for seed, p_max in ((1, 32), (2, 10**6)):
        items, capacity = generate_instance(48, 8, p_max, 0.5, seed, family)
        counters = staged.new_counters()
        got = staged.run_staged(kind, items, capacity, staged.Tracer(), counters)
        assert got == workloads.solver_for(kind)(items, capacity)
        assert any(counters.values())
