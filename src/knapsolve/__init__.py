"""0-1 knapsack solvers parameterized by the largest item weight.

Public surface: ``solve_fast`` (the structured exchange solver),
``solve_bellman`` and ``solve_exhaustive`` (references), and
``solve_proximity_smawk`` (the simpler quadratic-table variant), plus the
instance generator, the preprocessing and partition stages for callers who
want to drive the pipeline directly, and ``row_maxima``, the SMAWK row-maxima
routine the hint-propagating engine runs on.
"""

from .baselines import BudgetExceededError, solve_bellman, solve_exhaustive
from .core import (
    BOTTOM,
    Instance,
    Item,
    break_ties,
    greedy_split,
    is_bottom,
    normalize,
    recover_profit,
)
from .gen import SplitMix64, generate_instance
from .partition import phase_schedule, rank_partition, weight_partition
from .smawk import row_maxima
from .solver import (
    SolverConfig,
    Stats,
    VerificationError,
    solve_fast,
    solve_proximity_smawk,
)

__version__ = "0.1.0"

__all__ = [
    "BOTTOM",
    "BudgetExceededError",
    "Instance",
    "Item",
    "SolverConfig",
    "SplitMix64",
    "Stats",
    "VerificationError",
    "break_ties",
    "generate_instance",
    "greedy_split",
    "is_bottom",
    "normalize",
    "phase_schedule",
    "rank_partition",
    "recover_profit",
    "row_maxima",
    "solve_bellman",
    "solve_exhaustive",
    "solve_fast",
    "solve_proximity_smawk",
    "weight_partition",
]
