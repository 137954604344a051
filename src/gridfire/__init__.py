"""Firefighter-problem simulation and verification toolkit for planar grids."""

from .budget import Budget, constant, containment_budget, parse_budget, periodic
from .engine import (
    FireState,
    PlacementError,
    SimulationError,
    StrategyError,
    endangered,
    is_controlled,
    replay_validate,
    run,
    step,
)
from .grid import Point, Topology, ball, is_even_point, neighbors, skew_map
from .monitor import check_invariants, front_offsets, potentials
from .reduction import reduced_budget, run_reduction
from .search import SearchConfig, SearchResult, exhaustive_search, min_burnt_search
from .strategies import (
    GreedyNearest,
    NullStrategy,
    RandomStrategy,
    ReplayStrategy,
    parse_strategy,
)
from .trace import MalformedTraceError, RunTrace
from .wallplan import ContainmentStrategy, wall_plan

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "ContainmentStrategy",
    "FireState",
    "GreedyNearest",
    "MalformedTraceError",
    "NullStrategy",
    "PlacementError",
    "Point",
    "RandomStrategy",
    "ReplayStrategy",
    "RunTrace",
    "SearchConfig",
    "SearchResult",
    "SimulationError",
    "StrategyError",
    "Topology",
    "ball",
    "check_invariants",
    "constant",
    "containment_budget",
    "endangered",
    "exhaustive_search",
    "front_offsets",
    "is_controlled",
    "is_even_point",
    "min_burnt_search",
    "neighbors",
    "parse_budget",
    "parse_strategy",
    "periodic",
    "potentials",
    "reduced_budget",
    "replay_validate",
    "run",
    "run_reduction",
    "skew_map",
    "step",
    "wall_plan",
]
