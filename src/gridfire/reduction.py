"""Turning a strong-grid strategy into a Cartesian-grid strategy.

Each strong round k is stretched over two Cartesian rounds: the squad is split
into a floor(f(k)/2) part played at round 2k-1 and the rest at round 2k, and
every placement is pushed through the map (x, y) -> (x+y, x-y), which lands on
points of even coordinate sum. On the bipartite Cartesian grid, a fire whose
boundary starts even then alternates strictly between odd and even ignitions,
and the even half of the game replays the strong-grid game move for move.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, mod

from .budget import Budget
from .engine import FireState, run
from .grid import Point, Topology, columns, skew_map
from .strategies import ScriptedStrategy
from .trace import RunTrace


def reduced_budget(strong: Budget) -> Budget:
    """The halved, interleaved supply: g(2k-1) = floor(f(k)/2), g(2k) = ceil(f(k)/2)."""

    def split(values: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(h for v in values for h in (v // 2, v - v // 2))

    return Budget(prefix=split(strong.prefix), cycle=split(strong.cycle))


def reduced_strategy(strong_trace: RunTrace) -> ScriptedStrategy:
    """Plays a pre-simulated strong-grid run onto the Cartesian grid."""
    by_round: dict[int, list[Point]] = {}
    for rec in strong_trace.rounds:
        half = rec.f // 2
        first = [skew_map(p) for p in rec.placed[:half]]
        rest = [skew_map(p) for p in rec.placed[half:]]
        if first:
            by_round[2 * rec.t - 1] = first
        if rest:
            by_round[2 * rec.t] = rest
    return ScriptedStrategy(f"reduced({strong_trace.strategy_id})", by_round)


@dataclass
class ReductionOutcome:
    """One Cartesian game of the reduction; every fact is read off its trace."""

    source_radius: int
    trace: RunTrace

    @property
    def controlled(self) -> bool:
        return self.trace.status == "controlled"

    @property
    def control_round(self) -> int | None:
        return self.trace.control_round

    @property
    def placements_all_even(self) -> bool:
        return all(_parities(rec.placed) <= {0} for rec in self.trace.rounds)

    @property
    def ignition_parity_ok(self) -> bool:
        """Ignitions alternate odd/even with the round: even exactly on even rounds."""
        return all(_parities(rec.ignited) <= {rec.t % 2} for rec in self.trace.rounds)


def _parities(points: tuple[Point, ...]) -> set[int]:
    """The coordinate-sum parities, 0 for even, that occur among ``points``,
    found with C-level ``map``s rather than a Python call per point."""
    xs, ys = columns(points)
    return set(map(mod, map(add, xs, ys), repeat(2)))


@dataclass
class ReductionReport:
    """The strong game and its Cartesian images, doubled source radius first."""

    strong_trace: RunTrace
    outcomes: list[ReductionOutcome]

    @property
    def strong_controlled(self) -> bool:
        return self.strong_trace.status == "controlled"

    @property
    def strong_control_round(self) -> int | None:
        return self.strong_trace.control_round

    def contained(self) -> list[ReductionOutcome]:
        return [o for o in self.outcomes if o.controlled]

    @property
    def ok(self) -> bool:
        """The reduction holds: the strong side is controlled, and the doubled
        source is controlled, with even placements and clean parity, within
        twice the strong time on the analysis clock (round + 1)."""
        doubled = self.outcomes[0]
        return (self.strong_controlled and doubled.controlled
                and doubled.control_round + 1 <= 2 * (self.strong_control_round + 1)
                and doubled.placements_all_even and doubled.ignition_parity_ok)


def run_reduction(strong_strategy, strong_budget: Budget, strong_radius: int,
                  horizon: int) -> ReductionReport:
    """Simulate the strong game, derive the Cartesian strategy, and run both.

    The Cartesian source is tried at twice the strong radius, then at the
    strong radius itself.
    """
    strong_trace = run(FireState.source(Topology.STRONG, strong_radius),
                       strong_budget, strong_strategy, horizon)
    g = reduced_budget(strong_budget)
    return ReductionReport(strong_trace, [
        ReductionOutcome(rho, run(FireState.source(Topology.CARTESIAN, rho), g,
                                  reduced_strategy(strong_trace), 2 * horizon + 2))
        for rho in (2 * strong_radius, strong_radius)
    ])
