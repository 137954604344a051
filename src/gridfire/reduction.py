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

from .budget import Budget
from .engine import FireState, run
from .grid import Point, Topology, is_even_point, skew_map
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
    source_radius: int
    trace: RunTrace
    controlled: bool
    control_round: int | None
    placements_all_even: bool
    ignition_parity_ok: bool


@dataclass
class ReductionReport:
    strong_trace: RunTrace
    strong_controlled: bool
    strong_control_round: int | None
    outcomes: list[ReductionOutcome]

    def contained(self) -> list[ReductionOutcome]:
        return [o for o in self.outcomes if o.controlled]


def audit_parity(trace: RunTrace) -> tuple[bool, bool]:
    """(all placements even, ignition parity alternates odd/even with the round)."""
    placements_even = all(is_even_point(p) for rec in trace.rounds for p in rec.placed)
    parity_ok = all(
        is_even_point(q) == (rec.t % 2 == 0) for rec in trace.rounds for q in rec.ignited
    )
    return placements_even, parity_ok


def run_reduction(
    strong_strategy,
    strong_budget: Budget,
    strong_radius: int,
    horizon: int,
) -> ReductionReport:
    """Simulate the strong game, derive the Cartesian strategy, and run both.

    The Cartesian source is tried at twice the strong radius, then at the
    strong radius itself; the report records which of them end up contained.
    """
    strong_initial = FireState.source(Topology.STRONG, strong_radius)
    strong_trace = run(strong_initial, strong_budget, strong_strategy, horizon)
    g = reduced_budget(strong_budget)
    outcomes = []
    for rho in (2 * strong_radius, strong_radius):
        cart_initial = FireState.source(Topology.CARTESIAN, rho)
        cart_trace = run(
            cart_initial, g, reduced_strategy(strong_trace), 2 * horizon + 2
        )
        placements_even, parity_ok = audit_parity(cart_trace)
        outcomes.append(
            ReductionOutcome(
                source_radius=rho,
                trace=cart_trace,
                controlled=cart_trace.status == "controlled",
                control_round=cart_trace.control_round,
                placements_all_even=placements_even,
                ignition_parity_ok=parity_ok,
            )
        )
    return ReductionReport(
        strong_trace=strong_trace,
        strong_controlled=strong_trace.status == "controlled",
        strong_control_round=strong_trace.control_round,
        outcomes=outcomes,
    )
