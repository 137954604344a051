"""Four-phase wall containment for strong-grid fires.

The plan boxes in a fire that starts as the axes-parallel square of radius r,
building four straight walls in the order north, east, west, south. Each wall
cell carries a deadline: the last round by which it must be protected, derived
from when the advancing fire first comes within reach (distance 1) of it. An
earliest-deadline-first scheduler then spends each round's squad on the most
urgent unbuilt cells, pre-building future walls with any surplus.

Geometry, for parameters m >= 1 and r >= 1 (fire speed is one ring per round,
so a side's whole wall becomes reachable in a single round once the fire closes
in):

* north wall on row 3r, first reached at round 2r;
* east wall on column 6rm+r+1, first reached at round 6rm+1;
* west wall on column -(6rm^2+10rm+r+m+1), first reached at round
  6rm^2+10rm+m+1 -- the extra m+1 columns of clearance are what makes the
  east-west guard traffic plus the wall lump affordable exactly when the
  budget supplies 3t+ceil(t/m) by round t;
* south wall on row 1-(12rm^2+30rm), first reached at round 12rm^2+30rm-r-1,
  which bounds the control round.

While a side is still open, its flanks are guarded one cell per round: the
north row grows east/west just ahead of the fire, and once a vertical wall
stands, its south end is extended downward ahead of the fire's corner.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .budget import Budget
from .engine import FireState, SimView, StrategyError
from .grid import Point, Topology


@dataclass(frozen=True)
class WallTask:
    target: Point
    deadline: int  # last round by which the target must be protected
    phase: int  # 1..4, by which nominal phase window the deadline falls in


@dataclass(frozen=True)
class WallPlan:
    m: int
    r: int
    phase_ends: tuple[int, int, int, int]
    tasks: tuple[WallTask, ...]  # by deadline, then in wall order

    @property
    def round_bound(self) -> int:
        """12rm^2 + 30rm: the plan controls the fire by this round."""
        return self.phase_ends[-1]

    @property
    def width_bound(self) -> int:
        """6rm^2 + 16rm + 2r: the final fire width the plan is held to."""
        m, r = self.m, self.r
        return 6 * r * m * m + 16 * r * m + 2 * r

    @property
    def height_bound(self) -> int:
        """12rm^2 + 30rm + 3r - 1: the final fire height the plan is held to."""
        return self.round_bound + 3 * self.r - 1

    @property
    def horizon(self) -> int:
        """Rounds to simulate: the control bound plus five rounds of slack."""
        return self.round_bound + 5


def wall_plan(m: int, r: int) -> WallPlan:
    """Emit the complete deadline-annotated target list for parameters (m, r)."""
    if m < 1 or r < 1:
        raise ValueError("m and r must be positive")
    phase_ends = (2 * r, 6 * r * m + 1, 6 * r * m * m + 10 * r * m,
                  12 * r * m * m + 30 * r * m)
    n = 3 * r
    e = 6 * r * m + r + 1
    w = -(6 * r * m * m + 10 * r * m + r + m + 1)
    s = 1 - phase_ends[-1]
    t_north = 2 * r
    t_east = e - r
    t_west = -r - w
    t_south = -r - s

    raw: list[tuple[Point, int]] = []
    # North wall, centre outward so every cell touches an earlier one.
    raw.append(((0, n), t_north))
    for k in range(1, n + 1):
        raw.append(((k, n), t_north))
        raw.append(((-k, n), t_north))
    # North row grows east until it meets the east wall's column...
    for x in range(n + 1, e + 1):
        raw.append(((x, n), x - r))
    # ...and west until it tops the (farther) west wall.
    for x in range(-n - 1, w - 1, -1):
        raw.append(((x, n), -r - x))
    # East wall, top-down; the bottom cell sits one below the fire's reach at
    # arrival, guarding the diagonal around the corner.
    for y in range(n - 1, -r - t_east - 1, -1):
        raw.append(((e, y), t_east))
    # East wall's south end tracks the descending fire corner, one per round.
    for y in range(-r - t_east - 1, s, -1):
        raw.append(((e, y), -r - y))
    # West wall, top-down on arrival; then its own southward guard.
    for y in range(n - 1, w - 1, -1):
        raw.append(((w, y), t_west))
    for y in range(w - 1, s, -1):
        raw.append(((w, y), -r - y))
    # South wall, west to east, meeting both vertical walls at the corners.
    for x in range(w, e + 1):
        raw.append(((x, s), t_south))

    # Earliest deadline first; the stable sort keeps wall contiguity among
    # equal deadlines, which share a phase.
    raw.sort(key=lambda entry: entry[1])
    return WallPlan(
        m=m,
        r=r,
        phase_ends=phase_ends,
        # A task's phase is the first whose end is at or after its deadline.
        tasks=tuple(
            WallTask(target=p, deadline=d, phase=bisect_left(phase_ends, d) + 1)
            for p, d in raw
        ),
    )


def schedule_is_feasible(plan: WallPlan, budget: Budget) -> tuple[bool, int | None]:
    """Hall's check: demand by each deadline never exceeds the cumulative supply.

    Returns (ok, first round at which demand outstrips supply).
    """
    demand = 0
    i = 0
    tasks = plan.tasks
    while i < len(tasks):
        d = tasks[i].deadline
        while i < len(tasks) and tasks[i].deadline == d:
            demand += 1
            i += 1
        if demand > budget.cumulative(d):
            return False, d
    return True, None


class ContainmentStrategy:
    """Earliest-deadline-first executor of a wall plan."""

    def __init__(self, plan: WallPlan):
        self.plan = plan
        self.identifier = f"contain:m={plan.m},r={plan.r}"
        self._next = 0

    def reset(self, state: FireState) -> None:
        if state.topology is not Topology.STRONG:
            raise StrategyError("containment walls assume the strong grid")
        if state.burnt != FireState.source(Topology.STRONG, self.plan.r).burnt:
            raise StrategyError(
                f"plan expects the fire to start as the radius-{self.plan.r} "
                "square at the origin"
            )
        self._next = 0

    def next_placements(self, view: SimView, available: int) -> list[Point]:
        t = view.round + 1  # the squad being placed
        tasks = self.plan.tasks
        picked: list[Point] = []
        while len(picked) < available and self._next < len(tasks):
            picked.append(tasks[self._next].target)
            self._next += 1
        if self._next < len(tasks) and tasks[self._next].deadline <= t:
            missed = tasks[self._next]
            raise StrategyError(
                f"wall cell {missed.target} (phase {missed.phase}) cannot be "
                f"protected by its deadline {missed.deadline}; the budget is "
                "too thin for this plan",
                round_no=t,
            )
        return picked


class InsufficientBudgetError(ValueError):
    pass


class InconclusiveScanError(ValueError):
    pass


def plan_parameters(
    source_radius: int, budget: Budget, horizon: int = 10_000
) -> tuple[int, int]:
    """Choose (m, r) for a containment plan from the budget's long-run surplus.

    The cycle average must exceed 3 by some eps; then m = ceil(1/eps), and r
    enlarges the source radius by the first round from which the cumulative
    supply stays at or above (3+eps)t through the scan horizon.
    """
    eps = budget.cycle_average() - 3
    if eps <= 0:
        raise InsufficientBudgetError(
            f"cycle average {budget.cycle_average()} does not exceed 3"
        )
    m = math.ceil(Fraction(1) / eps)
    rate = 3 + eps
    last_violation = 0
    for t in range(1, horizon + 1):
        if budget.cumulative(t) < rate * t:
            last_violation = t
    t0 = last_violation + 1
    if t0 > 1:
        # A violation inside the final cycle recurs forever: no t0 exists.
        if last_violation > horizon - len(budget.cycle):
            raise InconclusiveScanError(
                "supply still dips below the target rate near the scan "
                "horizon; pass an explicit start round"
            )
    return m, source_radius + t0
