"""Four-phase wall containment for strong-grid fires.

The plan boxes in a fire that starts as the axes-parallel square of radius r.
Its targets are the boundary of one box. On the strong grid the unchecked fire
is the L-infinity ball of radius r + t at round t, so one rule gives every wall
cell its deadline: a cell is due by the round in which the free fire would
burn it, its L-infinity distance from the origin less r. The cells are listed
in build order (the north row from the centre outward, the east and west
columns top-down, the south row west to east) and sorted stably by deadline.
An earliest-deadline-first scheduler then spends each round's squad on the
most urgent unbuilt cells, pre-building later walls with any surplus.

Geometry, for parameters m >= 1 and r >= 1 (a straight side's wall falls due
all at once, at the deadline of its nearest cell):

* north wall on row 3r, due at round 2r;
* east wall on column 6rm+r+1, due at round 6rm+1;
* west wall on column -(6rm^2+10rm+r+m+1), due at round
  6rm^2+10rm+m+1 -- the extra m+1 columns of clearance are what makes the
  east-west guard traffic plus the wall lump affordable exactly when the
  budget supplies 3t+ceil(t/m) by round t;
* south wall on row 1-(12rm^2+30rm), due at round 12rm^2+30rm-r-1,
  which bounds the control round.

The flanks need no rule of their own: the north row's cells beyond the north
wall, and each column's cells below its wall, fall due one per round as the
fire's corner passes them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

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
    tasks: tuple[WallTask, ...]  # by deadline, then in build order

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
    # The box's boundary in build order: the north row from the centre
    # outward, east of a pair first, so every cell touches an earlier one;
    # the east and west columns top-down; the south row west to east.
    cells = [(x, n) for x in sorted(range(w, e + 1), key=lambda x: (abs(x), -x))]
    cells += [(x, y) for x in (e, w) for y in range(n - 1, s, -1)]
    cells += [(x, s) for x in range(w, e + 1)]
    # A cell is due by the round in which the free fire would burn it.
    # Earliest deadline first; the stable sort keeps build order among equal
    # deadlines, which share a phase.
    timed = sorted(((max(abs(x), abs(y)) - r, (x, y)) for x, y in cells),
                   key=lambda entry: entry[0])
    return WallPlan(
        m=m,
        r=r,
        phase_ends=phase_ends,
        # A task's phase is the first whose end is at or after its deadline.
        tasks=tuple(
            WallTask(target=p, deadline=d, phase=bisect_left(phase_ends, d) + 1)
            for d, p in timed
        ),
    )


def schedule_is_feasible(plan: WallPlan, budget: Budget) -> tuple[bool, int | None]:
    """Hall's check: demand by each deadline never exceeds the cumulative supply.

    Returns (ok, first round at which demand outstrips supply).
    """
    demand = 0
    for d, due in groupby(plan.tasks, key=attrgetter("deadline")):
        demand += sum(1 for _ in due)
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
        squad = tasks[self._next:self._next + available]
        self._next += len(squad)
        if self._next < len(tasks) and tasks[self._next].deadline <= t:
            missed = tasks[self._next]
            raise StrategyError(
                f"wall cell {missed.target} (phase {missed.phase}) cannot be "
                f"protected by its deadline {missed.deadline}; the budget is "
                "too thin for this plan"
            )
        return [task.target for task in squad]
