"""Wall-plan generation and the containment scheduler."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from gridfire.budget import constant, containment_budget, periodic
from gridfire.engine import FireState, replay_validate, run
from gridfire.grid import Topology, ball, bounding_box
from gridfire.wallplan import (
    ContainmentStrategy,
    _boundary_tasks,
    schedule_is_feasible,
    wall_plan,
)

ALL_CELLS = [(m, r) for m in (1, 2, 3) for r in (1, 2, 3)]
GRID = [(m, r) for m in range(1, 7) for r in range(1, 7)]


def phase_ends(m: int, r: int) -> tuple[int, int, int, int]:
    """The paper's four phase ends: 2r, 6rm + 1, 6rm^2 + 10rm, 12rm^2 + 30rm."""
    return (2 * r, 6 * r * m + 1, 6 * r * m * m + 10 * r * m,
            12 * r * m * m + 30 * r * m)


def plan_box(plan) -> tuple[int, int, int, int]:
    """(west, east, south, north): the box whose boundary the plan walls."""
    return bounding_box(t.target for t in plan.tasks)


def arrivals(plan) -> tuple[int, int, int, int]:
    """The round each wall falls due, north, east, west and south: the
    earliest deadline among the cells of its side of the box."""
    west, east, south, north = plan_box(plan)
    sides = (lambda p: p[1] == north, lambda p: p[0] == east,
             lambda p: p[0] == west, lambda p: p[1] == south)
    return tuple(min(t.deadline for t in plan.tasks if side(t.target)) for side in sides)


def contain_run(m: int, r: int, budget=None, horizon=None):
    plan = wall_plan(m, r)
    budget = budget or containment_budget(m)
    bound = 12 * r * m * m + 30 * r * m
    initial = FireState(
        burnt=ball((0, 0), r, "linf"),
        protected=frozenset(),
        round=0,
        topology=Topology.STRONG,
    )
    return plan, run(initial, budget, ContainmentStrategy(plan), horizon or bound + 5)


def test_phase_boundaries_m1_r1():
    # The paper's phases end at rounds 2, 7, 16 and 42. The north wall falls
    # due at the first end, the east wall at the second, the west wall m + 1
    # rounds after the third, and the south wall r + 1 rounds before the last,
    # which is the plan's round bound.
    plan = wall_plan(1, 1)
    assert phase_ends(1, 1) == (2, 7, 16, 42)
    assert arrivals(plan) == (2, 7, 18, 40)
    assert plan.round_bound == 42


def test_phase_boundaries_formula():
    for m, r in ALL_CELLS:
        plan = wall_plan(m, r)
        ends = phase_ends(m, r)
        assert arrivals(plan) == (ends[0], ends[1], ends[2] + m + 1, ends[3] - r - 1)
        assert (plan.round_bound, plan.width_bound, plan.height_bound, plan.horizon) == (
            12 * r * m * m + 30 * r * m,
            6 * r * m * m + 16 * r * m + 2 * r,
            12 * r * m * m + 30 * r * m + 3 * r - 1,
            12 * r * m * m + 30 * r * m + 5,
        )


def test_northern_wall_m1_r1():
    plan = wall_plan(1, 1)
    north = {t.target for t in plan.tasks if t.deadline <= 2}
    assert north == {(x, 3) for x in range(-3, 4)}
    assert all(t.deadline == 2 for t in plan.tasks if t.target in north)


def test_eastern_wall_column_m2_r1():
    plan = wall_plan(2, 1)
    assert max(task.target[0] for task in plan.tasks) == 14


def test_targets_fit_cumulative_phase_budgets():
    # The cells due by each of the paper's phase ends fit its cumulative
    # budget there; every cell is due by the last end.
    for m, r in ALL_CELLS:
        plan = wall_plan(m, r)
        budgets = (
            6 * r + 1,
            18 * r * m + 6 * r + 4,
            18 * r * m * m + 36 * r * m + 10 * r,
            36 * r * m * m + 102 * r * m + 30 * r,
        )
        for phase, (end, budget) in enumerate(zip(phase_ends(m, r), budgets), 1):
            due = sum(1 for t in plan.tasks if t.deadline <= end)
            assert due <= budget, (m, r, phase)
        assert due == len(plan.tasks), (m, r)


def test_plans_are_pinned():
    # Every task of every plan with m, r <= 6, in order, as its target and
    # deadline: a rewrite of the plan builder must leave these bytes alone.
    digest = hashlib.sha256()
    for m, r in GRID:
        digest.update(repr([(t.target, t.deadline) for t in wall_plan(m, r).tasks]).encode())
    assert digest.hexdigest() == (
        "53c69fcb1ba4382c1221f9c2f923cebbafe0989d5c4c8c8fcb26b34a4bd610b9")


def test_tasks_sorted_and_unique():
    # The targets are the boundary of the plan's box, each listed once, and
    # each is due when the free fire would burn it: at its L-infinity
    # distance from the origin less r.
    for m, r in GRID:
        plan = wall_plan(m, r)
        deadlines = [t.deadline for t in plan.tasks]
        assert deadlines == sorted(deadlines), (m, r)
        assert all(t.deadline == max(map(abs, t.target)) - r for t in plan.tasks), (m, r)
        targets = [t.target for t in plan.tasks]
        assert len(targets) == len(set(targets)), (m, r)
        west, east, south, north = plan_box(plan)
        boundary = {(x, y) for x in range(west, east + 1) for y in (south, north)}
        boundary |= {(x, y) for x in (west, east) for y in range(south, north + 1)}
        assert set(targets) == boundary, (m, r)


def test_schedule_feasible_under_matched_budget():
    for m, r in GRID:
        ok, miss = schedule_is_feasible(wall_plan(m, r), containment_budget(m))
        assert ok, (m, r, miss)


def test_schedule_infeasible_under_constant_three():
    # The north wall arrives at round 2r: 6r + 1 cells are due by then and
    # three a round supply 6r.
    for m, r in GRID:
        assert schedule_is_feasible(wall_plan(m, r), constant(3)) == (False, 2 * r), (m, r)


def test_containment_m1_r1_controls_within_bound():
    _, trace = contain_run(1, 1, budget=constant(4))
    assert trace.status == "controlled"
    assert trace.control_round <= 42


def test_containment_m2_r1_periodic_budget():
    _, trace = contain_run(2, 1, budget=periodic([4, 3]))
    assert trace.status == "controlled"
    assert trace.control_round <= 108


def test_containment_constant_three_misses_deadline():
    # ``run`` names the round once, as the error's prefix.
    _, trace = contain_run(1, 1, budget=constant(3))
    assert trace.status == "strategy-error"
    assert trace.error == (
        "round 2: wall cell (-3, 3) cannot be protected by its deadline 2; "
        "the budget is too thin for this plan")
    replay_validate(trace)


def test_burnt_stays_rectangular():
    _, trace = contain_run(1, 2)
    burnt = set(trace.initial)
    for rec in trace.rounds:
        burnt.update(rec.ignited)
        xs = [p[0] for p in burnt]
        ys = [p[1] for p in burnt]
        area = (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)
        assert len(burnt) == area, f"fire not a rectangle at round {rec.t}"


def test_placements_touch_an_earlier_firefighter():
    _, trace = contain_run(2, 1)
    placed: set = set()
    first = True
    for rec in trace.rounds:
        for p in rec.placed:
            if first:
                first = False
            else:
                assert any(
                    max(abs(p[0] - q[0]), abs(p[1] - q[1])) == 1 for q in placed
                ), f"{p} is isolated"
            placed.add(p)


def test_frozen_sides_accumulate_across_phases():
    plan, trace = contain_run(1, 1)
    burnt = set(trace.initial)
    boxes = {}
    for rec in trace.rounds:
        burnt.update(rec.ignited)
        xs = [p[0] for p in burnt]
        ys = [p[1] for p in burnt]
        boxes[rec.t] = (min(xs), max(xs), min(ys), max(ys))

    def frozen_count(t):
        if t + 1 not in boxes or t not in boxes:
            return 4  # past the end: fully frozen
        now, nxt = boxes[t], boxes[t + 1]
        return sum(now[i] == nxt[i] for i in range(4))

    ends = phase_ends(plan.m, plan.r)
    counts = [frozen_count(t) for t in ends]
    assert counts == sorted(counts)
    assert counts[-1] == 4
    # North froze in phase 1 and never thaws.
    north_rows = [boxes[t][3] for t in sorted(boxes) if t >= ends[0]]
    assert len(set(north_rows)) == 1


def test_containment_requires_strong_topology():
    plan = wall_plan(1, 1)
    initial = FireState(
        burnt=ball((0, 0), 1, "linf"),
        protected=frozenset(),
        round=0,
        topology=Topology.CARTESIAN,
    )
    trace = run(initial, constant(4), ContainmentStrategy(plan), 5)
    assert trace.status == "strategy-error"
    assert trace.rounds == []
    assert trace.error.startswith("round 0: ")


def test_containment_requires_matching_source():
    plan = wall_plan(1, 2)
    initial = FireState(
        burnt=ball((0, 0), 1, "linf"),
        protected=frozenset(),
        round=0,
        topology=Topology.STRONG,
    )
    trace = run(initial, constant(4), ContainmentStrategy(plan), 5)
    assert trace.status == "strategy-error"
    assert trace.rounds == []
    assert trace.error.startswith("round 0: ")


@pytest.mark.parametrize("m, r", [(0, 1), (1, 0)])
def test_wall_plan_rejects_nonpositive_parameters(m, r):
    with pytest.raises(ValueError, match="^m and r must be positive"):
        wall_plan(m, r)


@pytest.mark.parametrize("m,r", ALL_CELLS)
def test_a_narrower_west_wall_fails_halls_condition_at_its_arrival(m, r):
    # The plan's west wall stands m + 1 columns beyond the width that
    # criterion 1 asserts (clearance 0). Every nearer straight wall asks for
    # all its cells by its own arrival round, 6rm^2 + 10rm + K, one round
    # sooner per column, and the matched budget falls short right there.
    plan = wall_plan(m, r)
    budget = containment_budget(m)
    west, east, south, north = plan_box(plan)
    assert _boundary_tasks(r, (west, east, south, north)) == plan.tasks
    assert schedule_is_feasible(plan, budget) == (True, None)
    for clearance in range(m + 1):
        tasks = _boundary_tasks(r, (west + m + 1 - clearance, east, south, north))
        assert schedule_is_feasible(replace(plan, tasks=tasks), budget) == (
            False, 6 * r * m * m + 10 * r * m + clearance)


@pytest.mark.parametrize("m,r", ALL_CELLS)
def test_a_nearer_east_wall_fails_halls_condition_at_its_arrival(m, r):
    # The east wall stands on column 6rm + r + 1 and arrives at round
    # 6rm + 1. Moved J columns west, it asks for all its cells J rounds
    # sooner, and the matched budget falls short at that arrival, before any
    # west wall, however near, is due.
    plan = wall_plan(m, r)
    budget = containment_budget(m)
    west, east, south, north = plan_box(plan)
    for east_shift in range(1, 6):
        for clearance in range(m + 2):
            box = (west + m + 1 - clearance, east - east_shift, south, north)
            tasks = _boundary_tasks(r, box)
            assert schedule_is_feasible(replace(plan, tasks=tasks), budget) == (
                False, 6 * r * m + 1 - east_shift), (east_shift, clearance)


# Boxes (west, east, south, north) narrower than the plan's that pass Hall's
# condition under the matched budget, with the control round, final width and
# final height of their runs. Each north wall is nearer than the plan's row 3r.
NARROW_BOXES = [
    ((1, 2), (-33, 14, -56, 5), (54, 46, 60)),
    ((1, 3), (-47, 20, -80, 7), (77, 66, 86)),
    ((2, 2), (-85, 25, -158, 5), (156, 109, 162)),
    ((2, 3), (-130, 38, -242, 8), (239, 167, 249)),
    ((3, 3), (-244, 55, -595, 8), (591, 298, 602)),
]


@pytest.mark.parametrize("cell, box, outcome", NARROW_BOXES,
                         ids=[f"{m}-{r}" for (m, r), _, _ in NARROW_BOXES])
def test_narrow_boxes_contain_within_criterion_1_bounds(cell, box, outcome):
    # Criterion 1 asks for width at most 6rm^2 + 16rm + 2r, which the plan's
    # own box misses by m + 1 columns; these five boxes meet it.
    m, r = cell
    plan = replace(wall_plan(m, r), tasks=_boundary_tasks(r, box))
    assert schedule_is_feasible(plan, containment_budget(m)) == (True, None)
    trace = run(FireState.source(Topology.STRONG, r), containment_budget(m),
                ContainmentStrategy(plan), plan.horizon)
    replay_validate(trace)
    assert trace.status == "controlled"
    xmin, xmax, ymin, ymax = bounding_box(trace.state_at(trace.final_round())[0])
    control, width, height = outcome
    assert (trace.control_round, xmax - xmin + 1, ymax - ymin + 1) == outcome
    assert control <= plan.round_bound
    assert width <= plan.width_bound
    assert height <= plan.height_bound


def _due(w: int, e: int, s: int | None, n: int, reach: int) -> int:
    """How many boundary cells of the box (w, e, s, n) lie within L-infinity
    distance ``reach`` of the origin, so fall due by round ``reach - r``;
    ``s`` is None for a box open to the south. Each side costs O(1)."""
    cols = (e <= reach) + (-w <= reach)
    low = -reach if s is None or s < -reach else s + 1
    due = cols * ((n - 1 if n <= reach else reach) - low + 1) if cols else 0
    rows = (n <= reach) + (s is not None and -s <= reach)
    if rows:
        due += rows * ((e if e < reach else reach) + (-w if -w < reach else reach) + 1)
    return due


def _passing_boxes(m: int, r: int, width: int) -> list[tuple[int, int, int, int]]:
    """Every box (w, e, s, n) around the radius-r source, of interior width at
    most ``width`` and height at most criterion 1's, whose boundary passes
    Hall's condition under the matched budget: one box per mirror class,
    the one with e <= -w and n <= -s (deadlines are symmetric in both axes).

    Until round -s - r a box's demand is that of the box open to the south.
    So one pass over the open box per (w, e, n) finds the round at which it
    first fails, and no deeper south wall is worth trying. An open box's
    demand grows by 2 a round once all three of its walls are due, and the
    supply by at least 3, so its pass ends there; a closed box's demand stops
    growing once its last wall is due."""
    height = wall_plan(m, r).height_bound
    budget = containment_budget(m)
    supply = [budget.cumulative(t) for t in range(width + height + 4)]
    found = []
    for w in range(-r - 1, -width - 2, -1):
        for e in range(r + 1, min(-w, width + 1 + w) + 1):
            for n in range(r + 1, (height + 1) // 2 + 1):
                last = max(-w, e, n) - r
                fails = next((t for t in range(min(n, e) - r, last + 1)
                              if _due(w, e, None, n, r + t) > supply[t]), None)
                for s in range(-n, n - height - 2, -1):
                    if fails is not None and -s - r > fails:
                        break
                    if all(_due(w, e, s, n, r + t) <= supply[t]
                           for t in range(-s - r, max(last, -s - r) + 1)):
                        found.append((w, e, s, n))
    return found


def _mirrors(box: tuple[int, int, int, int]) -> set[tuple[int, int, int, int]]:
    w, e, s, n = box
    return {(w, e, s, n), (-e, -w, s, n), (w, e, -n, -s), (-e, -w, -n, -s)}


@pytest.mark.parametrize("r", [1, 2])
def test_the_box_scan_counts_demand_by_the_plans_deadlines(r):
    # The scan's O(1) count per side agrees with ``_boundary_tasks``'
    # deadlines on every box near the source, and on a box open to the south
    # for every round before its south wall (here far off) falls due.
    for w in range(-r - 5, -r):
        for e in range(r + 1, r + 6):
            for n in range(r + 1, r + 6):
                for s in (-r - 1, -r - 3, -r - 6, -60):
                    deadlines = [t.deadline for t in _boundary_tasks(r, (w, e, s, n))]
                    for t in range(1, 62 - r):
                        due = sum(d <= t for d in deadlines)
                        assert _due(w, e, s, n, r + t) == due, (w, e, s, n, t)
                        if t < -s - r:
                            assert _due(w, e, None, n, r + t) == due, (w, e, n, t)


@pytest.mark.parametrize("m,r", [(1, 1), (2, 1)])
def test_no_box_of_criterion_1_width_passes_halls_condition(m, r):
    # Criterion 1 asks for an interior width of at most 6rm^2 + 16rm + 2r.
    # At (1, 1) and (2, 1) no box of that width, however placed, can be
    # walled in time: the plan's own box misses it by m + 1 columns, and a
    # non-box ring is the open question (ROADMAP item 1).
    assert _passing_boxes(m, r, wall_plan(m, r).width_bound) == []


def test_two_columns_wider_the_box_scan_finds_the_plans_box():
    plan = wall_plan(1, 1)
    budget = containment_budget(1)
    boxes = set().union(*map(_mirrors, _passing_boxes(1, 1, plan.width_bound + 2)))
    assert len(boxes) == 48
    assert plan_box(plan) in boxes
    for box in boxes:
        tasks = _boundary_tasks(1, box)
        assert schedule_is_feasible(replace(plan, tasks=tasks), budget) == (True, None), box
