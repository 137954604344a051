"""Wall-plan generation and the containment scheduler."""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import replace

import pytest

from gridfire.budget import constant, containment_budget, periodic
from gridfire.engine import FireState, replay_validate, run
from gridfire.grid import Topology, ball
from gridfire.wallplan import (
    ContainmentStrategy,
    WallTask,
    schedule_is_feasible,
    wall_plan,
)

ALL_CELLS = [(m, r) for m in (1, 2, 3) for r in (1, 2, 3)]
GRID = [(m, r) for m in range(1, 7) for r in range(1, 7)]


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
    plan = wall_plan(1, 1)
    assert plan.phase_ends == (2, 7, 16, 42)


def test_phase_boundaries_formula():
    for m, r in ALL_CELLS:
        plan = wall_plan(m, r)
        assert plan.phase_ends == (
            2 * r,
            6 * r * m + 1,
            6 * r * m * m + 10 * r * m,
            12 * r * m * m + 30 * r * m,
        )
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
    for m, r in ALL_CELLS:
        plan = wall_plan(m, r)
        budgets = {
            1: 6 * r + 1,
            2: 18 * r * m + 6 * r + 4,
            3: 18 * r * m * m + 36 * r * m + 10 * r,
            4: 36 * r * m * m + 102 * r * m + 30 * r,
        }
        running = 0
        counts = Counter(task.phase for task in plan.tasks)
        for phase in (1, 2, 3, 4):
            running += counts[phase]
            assert running <= budgets[phase], (m, r, phase)


def test_plans_are_pinned():
    # Every task of every plan with m, r <= 6, in order, with its deadline
    # and phase: a rewrite of the plan builder must leave these bytes alone.
    digest = hashlib.sha256()
    for m, r in GRID:
        digest.update(repr(wall_plan(m, r).tasks).encode())
    assert digest.hexdigest() == (
        "b64666dd9f409c5772b83b64cc271de3e51454d4beaea0edc2fd13485f58a6b8")


def test_tasks_sorted_and_unique():
    # The targets are the boundary of the plan's box, each listed once.
    for m, r in GRID:
        plan = wall_plan(m, r)
        deadlines = [t.deadline for t in plan.tasks]
        assert deadlines == sorted(deadlines), (m, r)
        targets = [t.target for t in plan.tasks]
        assert len(targets) == len(set(targets)), (m, r)
        xs = [x for x, _ in targets]
        ys = [y for _, y in targets]
        west, east, south, north = min(xs), max(xs), min(ys), max(ys)
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
        "round 2: wall cell (-3, 3) (phase 1) cannot be protected by its "
        "deadline 2; the budget is too thin for this plan")
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

    counts = [frozen_count(t) for t in plan.phase_ends]
    assert counts == sorted(counts)
    assert counts[-1] == 4
    # North froze in phase 1 and never thaws.
    north_rows = [boxes[t][3] for t in sorted(boxes) if t >= plan.phase_ends[0]]
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


def _deadline(p, r: int) -> int:
    """The round by which a strong fire from the radius-r square first comes
    within reach of ``p``: its L-infinity distance from the origin less r."""
    return max(abs(p[0]), abs(p[1])) - r


def _walls_at(plan, clearance: int, east_shift: int = 0):
    """The plan's tasks with the west wall ``clearance`` columns beyond the
    fire's width at its arrival, where the plan has m + 1, and the east wall
    moved ``east_shift`` columns west: each wall column moves, the north-row
    and south-row cells outside the two columns are dropped, and every
    deadline is recomputed by ``_deadline``. No cell is listed twice."""
    m, r = plan.m, plan.r
    xs = [t.target[0] for t in plan.tasks]
    ys = [t.target[1] for t in plan.tasks]
    west, east, north, south = min(xs), max(xs), max(ys), min(ys)
    west2 = west + (m + 1 - clearance)
    east2 = east - east_shift
    targets = []
    for task in plan.tasks:
        x, y = task.target
        if y in (north, south):
            if west2 <= x <= east2:
                targets.append((x, y))
        else:
            targets.append((west2 if x == west else east2 if x == east else x, y))
    assert len(set(targets)) == len(targets)
    return sorted((WallTask(p, _deadline(p, r), 0) for p in targets),
                  key=lambda t: t.deadline)


@pytest.mark.parametrize("m,r", ALL_CELLS)
def test_a_narrower_west_wall_fails_halls_condition_at_its_arrival(m, r):
    # The plan's west wall stands m + 1 columns beyond the width that
    # criterion 1 asserts (clearance 0). Every nearer straight wall asks for
    # all its cells by its own arrival round, 6rm^2 + 10rm + K, one round
    # sooner per column, and the matched budget falls short right there.
    plan = wall_plan(m, r)
    budget = containment_budget(m)
    assert all(t.deadline == _deadline(t.target, r) for t in plan.tasks)
    full = _walls_at(plan, m + 1)
    assert full == [WallTask(t.target, t.deadline, 0) for t in plan.tasks]
    assert schedule_is_feasible(replace(plan, tasks=tuple(full)), budget) == (True, None)
    for clearance in range(m + 1):
        tasks = _walls_at(plan, clearance)
        assert schedule_is_feasible(replace(plan, tasks=tuple(tasks)), budget) == (
            False, 6 * r * m * m + 10 * r * m + clearance)


@pytest.mark.parametrize("m,r", ALL_CELLS)
def test_a_nearer_east_wall_fails_halls_condition_at_its_arrival(m, r):
    # The east wall stands on column 6rm + r + 1 and arrives at round
    # 6rm + 1. Moved J columns west, it asks for all its cells J rounds
    # sooner, and the matched budget falls short at that arrival, before any
    # west wall, however near, is due.
    plan = wall_plan(m, r)
    budget = containment_budget(m)
    for east_shift in range(1, 6):
        for clearance in range(m + 2):
            tasks = _walls_at(plan, clearance, east_shift)
            assert schedule_is_feasible(replace(plan, tasks=tuple(tasks)), budget) == (
                False, 6 * r * m + 1 - east_shift), (east_shift, clearance)
