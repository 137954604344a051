"""Wall-plan generation and the containment scheduler."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from gridfire.budget import constant, containment_budget, periodic
from gridfire.engine import FireState, run
from gridfire.grid import Topology, ball
from gridfire.wallplan import (
    ContainmentStrategy,
    WallTask,
    schedule_is_feasible,
    wall_plan,
)

ALL_CELLS = [(m, r) for m in (1, 2, 3) for r in (1, 2, 3)]


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


def test_tasks_sorted_and_unique():
    plan = wall_plan(2, 2)
    deadlines = [t.deadline for t in plan.tasks]
    assert deadlines == sorted(deadlines)
    targets = [t.target for t in plan.tasks]
    assert len(targets) == len(set(targets))


def test_schedule_feasible_under_matched_budget():
    for m, r in ALL_CELLS:
        ok, miss = schedule_is_feasible(wall_plan(m, r), containment_budget(m))
        assert ok, (m, r, miss)


def test_schedule_infeasible_under_constant_three():
    ok, miss = schedule_is_feasible(wall_plan(1, 1), constant(3))
    assert not ok and miss is not None


def test_containment_m1_r1_controls_within_bound():
    _, trace = contain_run(1, 1, budget=constant(4))
    assert trace.status == "controlled"
    assert trace.control_round <= 42


def test_containment_m2_r1_periodic_budget():
    _, trace = contain_run(2, 1, budget=periodic([4, 3]))
    assert trace.status == "controlled"
    assert trace.control_round <= 108


def test_containment_constant_three_misses_deadline():
    _, trace = contain_run(1, 1, budget=constant(3))
    assert trace.status == "strategy-error"
    assert "deadline" in trace.error


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


def _west_wall_at(plan, clearance: int):
    """The plan's tasks with the west wall ``clearance`` columns beyond the
    fire's width at its arrival, where the plan has m + 1: the wall column
    moves east by m + 1 - clearance, the north-row and south-row cells west
    of it are dropped, and every deadline is recomputed by ``_deadline``."""
    m, r = plan.m, plan.r
    west = min(t.target[0] for t in plan.tasks)
    north = max(t.target[1] for t in plan.tasks)
    south = min(t.target[1] for t in plan.tasks)
    moved = west + (m + 1 - clearance)
    targets = []
    for task in plan.tasks:
        x, y = task.target
        if x == west:
            targets.append((moved, y))
        elif x >= moved or y not in (north, south):
            targets.append((x, y))
    return [WallTask(p, _deadline(p, r), 0) for p in targets]


@pytest.mark.parametrize("m,r", ALL_CELLS)
def test_a_narrower_west_wall_fails_halls_condition_at_its_arrival(m, r):
    # The plan's west wall stands m + 1 columns beyond the width that
    # criterion 1 asserts (clearance 0). Every nearer straight wall asks for
    # all its cells by its own arrival round, 6rm^2 + 10rm + K, one round
    # sooner per column, and the matched budget falls short right there.
    plan = wall_plan(m, r)
    budget = containment_budget(m)
    assert all(t.deadline == _deadline(t.target, r) for t in plan.tasks)
    full = _west_wall_at(plan, m + 1)
    assert sorted(full, key=lambda t: t.deadline) == [
        WallTask(t.target, t.deadline, 0) for t in plan.tasks]
    assert schedule_is_feasible(replace(plan, tasks=tuple(full)), budget) == (True, None)
    for clearance in range(m + 1):
        tasks = sorted(_west_wall_at(plan, clearance), key=lambda t: t.deadline)
        assert schedule_is_feasible(replace(plan, tasks=tuple(tasks)), budget) == (
            False, 6 * r * m * m + 10 * r * m + clearance)
