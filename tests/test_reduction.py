"""Strong-to-Cartesian strategy reduction."""

from __future__ import annotations

import dataclasses

import pytest

from gridfire.budget import constant, containment_budget, parse_budget, periodic
from gridfire.grid import is_even_point, skew_map
from gridfire.reduction import ReductionOutcome, reduced_budget, run_reduction
from gridfire.strategies import NullStrategy
from gridfire.trace import RunTrace
from gridfire.wallplan import ContainmentStrategy, wall_plan


def test_reduced_budget_of_constant_three():
    g = reduced_budget(constant(3))
    assert [g.at(t) for t in range(1, 7)] == [1, 2, 1, 2, 1, 2]


def test_reduced_budget_splits_every_round():
    f = periodic([4, 3])
    g = reduced_budget(f)
    for k in range(1, 20):
        assert g.at(2 * k - 1) == f.at(k) // 2
        assert g.at(2 * k) == f.at(k) - f.at(k) // 2
        assert g.at(2 * k - 1) + g.at(2 * k) == f.at(k)


def test_reduced_budget_splits_the_prefix_too():
    g = reduced_budget(parse_budget("prefix:5,2|4,3"))
    assert g.prefix == (2, 3, 1, 1)
    assert g.cycle == (2, 2, 1, 2)


def test_skewed_placement_arithmetic():
    assert skew_map((2, 1)) == (3, 1)


def test_reduction_of_containment_m1_r1():
    report = run_reduction(
        ContainmentStrategy(wall_plan(1, 1)), constant(4), 1, horizon=45
    )
    assert report.strong_controlled
    doubled = report.outcomes[0]
    assert doubled.source_radius == 2
    assert doubled.controlled
    assert doubled.placements_all_even
    assert doubled.ignition_parity_ok
    # On the analysis clock the doubled game is exactly twice as slow.
    assert doubled.control_round + 1 <= 2 * (report.strong_control_round + 1)


def test_reduction_reports_both_radii():
    report = run_reduction(
        ContainmentStrategy(wall_plan(1, 1)), constant(4), 1, horizon=45
    )
    assert [o.source_radius for o in report.outcomes] == [2, 1]
    assert report.contained(), "at least one candidate source must be contained"


def test_reduction_fails_with_thin_budget():
    report = run_reduction(
        ContainmentStrategy(wall_plan(1, 1)), constant(3), 1, horizon=45
    )
    assert not report.strong_controlled
    assert report.strong_trace.status == "strategy-error"
    assert not any(o.controlled for o in report.outcomes)


def test_null_reduction_parity_alternates():
    report = run_reduction(NullStrategy(), constant(0), 1, horizon=12)
    doubled = report.outcomes[0]
    assert not doubled.controlled
    assert doubled.ignition_parity_ok
    for rec in doubled.trace.rounds:
        want_even = rec.t % 2 == 0
        assert all(is_even_point(q) == want_even for q in rec.ignited)


def test_reduction_all_small_cells():
    for m in (1, 2):
        for r in (1, 2):
            horizon = 12 * r * m * m + 30 * r * m + 5
            report = run_reduction(
                ContainmentStrategy(wall_plan(m, r)),
                containment_budget(m),
                r,
                horizon,
            )
            assert report.strong_controlled, (m, r)
            doubled = report.outcomes[0]
            assert doubled.controlled, (m, r)
            assert doubled.placements_all_even
            assert doubled.ignition_parity_ok
            assert doubled.control_round + 1 <= 2 * (report.strong_control_round + 1)


def _copy(trace: RunTrace) -> RunTrace:
    return RunTrace.from_text(trace.to_text())


def _with_doubled(report, trace: RunTrace):
    """``report`` with its doubled-source trace replaced by ``trace``."""
    return dataclasses.replace(report, outcomes=[ReductionOutcome(2, trace),
                                                 *report.outcomes[1:]])


def _odd_placement(report):
    trace = _copy(report.outcomes[0].trace)
    first = trace.rounds[0]
    trace.rounds[0] = dataclasses.replace(first, placed=first.placed + ((1, 0),))
    return _with_doubled(report, trace)


def _odd_last_placement(report):
    """An odd placement last in a later squad of several."""
    trace = _copy(report.outcomes[0].trace)
    i = next(i for i, rec in enumerate(trace.rounds) if i > 2 and len(rec.placed) > 1)
    rec = trace.rounds[i]
    x, y = rec.placed[-1]
    trace.rounds[i] = dataclasses.replace(rec, placed=rec.placed[:-1] + ((x + 1, y),))
    return _with_doubled(report, trace)


def _odd_ignition_mid_round(report):
    """An ignition of the wrong parity in the middle of a round's list."""
    trace = _copy(report.outcomes[0].trace)
    i = next(i for i, rec in enumerate(trace.rounds) if i > 2 and len(rec.ignited) > 2)
    rec = trace.rounds[i]
    mid = len(rec.ignited) // 2
    x, y = rec.ignited[mid]
    ignited = rec.ignited[:mid] + ((x + 1, y),) + rec.ignited[mid + 1:]
    trace.rounds[i] = dataclasses.replace(rec, ignited=ignited)
    return _with_doubled(report, trace)


def _late_control(report):
    trace = _copy(report.outcomes[0].trace)
    trace.control_round = 2 * (report.strong_control_round + 1)  # one instant past 2x
    return _with_doubled(report, trace)


def _strong_uncontrolled(report):
    thin = run_reduction(ContainmentStrategy(wall_plan(1, 1)), constant(3), 1, horizon=45)
    return dataclasses.replace(report, strong_trace=thin.strong_trace)


@pytest.mark.parametrize("spoil", [_odd_placement, _odd_last_placement,
                                   _odd_ignition_mid_round, _late_control,
                                   _strong_uncontrolled],
                         ids=["odd-placement", "odd-last-placement",
                              "odd-ignition-mid-round", "late-control",
                              "strong-uncontrolled"])
def test_report_ok_reads_the_verdict_off_the_traces(spoil):
    report = run_reduction(ContainmentStrategy(wall_plan(1, 1)), constant(4), 1, horizon=45)
    assert report.ok
    assert not spoil(report).ok
