"""Front offsets, potentials, activity, attribution, and the check suite."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gridfire.budget import constant, periodic
from gridfire.engine import FireState, SimView, run
from gridfire.grid import Topology, ball
from gridfire.monitor import (
    DIRECTIONS,
    activity,
    check_invariants,
    front_lengths,
    front_offsets,
    perimeter,
)
from gridfire.strategies import GreedyNearest, NullStrategy, RandomStrategy
from gridfire.trace import RoundRecord, RunTrace

from conftest import potentials, single_source


def free_trace(rounds: int) -> RunTrace:
    return run(single_source(), constant(0), NullStrategy(), rounds)


def test_offsets_empty_burnt_set():
    offs = front_offsets(set())
    assert all(c == 0 for c in offs.values())
    assert perimeter(offs) == 0


def test_offsets_single_burning_point():
    offs = front_offsets({(0, 0)})
    assert all(c == 1 for c in offs.values())


def test_offsets_free_burn_match_clock():
    # With no firefighters the radius-(t-1) ball burns at instant t, putting
    # every offset at t and the perimeter at 4t.
    trace = free_trace(10)
    for t in range(1, 11):
        burnt = trace.state_at(t - 1)[0]
        offs = front_offsets(burnt)
        assert all(c == t for c in offs.values())
        assert perimeter(offs) == 4 * t


def test_offsets_honor_holes():
    # Only the line x+y = 1 burns; the empty line below it wins the scan.
    offs = front_offsets({(1, 0), (0, 1)})
    assert offs[(1, 1)] == 0
    assert offs[(-1, -1)] == 0
    # Filling the hole pushes the offset past the burning lines.
    offs = front_offsets({(0, 0), (1, 0), (0, 1)})
    assert offs[(1, 1)] == 2


@given(st.sets(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=30))
def test_offsets_match_the_line_definition(burnt):
    # Reference: scan each direction's lines x*sx + y*sy = c upward from 0.
    expected = {}
    for sx, sy in DIRECTIONS:
        c = 0
        while any(x * sx + y * sy == c for x, y in burnt):
            c += 1
        expected[(sx, sy)] = c
    assert front_offsets(burnt) == expected


def test_front_lengths_identity_and_corner_distance():
    trace = run(single_source(), periodic([2, 1]), RandomStrategy(8), 30)
    burnt = trace.state_at(20)[0]
    offs = front_offsets(burnt)
    lengths = front_lengths(offs)
    for sx, sy in DIRECTIONS:
        assert lengths[(sx, sy)] == lengths[(-sx, -sy)]
        assert lengths[(sx, sy)] == Fraction(offs[(sx, -sy)] + offs[(-sx, sy)], 2)
        # The same length, computed as the linf distance between the front's
        # two corner intersections (solved in doubled coordinates).
        c0 = offs[(sx, sy)]
        corner1 = (sx * (c0 + offs[(sx, -sy)]), sy * (c0 - offs[(sx, -sy)]))
        corner2 = (sx * (c0 - offs[(-sx, sy)]), sy * (c0 + offs[(-sx, sy)]))
        dist2 = max(abs(corner1[0] - corner2[0]), abs(corner1[1] - corner2[1]))
        assert lengths[(sx, sy)] == Fraction(dist2, 2)


def _state_potentials(burnt, protected):
    """Potentials of the Cartesian state's E against its burnt set's offsets."""
    view = SimView(FireState(frozenset(burnt), frozenset(protected), 0, Topology.CARTESIAN))
    return potentials(view.endangered_row_major(), front_offsets(burnt))


def test_potentials_single_source():
    phi, total = _state_potentials({(0, 0)}, set())
    assert total == 4
    assert all(v == 1 for v in phi.values())


def test_potentials_zero_when_plugged():
    phi, total = _state_potentials({(0, 0)}, {(1, 0), (-1, 0), (0, 1), (0, -1)})
    assert total == 0
    assert all(v == 0 for v in phi.values())


def test_potentials_pending_source_convention():
    # Nothing burns at instant 0; the declared source is the one endangered
    # point, so each front gets a quarter and the total is 1.
    m0 = check_invariants(free_trace(3)).metrics[0]
    assert m0.phi_total == 1
    assert m0.phi == dict.fromkeys(DIRECTIONS, Fraction(1, 4))


def per_cell_potentials(endangered, offsets):
    """Oracle: classify each endangered cell against the four front lines,
    one cell at a time.

    A cell on k lines gives each 4 // k quarters and counts once in the total.
    """
    quarters = dict.fromkeys(DIRECTIONS, 0)
    total = 0
    c_pp = offsets[(1, 1)]
    c_pm = offsets[(1, -1)]
    c_mp = offsets[(-1, 1)]
    c_mm = offsets[(-1, -1)]
    for x, y in endangered:
        on = []
        if x + y == c_pp:
            on.append((1, 1))
        if x - y == c_pm:
            on.append((1, -1))
        if -x + y == c_mp:
            on.append((-1, 1))
        if -x - y == c_mm:
            on.append((-1, -1))
        if not on:
            continue
        total += 1
        share = 4 // len(on)
        for d in on:
            quarters[d] += share
    return {d: Fraction(q, 4) for d, q in quarters.items()}, Fraction(total)


def _corners(offsets):
    """Every lattice point where a sum front meets a diff front."""
    sums = (offsets[(1, 1)], -offsets[(-1, -1)])
    diffs = (offsets[(1, -1)], -offsets[(-1, 1)])
    return [((s + v) // 2, (s - v) // 2) for s in sums for v in diffs if (s + v) % 2 == 0]


def test_potentials_off_diagonal_source_all_fronts_meet():
    # From {(1, 0)} every offset is 0: parallel fronts coincide, and (0, 0)
    # lies on all four fronts with a quarter each.
    offsets = dict.fromkeys(DIRECTIONS, 0)
    view = SimView(FireState(frozenset({(1, 0)}), frozenset(), 0, Topology.CARTESIAN))
    phi, total = potentials(view.endangered_row_major(), offsets)
    assert total == 3
    assert all(v == Fraction(3, 4) for v in phi.values())
    assert (phi, total) == per_cell_potentials([(0, 0), (1, -1), (1, 1), (2, 0)], offsets)


@settings(max_examples=400, deadline=None)
@given(
    offsets=st.fixed_dictionaries({d: st.integers(0, 3) for d in DIRECTIONS}),
    cells=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=40),
    with_corners=st.booleans(),
    as_generator=st.booleans(),
)
def test_potentials_match_per_cell_loop(offsets, cells, with_corners, as_generator):
    """Line counts with corner and coinciding-line corrections equal the per-cell loop.

    Offsets of 0 make parallel fronts one line; corner points lie on two or
    more fronts; cells may repeat, as an unvalidated trace's may.
    """
    if with_corners:
        cells = cells + _corners(offsets)
    endangered = iter(cells) if as_generator else cells
    got = potentials(endangered, offsets)
    assert got == per_cell_potentials(cells, offsets)


def test_activity_free_burn_always_four():
    trace = free_trace(8)
    for t in range(1, 8):
        now = front_offsets(trace.state_at(t - 1)[0])
        nxt = front_offsets(trace.state_at(t)[0])
        act, total = activity(now, nxt, {(0, 0)})
        assert total == 4
        assert all(v == 1 for v in act.values())


def test_activity_zero_when_surrounded():
    offs = front_offsets({(0, 0)})
    act, total = activity(offs, offs, {(0, 0)})
    assert total == 0


def test_activity_rejects_jumps():
    with pytest.raises(ValueError, match=r"moved by 2; .* source \{\(1, 0\)\} does not"):
        activity({d: 0 for d in DIRECTIONS}, {d: 2 for d in DIRECTIONS}, {(1, 0)})


def test_check_invariants_free_burn():
    report = check_invariants(free_trace(10))
    assert report.ok
    assert report.metrics[10].perimeter == 40
    # Perimeter growth equals the active-front count everywhere.
    for i in range(10):
        act = report.metrics[i].active
        assert sum(act.values()) == (
            report.metrics[i + 1].perimeter - report.metrics[i].perimeter
        )


def test_check_invariants_greedy_200():
    trace = run(single_source(), periodic([2, 1]), GreedyNearest(), 200)
    report = check_invariants(trace)
    assert report.ok
    for m in report.metrics:
        assert m.perimeter >= 3 * m.t


def test_check_invariants_cap_void_reported():
    trace = run(single_source(), constant(2), GreedyNearest(), 30)
    report = check_invariants(trace)
    assert report.ok
    assert report.checks["E"].note == "precondition void from t=2"


def test_check_invariants_flags_corrupt_activity():
    # A fire teleporting two rings out in one round must be rejected.
    trace = free_trace(5)
    bad = RunTrace.from_text(trace.to_text())
    rec = bad.rounds[3]
    extra = tuple(
        p for p in ball((0, 0), 6, "l1") - ball((0, 0), 5, "l1")
    )
    bad.rounds[3] = RoundRecord(t=rec.t, f=rec.f, placed=rec.placed,
                                ignited=rec.ignited + extra)
    with pytest.raises(Exception):
        check_invariants(bad)


def test_check_invariants_reports_potential_beyond_front_length():
    # Check A: twenty forged ignitions on the (1, 1) front line x + y = 5
    # put 25 units of potential on a front of length 5.
    trace = free_trace(5)
    rec = trace.rounds[-1]
    extra = tuple((x, 5 - x) for x in range(6, 26))
    trace.rounds[-1] = RoundRecord(t=rec.t, f=rec.f, placed=rec.placed,
                                   ignited=rec.ignited + extra)
    report = check_invariants(trace, validate=False)
    assert not report.ok
    assert report.checks["A"].violations == [(5, "phi(1, 1)=25 > length 5")]


def test_violations_print_potentials_and_lengths_as_fractions():
    # Forged records: round 1 ignites only (1, 0), so at t=2 the (1, 1) front
    # has length (2 + 1)/2; round 2 puts the corner (2, 0) and two more cells
    # on its line x + y = 2. The report prints reduced fractions and whole
    # counts, never quarter units.
    trace = free_trace(2)
    trace.rounds[:] = [
        RoundRecord(t=1, f=0, placed=(), ignited=((1, 0),)),
        RoundRecord(t=2, f=0, placed=(), ignited=((2, 0), (0, 2), (-1, 3))),
    ]
    report = check_invariants(trace, validate=False)
    assert report.checks["A"].violations == [(2, "phi(1, 1)=5/2 > length 3/2")]
    assert report.checks["C"].violations == [(1, "phi=1 < (perimeter-1)/2 = (4-1)/2")]
    assert report.min_front_slack == Fraction(-7, 4)
    table = report.to_table().splitlines()
    assert "check A: FAIL first violation at t=2: phi(1, 1)=5/2 > length 3/2" in table
    assert "check C: FAIL first violation at t=1: phi=1 < (perimeter-1)/2 = (4-1)/2" in table


def test_check_invariants_reports_a_fire_that_stops_spreading():
    # A null const:1 run whose records from round 2 on ignite nothing: the
    # fronts freeze with no potential while the supply stays under the cap.
    trace = run(single_source(), constant(1), NullStrategy(), 3)
    trace.rounds[1:] = [RoundRecord(t=rec.t, f=rec.f, placed=rec.placed, ignited=())
                        for rec in trace.rounds[1:]]
    report = check_invariants(trace, validate=False)
    assert not report.ok
    first = {name: [t for t, _ in c.violations][:1] for name, c in report.checks.items()}
    assert first == {"A": [], "B": [], "C": [2], "D": [2], "E": [3]}
    assert report.checks["E"].violations == [(3, "perimeter 8 < 9")]
    table = report.to_table().splitlines()
    assert "check A: pass" in table
    assert "check E: FAIL first violation at t=3: perimeter 8 < 9" in table


def test_monitor_requires_cartesian():
    trace = run(single_source(Topology.STRONG), constant(0), NullStrategy(), 3)
    with pytest.raises(ValueError):
        check_invariants(trace)


def test_monitor_is_read_only():
    trace = run(single_source(), periodic([2, 1]), RandomStrategy(4), 60)
    before = trace.to_text()
    check_invariants(trace)
    assert trace.to_text() == before


def test_attribution_caps_at_supply():
    trace = run(single_source(), periodic([2, 1]), GreedyNearest(), 80)
    report = check_invariants(trace)
    for m in report.metrics:
        assert sum(m.attributed.values()) <= m.supply


def test_attribution_single_line_and_tiebreak():
    # One firefighter straight north of the source sits on two front lines at
    # t=1; the canonical order assigns it to (+1, +1) alone.
    class North:
        identifier = "north"

        def next_placements(self, view, available):
            return [(0, 1)] if view.round == 0 and available else []

    trace = run(single_source(), constant(1), North(), 4)
    report = check_invariants(trace)
    m1 = report.metrics[1]
    assert m1.attributed[(1, 1)] == 1
    assert sum(m1.attributed.values()) == 1


def test_attribution_skips_off_front_firefighters():
    class FarAway:
        identifier = "far"

        def next_placements(self, view, available):
            return [(40, 40)] if view.round == 0 and available else []

    trace = run(single_source(), constant(1), FarAway(), 3)
    report = check_invariants(trace)
    assert all(sum(m.attributed.values()) == 0 for m in report.metrics)


def test_front_slack_diagnostic_reports_known_deficit():
    # On the free-burn run the quarter-unit bound overshoots at t=1 by 1/4.
    report = check_invariants(free_trace(6))
    assert report.min_front_slack == Fraction(-1, 4)


def test_reactivation_needs_corner_potential():
    # Freeze the north front with a sacrificial wall, then watch it reactivate
    # once the fire flanks the wall: at that instant the front's potential
    # must have appeared through a corner (weight 1/2).
    class NorthWall:
        identifier = "northwall"

        def next_placements(self, view, available):
            wall = [(-1, 1), (0, 1), (1, 1)]
            return [p for p in wall if p not in view.protected][:available]

    trace = run(single_source(), constant(2), NorthWall(), 8)
    report = check_invariants(trace)
    ms = report.metrics
    for i in range(1, len(ms) - 1):
        d = (1, 1)
        prev_active = ms[i - 1].active[d] if ms[i - 1].active else None
        now_active = ms[i].active[d] if ms[i].active else None
        if prev_active == 0 and now_active == 1:
            assert ms[i].phi[d] in (Fraction(1, 2), Fraction(1))
