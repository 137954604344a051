"""Process-dynamics tests: a view's rounds, run, control detection, traces."""

from __future__ import annotations

import dataclasses
import io
import json
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gridfire import engine
from gridfire.budget import constant, periodic
from gridfire.engine import (
    FireState,
    PlacementError,
    SimulationError,
    SimView,
    replay_validate,
    run,
)
from gridfire.grid import Topology, ball, row_major
from gridfire.strategies import (
    GreedyNearest,
    NullStrategy,
    RandomStrategy,
    ReplayStrategy,
)
from gridfire.trace import (
    _HEADER_KEYS,
    _ROUND_KEYS,
    MalformedTraceError,
    RoundRecord,
    RunTrace,
)

from conftest import bfs_ball, scan_endangered, scan_near, single_source


def _played(state: FireState, squad, available: int) -> tuple[set, SimView]:
    """The burnt cells after one round from ``state``, and the view that played it."""
    view = SimView(state)
    return state.burnt | set(view.play(squad, available)), view


def test_step_free_spread_cartesian(origin_cartesian):
    burnt, view = _played(origin_cartesian, [], 0)
    assert burnt == ball((0, 0), 1, "l1")
    assert view.round == 1


def test_step_free_spread_strong(origin_strong):
    burnt, _ = _played(origin_strong, [], 0)
    assert burnt == ball((0, 0), 1, "linf")


def test_step_with_placement_blocks_one_cell(origin_cartesian):
    burnt, view = _played(origin_cartesian, [(0, 1)], 1)
    assert burnt - origin_cartesian.burnt == {(1, 0), (-1, 0), (0, -1)}
    assert view.protected == {(0, 1)}


def test_step_rejects_bad_placements(origin_cartesian):
    view = SimView(origin_cartesian)
    with pytest.raises(PlacementError) as exc:
        view.play([(0, 0)], 1)
    assert exc.value.point == (0, 0)
    with pytest.raises(PlacementError):
        view.play([(0, 1), (0, 1)], 2)
    with pytest.raises(PlacementError):
        view.play([(0, 1), (1, 0)], 1)  # over budget
    protected = FireState(
        burnt=frozenset({(0, 0)}),
        protected=frozenset({(0, 1)}),
        round=0,
        topology=Topology.CARTESIAN,
    )
    with pytest.raises(PlacementError):
        SimView(protected).play([(0, 1)], 1)


def test_is_controlled_cartesian_plug():
    s = FireState(
        burnt=frozenset({(0, 0)}),
        protected=frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)}),
        round=0,
        topology=Topology.CARTESIAN,
    )
    assert SimView(s).endangered_row_major() == ()
    strong = FireState(
        burnt=s.burnt, protected=s.protected, round=0, topology=Topology.STRONG
    )
    assert SimView(strong).endangered_row_major()  # diagonals open


def test_is_controlled_vacuous_on_empty():
    s = FireState(
        burnt=frozenset(), protected=frozenset(), round=0,
        topology=Topology.CARTESIAN,
    )
    assert SimView(s).endangered_row_major() == ()


def test_endangered_counts(origin_cartesian):
    assert len(SimView(origin_cartesian).endangered_row_major()) == 4
    shielded = FireState(
        burnt=frozenset({(0, 0)}),
        protected=frozenset({(0, 1)}),
        round=0,
        topology=Topology.CARTESIAN,
    )
    assert len(SimView(shielded).endangered_row_major()) == 3


@pytest.mark.parametrize("topology", list(Topology))
def test_fire_state_source_is_the_hand_built_ball(topology):
    default = "l1" if topology is Topology.CARTESIAN else "linf"
    for radius in (0, 1, 2):
        for center in ((0, 0), (3, -2)):
            for metric in (None, "l1", "linf"):
                expected = FireState(ball(center, radius, metric or default),
                                     frozenset(), 0, topology)
                assert FireState.source(topology, radius, center, metric) == expected
        assert FireState.source(topology, radius) == FireState(
            ball((0, 0), radius, default), frozenset(), 0, topology)


def test_endangered_of_ball_is_bfs_sphere():
    b2 = ball((0, 0), 2, "l1")
    s = FireState(
        burnt=b2, protected=frozenset(), round=0, topology=Topology.CARTESIAN
    )
    sphere = bfs_ball((0, 0), 3, Topology.CARTESIAN) - b2
    assert set(SimView(s).endangered_row_major()) == sphere
    assert len(sphere) == 12


_SMALL_POINTS = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@st.composite
def _fire_states(draw) -> FireState:
    """Any state: a burnt set with holes, firefighters on and off its front,
    any round number, any topology."""
    topo = draw(st.sampled_from(list(Topology)))
    burnt = draw(st.sets(_SMALL_POINTS, max_size=30))
    protected = draw(st.sets(st.tuples(st.integers(-7, 7), st.integers(-7, 7)),
                             max_size=15)) - burnt
    return FireState(frozenset(burnt), frozenset(protected),
                     draw(st.integers(0, 100)), topo)


@st.composite
def _legal_squads(draw, burnt, protected) -> list:
    """A duplicate-free squad off the burnt and protected sets, mostly on the
    front but possibly well ahead of it."""
    front = sorted(scan_near(burnt, burnt, protected, Topology.STRONG))
    ahead = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
    squad = draw(st.lists(st.sampled_from(front) if front else ahead, max_size=6)
                 | st.lists(ahead, max_size=4))
    return list(dict.fromkeys(p for p in squad
                              if p not in burnt and p not in protected))


@settings(max_examples=200, deadline=None)
@given(state=_fire_states(), data=st.data())
def test_step_is_the_spread_rule_on_any_state(state, data):
    squad = data.draw(_legal_squads(state.burnt, state.protected))
    slack = data.draw(st.integers(0, 2))
    burnt, view = _played(state, squad, len(squad) + slack)
    danger = scan_endangered(state.burnt, state.protected, state.topology)
    assert burnt == state.burnt | (danger - set(squad))
    assert view.protected == state.protected | set(squad)
    assert view.round == state.round + 1
    assert view.topology is state.topology


def _moved(state: FireState, dx: int, dy: int) -> FireState:
    """``state`` with every cell moved by (dx, dy)."""
    def move(cells):
        return frozenset((x + dx, y + dy) for x, y in cells)
    return FireState(move(state.burnt), move(state.protected), state.round, state.topology)


@settings(max_examples=100, deadline=None)
@given(state=_fire_states(), rounds=st.integers(1, 12),
       dx=st.integers(-10**6, 10**6), dy=st.integers(-10**6, 10**6),
       density=st.sampled_from([None, 2, 8, 32]), data=st.data())
def test_view_plays_any_state_like_a_full_scan(state, rounds, dx, dy, density, data):
    """Over several rounds from any state, E stays the full scan of the burnt
    set that ``play``'s returns build up and of the view's protected set, and
    the state's burnt set serves as round 0's ignitions. The state sits
    anywhere, and a dozen rounds take the fire past the view's first box.
    With ``density`` set, a box holds a byte per cell only while it has at
    most that many cells per burnt cell, so the marks also pass between
    bytes and a set of codes as the box grows."""
    state = _moved(state, dx, dy)
    floor, dense = ((engine._DENSE_FLOOR, engine._DENSE) if density is None
                    else (0, density))
    with mock.patch.multiple(engine, _DENSE_FLOOR=floor, _DENSE=dense):
        view = SimView(state)
        burnt = set(state.burnt)
        for _ in range(rounds):
            danger = scan_endangered(burnt, view.protected, view.topology)
            assert view.endangered_row_major() == tuple(sorted(danger, key=row_major))
            squad = [(x + dx, y + dy) for x, y in data.draw(_legal_squads(
                {(x - dx, y - dy) for x, y in burnt},
                {(x - dx, y - dy) for x, y in view.protected}))]
            ignited = view.play(squad, len(squad))
            assert ignited == tuple(sorted(danger - set(squad), key=row_major))
            burnt.update(ignited)
            assert view.burnt_count == len(burnt)
            if burnt:
                with pytest.raises(PlacementError, match="placement on a burnt point"):
                    view.play([data.draw(st.sampled_from(sorted(burnt)))], 1)
    assert view.round == state.round + rounds
    assert set(view.endangered_row_major()) == scan_endangered(
        burnt, view.protected, view.topology)


def test_marks_pass_between_bytes_and_a_set_of_codes():
    """A filled square whose fire escapes along a corridor of firefighters:
    with a byte per cell allowed for at most 6 box cells per burnt cell, its
    box goes from bytes to a set of codes as the fire runs down the
    corridor, back to bytes as it spreads out beyond, and to a set again;
    every round still plays as a full scan says, and no burnt cell takes a
    firefighter."""
    start = ball((0, 0), 6, "linf")
    ring = ball((0, 0), 7, "linf") - start - {(7, 0)}
    walls = {(x, y) for x in range(8, 10) for y in (-1, 1)}
    state = FireState(start, frozenset(ring | walls), 0, Topology.CARTESIAN)
    with mock.patch.multiple(engine, _DENSE_FLOOR=0, _DENSE=6):
        view = SimView(state)
        burnt = set(start)
        kinds = [type(view._marks)]
        for _ in range(40):
            danger = scan_endangered(burnt, view.protected, view.topology)
            assert view.endangered_row_major() == tuple(sorted(danger, key=row_major))
            ignited = view.play([], 0)
            assert ignited == tuple(sorted(danger, key=row_major))
            burnt.update(ignited)
            for cell in ((-6, -6), (6, 6), ignited[0], ignited[-1]):
                with pytest.raises(PlacementError, match="placement on a burnt point"):
                    view.play([cell], 1)
            if type(view._marks) is not kinds[-1]:
                kinds.append(type(view._marks))
    assert kinds == [bytearray, engine._CodeSet, bytearray, engine._CodeSet]
    assert view.burnt_count == len(burnt)


@pytest.mark.parametrize("topo", list(Topology), ids=lambda t: t.value)
def test_play_rejects_bad_squads_and_changes_nothing(topo):
    state = FireState(
        burnt=frozenset({(0, 0), (2, 0), (1, 1)}),  # (1, 0) is a hole
        protected=frozenset({(3, 0), (0, 5)}),
        round=7,
        topology=topo,
    )
    view = SimView(state)
    before = (view.burnt_count, set(view.protected), view.round,
              view.endangered_row_major())
    cases = [
        ([(1, 0), (0, 1)], 1, "2 placements exceed the 1 available"),
        ([(1, 0), (0, 1), (1, 0)], 3, "duplicate placement: (1, 0)"),
        ([(1, 0), (2, 0)], 2, "placement on a burnt point: (2, 0)"),
        ([(1, 0), (3, 0)], 2, "placement on a protected point: (3, 0)"),
    ]
    for squad, available, message in cases:
        with pytest.raises(PlacementError) as exc:
            view.play(squad, available)
        assert str(exc.value) == message
        assert (view.burnt_count, set(view.protected), view.round,
                view.endangered_row_major()) == before
    ignited = view.play([(1, 0)], 1)
    assert set(ignited) == scan_endangered(state.burnt, state.protected, topo) - {(1, 0)}
    assert view.round == 8


# The squads below are played on the radius-1 ball of _BISECT_START. E's
# lowest code is its row-major first cell and its highest code its last.
_BISECT_START = {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
_BISECT_SQUADS = {
    "lowest": lambda e: [e[0]],
    "highest": lambda e: [e[-1]],
    "off-E-between": lambda e: [(3, 0)],  # sorts right after (2, 0)
    "outside-box": lambda e: [(100, -100)],
    "ends-and-more": lambda e: [(100, -100), e[-1], (3, 0), e[len(e) // 2], e[0]],
    "all-of-E": lambda e: list(reversed(e)),
}


@pytest.mark.parametrize("topo", list(Topology), ids=lambda t: t.value)
@pytest.mark.parametrize("case", list(_BISECT_SQUADS))
def test_play_bisects_the_squad_out_of_E(topo, case):
    """A squad cell on E's lowest or highest code, a box cell off E that
    sorts between two of E's codes, a cell outside the box, several at once
    and the whole of E leave E as a full scan says, round after round, and
    a squad rejected on its last cell changes nothing."""
    view = SimView(FireState(frozenset(_BISECT_START), frozenset(), 0, topo))
    e = view.endangered_row_major()
    after = e.index((2, 0)) + 1
    assert (3, 0) not in e and row_major(e[after - 1]) < (0, 3) < row_major(e[after])
    squad = _BISECT_SQUADS[case](e)
    with pytest.raises(PlacementError, match="placement on a burnt point"):
        view.play([*squad, (0, 0)], len(squad) + 1)
    assert view.endangered_row_major() == e and view.protected == set()
    burnt = set(_BISECT_START)
    for _ in range(3):
        danger = scan_endangered(burnt, view.protected, topo)
        assert view.endangered_row_major() == tuple(sorted(danger, key=row_major))
        ignited = view.play(squad, len(squad))
        assert ignited == tuple(sorted(danger - set(squad), key=row_major))
        burnt.update(ignited)
        squad = []
    assert view.burnt_count == len(burnt)
    assert set(view.endangered_row_major()) == scan_endangered(burnt, view.protected, topo)
    if case == "all-of-E":
        assert burnt == _BISECT_START and view.endangered_row_major() == ()


@pytest.mark.parametrize("radius", [0, 1, 3])
def test_a_view_burns_the_ball_its_rounds_reach(radius):
    """A box that did not follow the fire would clip it: from one source, a
    view whose box held only one round's reach burnt 33 cells in four
    rounds, not the 41 of the radius-4 ball. A view built on a burnt ball
    of any radius burns four rounds further, to the ball of radius + 4."""
    start = ball((0, 0), radius, "l1")
    view = SimView(FireState(frozenset(start), frozenset(), 5, single_source().topology))
    burnt = set(start)
    for _ in range(4):
        burnt.update(view.play([], 0))
    assert burnt == ball((0, 0), radius + 4, "l1")
    assert view.burnt_count == len(burnt) == 2 * (radius + 4) * (radius + 5) + 1
    assert view.round == 9
    assert set(view.endangered_row_major()) == ball((0, 0), radius + 5, "l1") - burnt


def test_a_controlled_run_costs_nothing_for_its_horizon():
    """Four firefighters seal one Cartesian source at round 1, whatever the
    horizon: the view's box is sized by the fire, not by the rounds it may
    last."""
    started = time.perf_counter()
    trace = run(single_source(Topology.CARTESIAN), constant(4), GreedyNearest(), 10**9)
    assert time.perf_counter() - started < 1
    assert (trace.status, trace.control_round) == ("controlled", 1)
    assert trace.rounds[0].ignited == ()


def test_cells_far_apart_cost_memory_by_their_number():
    """Two sources 10**5 apart burn as two balls, and running, replaying and
    playing a round on a view of them holds well under a MB each: a byte per cell of their
    bounding box would be 10**10 bytes."""
    far = (10**5, 10**5)
    start = FireState(frozenset({(0, 0), far}), frozenset(), 0, Topology.CARTESIAN)
    tracemalloc.start()
    try:
        trace = run(start, constant(0), NullStrategy(), 30)
        replay_validate(RunTrace.from_text(trace.to_text()))
        after, _ = _played(start, [(1, 0)], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    burnt = start.burnt.union(*(rec.ignited for rec in trace.rounds))
    assert burnt == ball((0, 0), 30, "l1") | ball(far, 30, "l1")
    assert after == (ball((0, 0), 1, "l1") | ball(far, 1, "l1")) - {(1, 0)}


@settings(max_examples=200, deadline=None)
@given(state=_fire_states())
def test_kernel_matches_per_cell_scan(state):
    """A fresh view's E is a per-cell neighbor scan of any state, in
    row-major order."""
    danger = scan_endangered(state.burnt, state.protected, state.topology)
    assert SimView(state).endangered_row_major() == tuple(sorted(danger, key=row_major))


def test_run_free_burn_reaches_ball(origin_cartesian):
    trace = run(origin_cartesian, constant(0), NullStrategy(), 10)
    assert trace.status == "horizon"
    assert trace.state_at(10)[0] == ball((0, 0), 10, "l1")


def test_run_free_burn_ball_every_round(origin_cartesian, origin_strong):
    # After k spreads the single-source fire fills the radius-k metric ball.
    for state, metric in ((origin_cartesian, "l1"), (origin_strong, "linf")):
        trace = run(state, constant(0), NullStrategy(), 6)
        for k in range(1, 7):
            assert trace.state_at(k)[0] == ball((0, 0), k, metric)


def test_run_zero_budget_never_controlled(origin_cartesian):
    trace = run(origin_cartesian, constant(0), NullStrategy(), 50)
    assert trace.status == "horizon"
    assert trace.control_round is None


def test_run_detects_control(origin_cartesian):
    trace = run(origin_cartesian, constant(4), PlugFour(), 10)
    assert trace.status == "controlled"
    assert trace.control_round == 1
    assert trace.state_at(1)[0] == {(0, 0)}


def test_monotone_and_disjoint_along_trace(origin_cartesian):
    trace = run(origin_cartesian, periodic([2, 1]), RandomStrategy(3), 40)
    burnt: set = set()
    protected: set = set()
    prev_burnt = set(trace.initial)
    for rec in trace.rounds:
        protected.update(rec.placed)
        burnt = prev_burnt | set(rec.ignited)
        assert prev_burnt <= burnt
        assert not burnt & protected
        prev_burnt = burnt


def test_controlled_iff_noop_step():
    for protected in ({(1, 0), (-1, 0), (0, 1), (0, -1)}, {(1, 0)}):
        s = FireState(
            burnt=frozenset({(0, 0)}),
            protected=frozenset(protected),
            round=0,
            topology=Topology.CARTESIAN,
        )
        view = SimView(s)
        controlled = not view.endangered_row_major()
        assert controlled == (view.play([], 0) == ())


def test_trace_serialization_round_trip(origin_cartesian):
    trace = run(origin_cartesian, periodic([2, 1]), RandomStrategy(11), 25, seed=11)
    text = trace.to_text()
    parsed = RunTrace.from_text(text)
    assert parsed.to_text() == text
    assert parsed.rounds == trace.rounds
    assert parsed.status == trace.status


def test_replay_reproduces_identical_trace(origin_cartesian):
    trace = run(origin_cartesian, periodic([2, 1]), RandomStrategy(5), 30)
    replayed = run(origin_cartesian, periodic([2, 1]), ReplayStrategy(trace), 30)
    assert replayed.rounds == trace.rounds
    assert replayed.status == trace.status


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
def test_replay_determinism_random_runs(seed, period_head):
    init = single_source()
    budget = periodic([period_head, 1])
    a = run(init, budget, RandomStrategy(seed), 15)
    b = run(init, budget, RandomStrategy(seed), 15)
    assert a.to_text() == b.to_text()


def test_replay_validate_accepts_real_traces(origin_cartesian):
    trace = run(origin_cartesian, periodic([2, 1]), RandomStrategy(2), 20)
    replay_validate(trace)


def test_replay_validate_rejects_teleporting_fire(origin_cartesian):
    trace = run(origin_cartesian, constant(0), NullStrategy(), 5)
    bad = RunTrace.from_text(trace.to_text())
    rec = bad.rounds[2]
    bad.rounds[2] = RoundRecord(
        t=rec.t, f=rec.f, placed=rec.placed,
        ignited=rec.ignited + ((50, 50),),
    )
    with pytest.raises(MalformedTraceError) as exc:
        replay_validate(bad)
    assert exc.value.line == 4  # header + two good rounds


class FarDecoys:
    """In round 1, protects (1 + w, -1) for w = 8..40, all far out of reach.

    A run from (0, 0) holds cells as integer codes ``(y - y0)*W + (x - x0)``
    in a box W cells wide, and (1 + W, -1) would share the code of (1, 0),
    which the fire endangers in round 1. Whatever W is, one decoy is such an
    alias unless points outside the box are never encoded.
    """

    identifier = "decoys"

    def next_placements(self, view, available):
        return [(1 + w, -1) for w in range(8, 41)] if view.round == 0 else []


@pytest.mark.parametrize("topo", list(Topology), ids=lambda t: t.value)
def test_placements_outside_the_code_box_change_nothing(topo):
    start = single_source(topo)
    decoyed = run(start, constant(33), FarDecoys(), 6)
    plain = run(start, constant(33), NullStrategy(), 6)
    assert [r.ignited for r in decoyed.rounds] == [r.ignited for r in plain.rounds]
    replay_validate(decoyed)
    replay_validate(RunTrace.from_text(decoyed.to_text()))


def test_replay_validate_rejects_ignitions_aliasing_in_box_cells(origin_cartesian):
    """An ignition far outside the code box fails as any other wrong ignition
    does, whichever in-box cell its code would alias."""
    trace = run(origin_cartesian, constant(0), NullStrategy(), 6)
    assert trace.rounds[0].ignited == ((0, -1), (-1, 0), (1, 0), (0, 1))
    for w in range(8, 41):
        forged = RunTrace.from_text(trace.to_text())
        rec = forged.rounds[0]
        forged.rounds[0] = RoundRecord(
            t=rec.t, f=rec.f, placed=rec.placed,
            ignited=((0, -1), (-1, 0), (1 + w, -1), (0, 1)),
        )
        with pytest.raises(MalformedTraceError,
                           match="round 1: recorded ignitions do not match") as exc:
            replay_validate(forged)
        assert exc.value.line == 2


def _forged_round(trace: RunTrace, t: int, **fields) -> RunTrace:
    """A copy of ``trace`` read back, with round ``t``'s record changed."""
    forged = RunTrace.from_text(trace.to_text())
    forged.rounds[t - 1] = dataclasses.replace(forged.rounds[t - 1], **fields)
    return forged


@pytest.mark.parametrize("t, cell, why", [
    (1, (0, 0), "the source"),
    (3, (0, 0), "the source"),
    (2, (1, 0), "ignited in round 1"),
    (4, (0, -2), "ignited in round 2"),
])
def test_replay_validate_rejects_placements_on_burnt_cells(origin_cartesian, t, cell, why):
    """A placement on the source or on an earlier ignition is caught by the
    view's byte marks, which the replay sets as each layer burns."""
    trace = run(origin_cartesian, constant(1), NullStrategy(), 5)
    forged = _forged_round(trace, t, placed=(cell,))
    with pytest.raises(MalformedTraceError) as exc:
        replay_validate(forged)
    assert str(exc.value) == f"placement on a burnt point: {cell} (line {t + 1})", why


def test_replay_validate_rejects_ignition_of_a_protected_cell(origin_cartesian):
    """(3, 0) is placed in round 1 and then listed among round 3's ignitions,
    as the unprotected fire would burn it."""
    trace = run(origin_cartesian, constant(1), NullStrategy(), 3)
    assert (3, 0) in trace.rounds[2].ignited
    forged = _forged_round(trace, 1, placed=((3, 0),))
    with pytest.raises(MalformedTraceError) as exc:
        replay_validate(forged)
    assert str(exc.value) == (
        "round 3: recorded ignitions do not match the spread rule (line 4)")


def test_traces_share_one_int_object_per_coordinate():
    """Far from the origin every coordinate is its own int object unless the
    decoder and the reader share them; a trace then holds two per point.
    The 20-round fire outgrows the view's first box three times, so the
    shared ints also survive the box's regrowth."""
    start = FireState(frozenset({(1000, -1000)}), frozenset(), 0, Topology.CARTESIAN)
    trace = run(start, constant(0), NullStrategy(), 20)
    for t in (trace, RunTrace.from_text(trace.to_text())):
        coords = [c for rec in t.rounds for p in rec.ignited for c in p]
        assert len(coords) == 2 * 840
        assert len({id(c) for c in coords}) == len(set(coords)) == 82


def test_replay_validate_rejects_rounds_of_an_empty_fire(origin_cartesian):
    trace = run(origin_cartesian, constant(1), GreedyNearest(), 4)
    forged = RunTrace.from_text(trace.to_text())
    forged.initial = ()
    with pytest.raises(MalformedTraceError,
                       match="round 1: recorded after the fire was controlled") as exc:
        replay_validate(forged)
    assert exc.value.line == 2
    # With no rounds, an empty fire is controlled at round 0, and says so.
    empty = FireState(frozenset(), frozenset(), 0, Topology.CARTESIAN)
    trace = run(empty, constant(1), NullStrategy(), 4)
    assert (trace.status, trace.control_round, trace.rounds) == ("controlled", 0, [])
    replay_validate(trace)


class PlugFour:
    identifier = "plug"

    def next_placements(self, view, available):
        return [(1, 0), (-1, 0), (0, 1), (0, -1)][:available]


def _forged(trace: RunTrace, **header) -> RunTrace:
    forged = RunTrace.from_text(trace.to_text())
    for name, value in header.items():
        setattr(forged, name, value)
    return forged


@pytest.mark.parametrize(
    "strategy,budget,header",
    [
        # Every field of the header lies at once.
        (GreedyNearest(), constant(1),
         {"status": "controlled", "control_round": 1, "budget_desc": "const:99"}),
        (GreedyNearest(), constant(1), {"status": "controlled", "control_round": 10}),
        (GreedyNearest(), constant(1), {"budget_desc": "periodic:1,2"}),
        (GreedyNearest(), constant(1), {"budget_desc": "prefix:1|0"}),
        (GreedyNearest(), constant(1), {"budget_desc": "const:x"}),
        # A label that names no budget at all.
        (GreedyNearest(), constant(1), {"budget_desc": "nonsense"}),
        (GreedyNearest(), constant(1), {"budget_desc": "foo:1"}),
        (GreedyNearest(), constant(1), {"budget_desc": ""}),
        (GreedyNearest(), constant(1), {"budget_desc": "table:"}),
        (GreedyNearest(), constant(1), {"control_round": 3}),
        (PlugFour(), constant(4), {"status": "horizon", "control_round": None}),
        (PlugFour(), constant(4), {"control_round": 2}),
        (PlugFour(), constant(4), {"status": "finished"}),
        # ``run`` writes an error exactly when the status is "strategy-error".
        (PlugFour(), constant(4), {"error": "boom"}),
        (GreedyNearest(), constant(1), {"error": "boom"}),
        (GreedyNearest(), constant(1), {"status": "strategy-error"}),
        # Control claimed before round 1 while the source still spreads.
        (GreedyNearest(), constant(1), {"rounds": [], "status": "controlled", "control_round": 0}),
        # A cell listed twice in the source.
        (GreedyNearest(), constant(1), {"initial": ((0, 0), (0, 0))}),
        # ``run`` fails in round 11 after 10 rounds, and names the round.
        (GreedyNearest(), constant(1), {"status": "strategy-error", "error": "round 2: boom"}),
        (GreedyNearest(), constant(1), {"status": "strategy-error", "error": "boom"}),
        # ``run`` refuses a horizon below 1, so it stops at one only after a round.
        (GreedyNearest(), constant(1), {"rounds": []}),
    ],
    ids=["all-at-once", "controlled-still-burning", "periodic-budget",
         "prefix-budget", "unparsable-budget", "unknown-budget-kind",
         "unknown-budget-kind-with-value", "empty-budget", "table-budget-without-path",
         "uncontrolled-with-round",
         "controlled-as-horizon", "late-control-round", "unknown-status",
         "controlled-with-error", "horizon-with-error",
         "strategy-error-without-error", "controlled-at-round-0-while-spreading",
         "repeated-initial-cell", "strategy-error-in-a-past-round",
         "strategy-error-naming-no-round", "horizon-with-no-rounds"],
)
def test_replay_validate_rejects_forged_header(origin_cartesian, strategy, budget, header):
    trace = run(origin_cartesian, budget, strategy, 10)
    replay_validate(trace)
    with pytest.raises(MalformedTraceError) as exc:
        replay_validate(_forged(trace, **header))
    assert exc.value.line == 1
    if header.get("budget_desc") in ("const:x", "nonsense", "foo:1", "", "table:"):
        assert str(exc.value).startswith("bad header budget: ")
    if "error" in header or header.get("status") == "strategy-error":
        assert "status" in str(exc.value) and "error" in str(exc.value)
    if "initial" in header:
        assert str(exc.value) == "header initial lists a cell twice (line 1)"
    if header.get("error") == "round 2: boom":
        assert str(exc.value) == ("header status 'strategy-error' after 10 rounds "
                                  "contradicts its error 'round 2: boom' (line 1)")
    if header.get("rounds") == [] and "status" not in header:
        assert str(exc.value) == ("header status 'horizon' with no rounds: a run's "
                                  "horizon is at least 1 (line 1)")


class BurnAt:
    """Places on the source (0, 0) in round ``t``, which ``play`` refuses;
    with ``t`` = 0 its ``reset`` fails instead."""

    identifier = "burn-at"

    def __init__(self, t: int):
        self.t = t

    def reset(self, state):
        if self.t == 0:
            raise SimulationError("no plan for this source")

    def next_placements(self, view, available):
        return [(0, 0)] if view.round + 1 == self.t else []


@pytest.mark.parametrize("t", [0, 1, 2, 5])
def test_replay_validate_accepts_the_error_round_run_writes(origin_cartesian, t):
    """A run that fails in ``reset`` names round 0 and one that fails in
    round t >= 1 names round t, after t - 1 records; the replay accepts
    exactly that round."""
    trace = run(origin_cartesian, constant(1), BurnAt(t), 10)
    assert trace.status == "strategy-error" and trace.error.startswith(f"round {t}: ")
    assert len(trace.rounds) == max(t - 1, 0)
    replay_validate(RunTrace.from_text(trace.to_text()))
    for other in {0, 1, t - 1, t + 1} - ({0, 1} if t <= 1 else {t}):
        with pytest.raises(MalformedTraceError) as exc:
            replay_validate(_forged(trace, error=f"round {other}: boom"))
        assert exc.value.line == 1


def test_replay_validate_rejects_rounds_after_control(origin_cartesian):
    trace = run(origin_cartesian, constant(4), PlugFour(), 10)
    trace.rounds.append(RoundRecord(t=2, f=4, placed=(), ignited=()))
    trace.control_round = 2
    with pytest.raises(MalformedTraceError) as exc:
        replay_validate(trace)
    assert exc.value.line == 3


def test_replay_validate_never_opens_table_budgets(origin_cartesian, tmp_path):
    trace = run(origin_cartesian, constant(1), GreedyNearest(), 6)
    replay_validate(_forged(trace, budget_desc=f"table:{tmp_path / 'absent.json'}"))


@pytest.mark.parametrize("protected,round_no", [({(0, 1)}, 0), (set(), 3)])
def test_run_rejects_initial_state_a_trace_cannot_record(protected, round_no):
    state = FireState(
        burnt=frozenset({(0, 0)}), protected=frozenset(protected),
        round=round_no, topology=Topology.CARTESIAN,
    )
    with pytest.raises(ValueError):
        run(state, constant(1), NullStrategy(), 5)


@pytest.mark.parametrize("make, error, message", [
    (lambda: FireState(frozenset({(0, 0)}), frozenset({(0, 0)}), 0, Topology.CARTESIAN),
     SimulationError, "burnt and protected sets overlap"),
    (lambda: run(single_source(), constant(1), NullStrategy(), 0),
     ValueError, "horizon must be at least 1"),
], ids=["overlapping-state", "horizon-0"])
def test_engine_rejects_bad_input(make, error, message):
    with pytest.raises(error, match=f"^{message}"):
        make()


def test_trace_read_rejects_garbage():
    with pytest.raises(MalformedTraceError):
        RunTrace.read(io.StringIO("not json\n"))
    with pytest.raises(MalformedTraceError):
        RunTrace.read(io.StringIO(""))


def test_trace_read_reports_a_byte_order_mark():
    text = "\ufeff" + _greedy_const1_text()
    with pytest.raises(MalformedTraceError) as exc:
        RunTrace.read(io.StringIO(text))
    assert str(exc.value) == ("bad header: Unexpected UTF-8 BOM (decode using "
                              "utf-8-sig): line 1 column 1 (char 0) (line 1)")


def test_trace_read_reports_physical_line_numbers():
    lines = _greedy_const1_text().splitlines()
    bad_round = json.dumps({"t": 3, "f": 1, "placed": [], "ignited": [[0, "x"]]})
    text = "\n".join([lines[0], "", *lines[1:3], bad_round]) + "\n"
    with pytest.raises(MalformedTraceError, match=r"\(line 5\)") as exc:
        RunTrace.read(io.StringIO(text))
    assert exc.value.line == 5
    skipped = json.dumps({"t": 4, "f": 1, "placed": [], "ignited": []})
    text = "\n".join(["", lines[0], "  ", "", lines[1], skipped]) + "\n"
    with pytest.raises(MalformedTraceError, match="got 4") as exc:
        RunTrace.read(io.StringIO(text))
    assert exc.value.line == 6
    with pytest.raises(MalformedTraceError, match="bad header") as exc:
        RunTrace.read(io.StringIO("\n\n{}\n" + "\n".join(lines[1:])))
    assert exc.value.line == 3


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("separator", ["\u0085", "\u2028", "\u2029"],
                         ids=["U+0085", "U+2028", "U+2029"])
def test_trace_read_keeps_unicode_line_separators_inside_strings(separator, newline,
                                                                 tmp_path):
    """JSON allows these characters raw in a string, and ``str.splitlines``
    breaks lines at them: the header read as two lines and failed with
    ``bad header: Unterminated string``. Text and file alike may end their
    lines in LF, CRLF or CR."""
    plain = _greedy_const1_text()
    text = plain.replace('"strategy":"greedy"', f'"strategy":"gr{separator}eedy"')
    text = text.replace("\n", newline)
    path = tmp_path / "t.jsonl"
    path.write_bytes(text.encode("utf-8"))
    for trace in (RunTrace.from_text(text), RunTrace.load(str(path))):
        assert trace.strategy_id == f"gr{separator}eedy"
        assert trace.rounds == RunTrace.from_text(plain).rounds
        replay_validate(trace)


@pytest.mark.parametrize("line, newline", [(1, "\n"), (3, "\n"), (3, "\r\n"), (3, "\r")])
def test_trace_load_names_the_line_of_a_byte_that_is_not_utf8(line, newline, tmp_path):
    raw = [ln.encode() for ln in _greedy_const1_text().splitlines()]
    raw[line - 1] = raw[line - 1].replace(b'"t"', b'"\xff"').replace(b'"budget"', b'"\xff"')
    path = tmp_path / "t.jsonl"
    path.write_bytes(newline.encode().join(raw) + newline.encode())
    with pytest.raises(MalformedTraceError) as exc:
        RunTrace.load(str(path))
    assert str(exc.value) == f"not UTF-8: invalid start byte (line {line})"
    assert exc.value.line == line


def _greedy_const1_text() -> str:
    """Header plus ``{"t":1,"f":1,"placed":[[0,-1]],"ignited":[[-1,0],[1,0],[0,1]]}``."""
    return run(single_source(Topology.CARTESIAN), constant(1), GreedyNearest(), 3).to_text()


def _edit_json(line_no: int, **fields):
    def edit(text: str) -> str:
        lines = text.splitlines()
        obj = json.loads(lines[line_no - 1])
        obj.update(fields)
        lines[line_no - 1] = json.dumps(obj)
        return "\n".join(lines) + "\n"
    return edit


def _replace_line(line_no: int, new: str):
    def edit(text: str) -> str:
        lines = text.splitlines()
        lines[line_no - 1] = new
        return "\n".join(lines) + "\n"
    return edit


# Each edit yields a trace the parser must refuse at the given line; before
# parse-time type checks, every one of them was read without complaint.
MALFORMED_AT_PARSE = {
    # JSON booleans are Python ints, so this round replays as t = 1, (0, -1).
    "bool-round-and-point": (_replace_line(
        2, '{"t":true,"f":1,"placed":[[false,-1]],"ignited":[[0,1],[-1,0],[1,0]]}'), 2),
    "bool-f": (_edit_json(2, f=True), 2),
    "three-coordinates": (_edit_json(2, placed=[[0, 0, 7]]), 2),
    "string-point": (_edit_json(2, placed=["ab"]), 2),
    "float-coordinate": (_edit_json(3, ignited=[[-1.0, -1]]), 3),
    "fractional-f-table-budget": (
        lambda text: _edit_json(2, f=1.5)(_edit_json(1, budget="table:b.json")(text)), 2),
    "negative-f": (_edit_json(2, f=-1), 2),
    "bool-initial-point": (_edit_json(1, initial=[[False, 0]]), 1),
    "string-seed": (_edit_json(1, seed="7"), 1),
    "bool-control-round": (_edit_json(1, control_round=True), 1),
    # A budget label that is not a string would skip the budget check in replay.
    "list-budget": (_edit_json(1, budget=["const:1"]), 1),
    "number-strategy": (_edit_json(1, strategy=7), 1),
    "deep-nesting-header": (lambda text: "[" * 100_000, 1),
    "deep-nesting-round": (_replace_line(3, "[" * 100_000), 3),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_AT_PARSE))
def test_trace_read_rejects_malformed_fields(case):
    edit, line = MALFORMED_AT_PARSE[case]
    with pytest.raises(MalformedTraceError) as exc:
        RunTrace.from_text(edit(_greedy_const1_text()))
    assert exc.value.line == line


def test_trace_read_takes_only_the_keys_write_writes():
    # A key ``write`` never writes would be dropped by rewriting the trace.
    text = _greedy_const1_text()
    head, first = (json.loads(line) for line in text.splitlines()[:2])
    assert (head.keys(), first.keys()) == (_HEADER_KEYS, _ROUND_KEYS)
    for line, key, value in ((1, "extra", 5), (3, "junk", [1])):
        with pytest.raises(MalformedTraceError) as exc:
            RunTrace.from_text(_edit_json(line, **{key: value})(text))
        kind = "header" if line == 1 else "round record"
        assert str(exc.value) == f"bad {kind}: unknown key {key!r} (line {line})"
    # The optional header keys may still be left out, and read as their defaults.
    bare = {key: head[key] for key in ("topology", "initial", "budget", "strategy")}
    trace = RunTrace.from_text(json.dumps(bare) + "\n")
    assert (trace.seed, trace.status, trace.control_round, trace.error) == (
        None, "horizon", None, None)


# A malformed point list is named by its first bad point, whichever check
# fails there. The exact messages are pinned so that a faster reader keeps them.
MALFORMED_POINT_MESSAGES = {
    "three-coordinates": (2, "placed", [[0, 0, 7]],
        "bad round record: too many values to unpack (expected 2) (line 2)"),
    "one-coordinate": (2, "placed", [[0]],
        "bad round record: not enough values to unpack (expected 2, got 1) (line 2)"),
    "bare-number": (2, "placed", [5],
        "bad round record: 'int' object is not iterable (line 2)"),
    "string-point": (2, "placed", ["ab"],
        "bad round record: a point is two integers, got ['a', 'b'] (line 2)"),
    "bool-coordinate": (3, "ignited", [[1, True]],
        "bad round record: a point is two integers, got [1, True] (line 3)"),
    "float-coordinate": (3, "ignited", [[-1.0, -1]],
        "bad round record: a point is two integers, got [-1.0, -1] (line 3)"),
    "null-coordinate": (3, "ignited", [[0, 0], [None, 1]],
        "bad round record: a point is two integers, got [None, 1] (line 3)"),
    "short-before-string": (3, "ignited", [[0, 0], [1, 2, 3], ["a", 1]],
        "bad round record: too many values to unpack (expected 2) (line 3)"),
    "string-before-short": (3, "ignited", [[0, "a"], [1, 2, 3]],
        "bad round record: a point is two integers, got [0, 'a'] (line 3)"),
    "not-a-list": (3, "ignited", {"x": 1},
        "bad round record: a point list must be list, got {'x': 1} (line 3)"),
    "initial-pair-of-pairs": (1, "initial", [[[0, 0], 1]],
        "bad header: a point is two integers, got [[0, 0], 1] (line 1)"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_POINT_MESSAGES))
def test_malformed_point_messages(case):
    line, key, value, message = MALFORMED_POINT_MESSAGES[case]
    with pytest.raises(MalformedTraceError) as exc:
        RunTrace.from_text(_edit_json(line, **{key: value})(_greedy_const1_text()))
    assert str(exc.value) == message


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _valid_traces() -> list[str]:
    return [
        _greedy_const1_text(),
        run(single_source(Topology.CARTESIAN), constant(4), PlugFour(), 3).to_text(),
        run(single_source(Topology.STRONG), periodic([2, 1]), RandomStrategy(3), 4).to_text(),
        run(single_source(Topology.TRIANGULAR), constant(0), NullStrategy(), 2).to_text(),
    ]


@st.composite
def _mutated_traces(draw) -> str:
    text = draw(st.sampled_from(_valid_traces()))
    if draw(st.booleans()):
        # Replace one field of one line, or one of its points, with arbitrary JSON.
        lines = text.splitlines()
        i = draw(st.integers(0, len(lines) - 1))
        obj = json.loads(lines[i])
        key = draw(st.sampled_from(sorted(obj)))
        if isinstance(obj[key], list) and obj[key] and draw(st.booleans()):
            obj[key][draw(st.integers(0, len(obj[key]) - 1))] = draw(_JSON)
        else:
            obj[key] = draw(_JSON)
        lines[i] = json.dumps(obj)
        return "\n".join(lines) + "\n"
    # Splice arbitrary characters over a stretch of the text.
    a = draw(st.integers(0, len(text)))
    b = draw(st.integers(a, min(len(text), a + 8)))
    return text[:a] + draw(st.text(max_size=6)) + text[b:]


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200) | _mutated_traces())
def test_untrusted_trace_text_fails_only_as_malformed(text):
    try:
        replay_validate(RunTrace.from_text(text))
    except MalformedTraceError:
        pass


def test_strategy_may_place_fewer_than_budget(origin_cartesian):
    class OneOnly:
        identifier = "one"

        def next_placements(self, view, available):
            targets = sorted(view.endangered_row_major(), key=lambda p: (p[1], p[0]))
            return targets[:1]

    trace = run(origin_cartesian, constant(3), OneOnly(), 5)
    assert trace.status == "horizon"
    assert all(len(rec.placed) == 1 for rec in trace.rounds)
