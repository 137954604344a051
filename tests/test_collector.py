"""The cyclic collector is held off while a trace is made, read, replayed or
walked, and that defers no garbage.

``grid._collector_off`` turns the collector off for ``run``,
``replay_validate``, ``RunTrace.read`` and ``check_invariants``. That is sound
only because those calls make no reference cycles: whatever they drop,
reference counting frees. The first test holds that premise in the pattern of
``tests/test_search.py::test_a_search_leaves_no_cyclic_garbage``. The others
hold that the collector is off inside the calls, that each call leaves it as
it found it, and that cycles a strategy makes are collected afterwards. The
last three hold that what a call leaves alive is promoted out of the young
generation, that a caller's frozen objects stay frozen, and that promotion is
bounded: a full collection comes in time without being asked for.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from gridfire import grid
from gridfire.budget import containment_budget, periodic
from gridfire.engine import FireState, replay_validate, run
from gridfire.grid import Topology
from gridfire.monitor import check_invariants
from gridfire.reduction import run_reduction
from gridfire.strategies import GreedyNearest, NullStrategy, RandomStrategy, ScriptedStrategy
from gridfire.trace import MalformedTraceError, RunTrace
from gridfire.wallplan import ContainmentStrategy, wall_plan

BUDGET = periodic([2, 1])
ROUNDS = 30


def _source(topo: Topology) -> FireState:
    return FireState.source(topo, 0)


def _true(topo: Topology) -> RunTrace:
    return run(_source(topo), BUDGET, GreedyNearest(), ROUNDS)


def _forged(topo: Topology) -> RunTrace:
    """A true trace whose header claims control it never reached."""
    return dataclasses.replace(_true(topo), status="controlled", control_round=3)


def _contain(topo: Topology) -> RunTrace:
    plan = wall_plan(1, 1)
    return run(FireState.source(topo, 1), containment_budget(1), ContainmentStrategy(plan),
               plan.horizon)


def _calls(topo: Topology) -> dict:
    """The wrapped calls to try on ``topo``, by name: (call, check), where
    ``call`` takes no argument and ``check`` holds its result, or is the
    exception class it must raise."""
    source = _source(topo)
    text = _true(topo).to_text()
    forged = _forged(topo)
    calls = {
        "run-greedy": (lambda: run(source, BUDGET, GreedyNearest(), ROUNDS),
                       lambda trace: trace.status == "horizon"),
        "run-random": (lambda: run(source, BUDGET, RandomStrategy(7), ROUNDS),
                       lambda trace: trace.status == "horizon"),
        # Off the strong grid the plan refuses the fire in ``reset``.
        "run-contain": (lambda: _contain(topo),
                        lambda trace: trace.status == ("controlled" if topo is Topology.STRONG
                                                       else "strategy-error")),
        "run-strategy-error": (
            lambda: run(source, BUDGET, ScriptedStrategy("burnt", {2: [(0, 0)]}), ROUNDS),
            lambda trace: trace.status == "strategy-error" and trace.error.startswith("round 2:")),
        "read": (lambda: RunTrace.from_text(text), lambda trace: trace.to_text() == text),
        "read-garbage": (lambda: RunTrace.from_text('{"topology": [1, [2, '),
                         MalformedTraceError),
        "replay": (lambda: replay_validate(RunTrace.from_text(text)),
                   lambda result: result is None),
        "replay-forged": (lambda: replay_validate(forged), MalformedTraceError),
    }
    if topo is Topology.CARTESIAN:
        trace = RunTrace.from_text(text)
        plan = wall_plan(1, 1)
        calls.update({
            "monitor": (lambda: check_invariants(trace), lambda report: report.ok),
            "monitor-unvalidated": (lambda: check_invariants(trace, validate=False),
                                    lambda report: report.ok),
            "reduction": (lambda: run_reduction(ContainmentStrategy(plan),
                                                containment_budget(1), 1, plan.horizon),
                          lambda report: report.ok),
        })
    return calls


_EVERY_GRID = ["run-greedy", "run-random", "run-contain", "run-strategy-error", "read",
               "read-garbage", "replay", "replay-forged"]
_CARTESIAN_ONLY = ["monitor", "monitor-unvalidated", "reduction"]
CASES = [(topo, name) for topo in Topology
         for name in _EVERY_GRID + (_CARTESIAN_ONLY if topo is Topology.CARTESIAN else [])]


def _checked(call, check) -> None:
    if isinstance(check, type):
        with pytest.raises(check):
            call()
    else:
        assert check(call())


@pytest.mark.parametrize("topo,name", CASES, ids=[f"{t.value}-{n}" for t, n in CASES])
def test_a_wrapped_call_leaves_no_cyclic_garbage(topo, name):
    # Whatever these calls allocate is freed by reference counting alone, so
    # holding the collector off during them leaves it nothing to find.
    call, check = _calls(topo)[name]
    gc.collect()
    gc.disable()
    try:
        _checked(call, check)
        assert gc.collect() == 0
    finally:
        gc.enable()


class _Watcher:
    """Plays nothing and records whether the collector was on each round."""

    identifier = "watcher"

    def __init__(self):
        self.seen: list[bool] = []

    def next_placements(self, view, available: int) -> list:
        self.seen.append(gc.isenabled())
        return []


def test_a_run_holds_the_collector_off():
    assert gc.isenabled()
    watcher = _Watcher()
    run(_source(Topology.CARTESIAN), BUDGET, watcher, 5)
    assert watcher.seen == [False] * 5
    assert gc.isenabled()


class _Raises:
    identifier = "raises"

    def next_placements(self, view, available: int) -> list:
        raise RuntimeError("a strategy's own bug")


_CARTESIAN = Topology.CARTESIAN
_RESTORE_CALLS = {
    "run": (lambda: run(_source(_CARTESIAN), BUDGET, GreedyNearest(), 5),
            lambda trace: trace.status == "horizon"),
    "run-horizon-0": (lambda: run(_source(_CARTESIAN), BUDGET, GreedyNearest(), 0),
                      ValueError),
    "run-strategy-raises": (lambda: run(_source(_CARTESIAN), BUDGET, _Raises(), 5),
                            RuntimeError),
    "read": (lambda: RunTrace.from_text(_true(_CARTESIAN).to_text()),
             lambda trace: len(trace.rounds) == ROUNDS),
    "read-garbage": (lambda: RunTrace.from_text("not json"), MalformedTraceError),
    "replay": (lambda: replay_validate(_true(_CARTESIAN)), lambda result: result is None),
    "replay-forged": (lambda: replay_validate(_forged(_CARTESIAN)), MalformedTraceError),
    "monitor": (lambda: check_invariants(_true(_CARTESIAN)), lambda report: report.ok),
    "monitor-strong": (lambda: check_invariants(_true(Topology.STRONG)), ValueError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["from-enabled", "from-disabled"])
@pytest.mark.parametrize("name", list(_RESTORE_CALLS))
def test_a_wrapped_call_restores_the_collector(name, enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        _checked(*_RESTORE_CALLS[name])
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


class _Knot:
    """An object that refers to itself: garbage only the collector frees."""

    def __init__(self):
        self.me = self


class _KnotMaker:
    """Plays nothing; leaves one reference cycle behind each round, and
    records how many of the earlier ones are still alive."""

    identifier = "knots"

    def __init__(self):
        self.refs: list[weakref.ref] = []
        self.alive: list[int] = []

    def next_placements(self, view, available: int) -> list:
        self.alive.append(sum(ref() is not None for ref in self.refs))
        self.refs.append(weakref.ref(_Knot()))
        return []


def test_cycles_a_strategy_makes_are_collected_after_the_run():
    maker = _KnotMaker()
    gc.collect()
    run(_source(Topology.CARTESIAN), BUDGET, maker, 40)
    # Deferred: no round's collection freed an earlier round's cycle...
    assert maker.alive == list(range(40))
    # ...and not lost: the collector frees them all once the run is over.
    gc.collect()
    assert all(ref() is None for ref in maker.refs)


def _reachable_ids(root) -> set[int]:
    """The ids of ``root`` and of every object the collector tracks below it."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for child in gc.get_referents(stack.pop()):
            if gc.is_tracked(child) and id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return seen


# ``run_reduction`` is not wrapped: it builds its report after its runs end.
_RETURNING = [(topo, name) for topo, name in CASES
              if name != "reduction" and not isinstance(_calls(topo)[name][1], type)]


@pytest.mark.parametrize("topo,name", _RETURNING, ids=[f"{t.value}-{n}" for t, n in _RETURNING])
def test_a_wrapped_call_leaves_nothing_it_returns_young(topo, name):
    # The call ends by moving its survivors to the oldest generation (or by a
    # full collection), so no young collection walks them later.
    call, check = _calls(topo)[name]
    assert gc.isenabled() and gc.get_freeze_count() == 0
    result = call()
    young = {id(obj) for obj in gc.get_objects(0)}
    assert check(result)
    assert young.isdisjoint(_reachable_ids(result))


def test_a_call_leaves_a_callers_frozen_objects_frozen():
    gc.collect()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        trace = run(_source(Topology.CARTESIAN), BUDGET, GreedyNearest(), ROUNDS)
        assert gc.get_freeze_count() == frozen
        assert RunTrace.from_text(trace.to_text()) == trace
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


PROMOTION_BOUND = 100


def test_promotion_is_bounded_by_a_full_collection(monkeypatch):
    # Promotion alone would keep every knot below alive: no young collection
    # ever sees it, and CPython's own rule for full collections does not
    # count promoted objects. The tally runs one full collection instead.
    monkeypatch.setattr(grid, "_PROMOTION_FLOOR", PROMOTION_BOUND)
    monkeypatch.setattr(grid, "_promotion_bound", PROMOTION_BOUND)
    monkeypatch.setattr(grid, "_promoted", 0)
    monkeypatch.setattr(grid.sys, "getallocatedblocks", lambda: 0)
    assert gc.isenabled() and gc.get_freeze_count() == 0
    refs = []
    for _ in range(2 * PROMOTION_BOUND):
        refs.append(weakref.ref(_Knot()))
        run(_source(Topology.CARTESIAN), BUDGET, NullStrategy(), 5)
    assert sum(ref() is not None for ref in refs) <= PROMOTION_BOUND
