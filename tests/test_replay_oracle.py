"""``replay_validate`` against the point-set reference, on mutants of true traces.

Each case takes one of 36 traces that ``run`` wrote (3 grids x 4 budgets x 3
players, 6 rounds) and applies one or two of the mutators below. The validator
reads the mutant from its text, as ``gridfire monitor`` does, and must accept
it exactly when ``conftest.reference_accepts`` does.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache

from hypothesis import example, given, settings, strategies as st

from gridfire.budget import parse_budget
from gridfire.engine import replay_validate, run
from gridfire.grid import Topology
from gridfire.monitor import check_invariants
from gridfire.strategies import GreedyNearest, NullStrategy, RandomStrategy
from gridfire.trace import MalformedTraceError, RunTrace

from conftest import reference_accepts, single_source

BUDGETS = ("const:1", "const:2", "periodic:2,1", "const:4")
PLAYERS = (GreedyNearest, lambda: RandomStrategy(7), NullStrategy)
STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


@cache
def _traces() -> tuple[RunTrace, ...]:
    return tuple(
        run(single_source(topology), parse_budget(budget), player(), 6)
        for topology in Topology
        for budget in BUDGETS
        for player in PLAYERS
    )


def _copy(trace: RunTrace) -> RunTrace:
    return RunTrace.from_text(trace.to_text())


def _round(draw, trace: RunTrace, field: str = "") -> int | None:
    """A drawn round index, among the rounds whose ``field`` is nonempty."""
    rows = [i for i, rec in enumerate(trace.rounds) if not field or getattr(rec, field)]
    return draw(st.sampled_from(rows)) if rows else None


def _edit_ignited(draw, trace: RunTrace, how) -> None:
    i = _round(draw, trace, "ignited")
    if i is not None:
        cells = list(trace.rounds[i].ignited)
        how(draw, cells, draw(st.integers(0, len(cells) - 1)))
        trace.rounds[i] = replace(trace.rounds[i], ignited=tuple(cells))


def move_ignition(draw, trace):
    def move(draw, cells, j):
        dx, dy = draw(st.sampled_from(STEPS))
        cells[j] = (cells[j][0] + dx, cells[j][1] + dy)
    _edit_ignited(draw, trace, move)


def repeat_ignition(draw, trace):
    _edit_ignited(draw, trace, lambda draw, cells, j: cells.insert(j, cells[j]))


def reverse_ignitions(draw, trace):
    _edit_ignited(draw, trace, lambda draw, cells, j: cells.reverse())


def shift_f(draw, trace):
    i = _round(draw, trace)
    if i is not None:
        rec = trace.rounds[i]
        trace.rounds[i] = replace(rec, f=rec.f + draw(st.sampled_from((-1, 1))))


def rewrite_header(draw, trace):
    final = trace.final_round()
    trace.status = draw(st.sampled_from(("controlled", "horizon", "strategy-error", "done")))
    trace.control_round = draw(st.sampled_from((None, 0, final - 1, final, final + 1)))
    # ``run`` names round final + 1, or round 0 or 1 when there are no rounds.
    trace.error = draw(st.sampled_from(
        (None, f"round {final}: boom", f"round {final + 1}: boom", f"round {final + 2}: boom")))


def drop_last_round(draw, trace):
    if trace.rounds:
        trace.rounds.pop()


def swap_topology(draw, trace):
    trace.topology = draw(st.sampled_from([t for t in Topology if t is not trace.topology]))


def repeat_initial(draw, trace):
    cells = list(trace.initial)
    j = draw(st.integers(0, len(cells) - 1))
    cells.insert(draw(st.integers(0, len(cells))), cells[j])
    trace.initial = tuple(cells)


def place_on_taken(draw, trace):
    """Add a placement on a cell that burnt or was protected before its round."""
    i = _round(draw, trace)
    if i is not None:
        burnt, protected = trace.state_at(i)
        cell = draw(st.sampled_from(sorted(burnt | protected)))
        trace.rounds[i] = replace(trace.rounds[i], placed=trace.rounds[i].placed + (cell,))


def place_too_many(draw, trace):
    """Pad a round's squad, far from the fire, to one more than its f."""
    i = _round(draw, trace)
    if i is not None:
        rec = trace.rounds[i]
        extra = tuple((1000 + k, 1000) for k in range(rec.f + 1 - len(rec.placed)))
        trace.rounds[i] = replace(rec, placed=rec.placed + extra)


MUTATORS = (move_ignition, repeat_ignition, reverse_ignitions, shift_f, rewrite_header,
            drop_last_round, swap_topology, repeat_initial, place_on_taken, place_too_many)


@st.composite
def _mutants(draw) -> tuple[RunTrace, RunTrace]:
    original = draw(st.sampled_from(_traces()))
    mutant = _copy(original)
    for mutate in draw(st.lists(st.sampled_from(MUTATORS), min_size=1, max_size=2)):
        mutate(draw, mutant)
    return original, mutant


def _forged(budget: str, **fields) -> tuple[RunTrace, RunTrace]:
    """The Cartesian greedy run under ``budget``, and a copy with ``fields`` set."""
    original = next(trace for trace in _traces() if trace.topology is Topology.CARTESIAN
                    and trace.budget_desc == budget and trace.strategy_id == "greedy")
    mutant = _copy(original)
    for name, value in fields.items():
        setattr(mutant, name, value)
    return original, mutant


def test_the_run_traces_pass_the_reference_and_end_both_ways():
    statuses = {trace.status for trace in _traces()}
    assert statuses == {"controlled", "horizon"}
    assert all(reference_accepts(trace) for trace in _traces())


@settings(max_examples=300, deadline=None)
@given(_mutants())
# A 6-round run cannot fail in round 2, and a run of no rounds cannot stop
# at its horizon.
@example(_forged("const:1", status="strategy-error", error="round 2: boom"))
@example(_forged("const:4", rounds=[], status="horizon", control_round=None))
def test_replay_validate_accepts_exactly_what_the_reference_accepts(case):
    original, mutant = case
    try:
        replay_validate(RunTrace.from_text(mutant.to_text()))
        accepted = True
    except MalformedTraceError:
        accepted = False
    assert accepted == reference_accepts(mutant)
    if accepted and mutant.topology is Topology.CARTESIAN:
        # An accepted mutant is the original run, perhaps cut short, under
        # another header; the monitor reads only the run.
        cut = _copy(original)
        cut.topology = mutant.topology
        del cut.rounds[len(mutant.rounds):]
        assert check_invariants(mutant, validate=False) == check_invariants(cut, validate=False)
