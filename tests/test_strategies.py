"""Baseline strategies and strategy parsing."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gridfire.budget import Budget, constant, parse_budget, periodic
from gridfire.engine import FireState, SimView, run
from gridfire.grid import Topology
from gridfire.strategies import (
    GreedyNearest,
    NullStrategy,
    RandomStrategy,
    ReplayStrategy,
    parse_strategy,
)
from gridfire import wallplan
from gridfire.wallplan import ContainmentStrategy

from conftest import single_source


def _view(burnt, protected, topo=Topology.CARTESIAN, round_no=0):
    return SimView(FireState(frozenset(burnt), frozenset(protected), round_no, topo))


def _greedy(burnt) -> GreedyNearest:
    """A greedy player reset on a fire whose burnt cells are ``burnt``."""
    player = GreedyNearest()
    player.reset(FireState(frozenset(burnt), frozenset(), 0, Topology.CARTESIAN))
    return player


def test_null_strategy_places_nothing():
    view = _view({(0, 0)}, set())
    assert NullStrategy().next_placements(view, 5) == []


def test_greedy_ties_break_row_major():
    view = _view({(0, 0)}, set())
    picks = _greedy({(0, 0)}).next_placements(view, 2)
    assert picks == [(0, -1), (-1, 0)]


def test_greedy_prefers_cells_near_centroid():
    # Mass sits to the east; the eastern endangered cells are closer to the
    # centroid than the western tail's.
    burnt = {(0, 0), (1, 0), (2, 0)}
    view = _view(burnt, set())
    picks = _greedy(burnt).next_placements(view, 1)
    assert picks == [(1, -1)]


def test_greedy_respects_budget_and_legality():
    view = _view({(0, 0)}, {(0, 1)})
    picks = _greedy({(0, 0)}).next_placements(view, 10)
    assert len(picks) == 3
    assert (0, 1) not in picks


def per_cell_greedy(burnt, view, available):
    """The former GreedyNearest: sort E by a per-cell Python key over the
    view's ``burnt`` cells."""
    n = len(burnt)
    sx = sum(p[0] for p in burnt)
    sy = sum(p[1] for p in burnt)

    def key(p):
        dx = n * p[0] - sx
        dy = n * p[1] - sy
        return (dx * dx + dy * dy, p[1], p[0])

    return sorted(view.endangered_row_major(), key=key)[:available]


@settings(max_examples=200, deadline=None)
@given(
    topo=st.sampled_from(list(Topology)),
    burnt=st.sets(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                  min_size=1, max_size=40),
    protected=st.sets(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=12),
    available=st.integers(0, 50),
)
def test_greedy_matches_per_cell_key(topo, burnt, protected, available):
    view = _view(burnt, protected - burnt, topo)
    assert view.burnt_count == len(burnt)
    assert _greedy(burnt).next_placements(view, available) == per_cell_greedy(
        burnt, view, available
    )


class SumWatcher(GreedyNearest):
    """Plays as ``GreedyNearest`` and records its burnt sums before each round."""

    def reset(self, state):
        super().reset(state)
        self.seen = {}

    def next_placements(self, view, available):
        self.seen[view.round + 1] = self._sums
        return super().next_placements(view, available)


# Supplies with zero-supply rounds, which the player still folds into its sums.
_ZERO_ROUNDS = (parse_budget("prefix:0,2|1"),
                Budget(prefix=(2, 0, 0, 3, 0, 1), cycle=(0,), label="table:sums.json"))
_CENTERS = st.tuples(st.integers(-9, 9), st.integers(-9, 9))


@settings(max_examples=60, deadline=None)
@given(topo=st.sampled_from(list(Topology)),
       budget=st.sampled_from(_ZERO_ROUNDS + (constant(1), periodic([2, 1]))),
       radius=st.integers(0, 2), center=_CENTERS, other=_CENTERS,
       horizon=st.integers(1, 12))
def test_greedy_keeps_the_burnt_sums_of_its_run(topo, budget, radius, center, other, horizon):
    """Before round t the player's sums are those of the cells burnt after
    round t - 1, and a player reused for a run from another source plays it
    as a fresh one does, so ``reset`` seeds the sums anew."""
    player = SumWatcher()
    trace = run(FireState.source(topo, radius, center), budget, player, horizon)
    assert sorted(player.seen) == [rec.t for rec in trace.rounds]
    for t, sums in player.seen.items():
        burnt = trace.state_at(t - 1)[0]
        assert sums == (sum(x for x, _ in burnt), sum(y for _, y in burnt))
    start = FireState.source(topo, radius, other)
    fresh = run(start, budget, GreedyNearest(), horizon)
    assert run(start, budget, player, horizon).to_text() == fresh.to_text()


def test_random_is_seed_deterministic():
    view1 = _view({(0, 0)}, set())
    view2 = _view({(0, 0)}, set())
    a = RandomStrategy(99).next_placements(view1, 2)
    b = RandomStrategy(99).next_placements(view2, 2)
    assert a == b
    assert len(a) == 2


def test_random_places_only_endangered():
    view = _view({(0, 0)}, set())
    picks = RandomStrategy(0).next_placements(view, 4)
    assert set(picks) <= {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_replay_errors_on_illegal_state(origin_cartesian):
    trace = run(origin_cartesian, periodic([2, 1]), RandomStrategy(1), 10)
    other = single_source(Topology.STRONG)  # fire overruns the same cells sooner
    replayed = run(other, periodic([2, 1]), ReplayStrategy(trace), 10)
    assert replayed.status == "strategy-error"
    assert "round" in replayed.error


def test_parse_strategy_specs():
    assert isinstance(parse_strategy("null"), NullStrategy)
    assert isinstance(parse_strategy("greedy"), GreedyNearest)
    rnd = parse_strategy("random:seed=7")
    assert isinstance(rnd, RandomStrategy)
    assert rnd.identifier == "random:seed=7"
    contain = parse_strategy("contain:m=2,r=1")
    assert isinstance(contain, ContainmentStrategy)
    assert contain.plan.m == 2 and contain.plan.r == 1


def test_parse_strategy_requires_seed():
    with pytest.raises(ValueError):
        parse_strategy("random")
    with pytest.raises(ValueError):
        parse_strategy("bogus:x=1")


def test_parse_replay_round_trips(tmp_path, origin_cartesian):
    trace = run(origin_cartesian, constant(1), GreedyNearest(), 8)
    path = tmp_path / "trace.jsonl"
    path.write_text(trace.to_text())
    strat = parse_strategy(f"replay:file={path}")
    replayed = run(origin_cartesian, constant(1), strat, 8)
    assert replayed.rounds == trace.rounds


def test_replay_path_may_hold_commas(tmp_path, origin_cartesian):
    trace = run(origin_cartesian, constant(1), GreedyNearest(), 8)
    path = tmp_path / "runs,1" / "a,file=b.jsonl"
    path.parent.mkdir()
    path.write_text(trace.to_text())
    strat = parse_strategy(f"replay:file={path}")
    assert run(origin_cartesian, constant(1), strat, 8).rounds == trace.rounds
    with pytest.raises(ValueError, match="unknown replay strategy parameter: 'x'"):
        parse_strategy(f"replay:x=1,file={path}")


@pytest.mark.parametrize("spec,kind,key,value", [
    ("random:seed=x", "random", "seed", "x"),
    ("contain:m=x", "contain", "m", "x"),
    ("contain:m=2,r=1.0", "contain", "r", "1.0"),
])
def test_parse_strategy_names_a_parameter_that_is_not_an_integer(spec, kind, key, value):
    with pytest.raises(ValueError) as info:
        parse_strategy(spec)
    assert str(info.value) == (
        f"{kind} strategy parameter {key!r} must be an integer, got {value!r}")


@pytest.mark.parametrize("spec", [
    "null:", "null:anything", "greedy:x", "contain:m=1,m=2", "contain:m=2,q=1",
    "random:seed=1,seed=2", "random:seed=1,extra=2", "replay:file=a,file=b",
])
def test_parse_strategy_rejects_ignored_parameters(spec):
    with pytest.raises(ValueError):
        parse_strategy(spec)


def test_unloadable_replay_is_a_value_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not a trace\n")
    for target, message in ((tmp_path / "absent.jsonl", "cannot read replay trace"),
                            (tmp_path, "cannot read replay trace"),
                            (bad, "malformed replay trace")):
        with pytest.raises(ValueError, match=message):
            parse_strategy(f"replay:file={target}")


_PARAM = st.builds(lambda key, eq, value: key + eq + value,
                   st.sampled_from(["m", "r", "seed", "file", "x", "", " m"]),
                   st.sampled_from(["=", ""]),
                   st.text(alphabet="0123456789- _x", max_size=4))
_STRATEGY_TEXT = st.one_of(
    st.text(),
    st.builds(lambda kind, sep, params: kind + sep + ",".join(params),
              st.sampled_from(["null", "greedy", "random", "contain", "replay", "x", ""]),
              st.sampled_from([":", ""]),
              st.lists(_PARAM, max_size=3)),
)


@settings(max_examples=300, deadline=None)
@given(spec=_STRATEGY_TEXT)
def test_parse_strategy_raises_only_value_error(spec):
    real = wallplan.wall_plan

    def small_plan(m, r):
        # A plan grows as r*m^2; build a small one for whatever positive
        # sizes the text asks for.
        return real(m if m < 1 else min(m, 2), r if r < 1 else min(r, 2))

    with mock.patch.object(wallplan, "wall_plan", small_plan):
        try:
            parse_strategy(spec)
        except ValueError:
            pass
