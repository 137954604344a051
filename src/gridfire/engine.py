"""The spreading process: states, the place-then-spread step, and the run loop.

A round does two things in fixed order: the next squad of firefighters is
placed, then the fire spreads to every unprotected, unburnt neighbor of a
burning point. Round 0 is the freshly ignited source; after k rounds the
free-burning fire from a single point occupies the metric ball of radius k.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add
from typing import AbstractSet, Iterable, Sequence

from .budget import Budget, parse_budget
from .grid import _OFFSETS, Point, Topology, check_range, columns, row_major
from .trace import MalformedTraceError, RoundRecord, RunTrace


class SimulationError(Exception):
    pass


class PlacementError(SimulationError):
    """An illegal placement; ``point`` identifies the offender when applicable."""

    def __init__(self, message: str, point: Point | None = None):
        self.point = point
        super().__init__(message if point is None else f"{message}: {point}")


class StrategyError(SimulationError):
    """A strategy cannot honor its own contract (e.g. a wall deadline passed)."""

    def __init__(self, message: str, round_no: int | None = None):
        self.round_no = round_no
        where = f" at round {round_no}" if round_no is not None else ""
        super().__init__(message + where)


@dataclass(frozen=True)
class FireState:
    burnt: frozenset[Point]
    protected: frozenset[Point]
    round: int
    topology: Topology

    def __post_init__(self) -> None:
        if self.burnt & self.protected:
            raise SimulationError("burnt and protected sets overlap")


def endangered_near(
    cells: Iterable[Point],
    burnt: AbstractSet[Point],
    protected: AbstractSet[Point],
    topology: Topology,
) -> frozenset[Point]:
    """Unburnt, unprotected neighbors of ``cells``: the one spread rule.

    Over the whole burnt set this is the endangered set E. After squad S,
    ignited = E - S and E' = endangered_near(ignited) on the updated sets, since
    every other neighbor of an older burnt point was in E. The fire is
    controlled exactly when E is empty.

    The neighbors are built column-wise: each offset zips a shifted copy of
    the x column with one of the y column, so no Python code runs per cell.
    Only the neighbor set is walked when burnt and protected are removed, so
    a round costs O(|cells|) however large the burnt set has grown.
    """
    xs, ys = columns(cells)
    shifted_x = {d: tuple(map(add, xs, repeat(d))) for d in (-1, 1)}
    shifted_y = {d: tuple(map(add, ys, repeat(d))) for d in (-1, 1)}
    shifted_x[0], shifted_y[0] = xs, ys
    near: set[Point] = set()
    for dx, dy in _OFFSETS[topology]:
        near.update(zip(shifted_x[dx], shifted_y[dy]))
    return frozenset((near - burnt) - protected)


def endangered(state: FireState) -> frozenset[Point]:
    """Unburnt, unprotected points adjacent to a burning point."""
    check_range(state.burnt)
    return endangered_near(state.burnt, state.burnt, state.protected, state.topology)


def is_controlled(state: FireState) -> bool:
    """True when the fire has nowhere left to spread."""
    return not endangered(state)


def _validate_placements(
    placements: Sequence[Point],
    burnt: AbstractSet[Point],
    protected: AbstractSet[Point],
    available: int,
) -> None:
    if len(placements) > available:
        raise PlacementError(
            f"{len(placements)} placements exceed the {available} available"
        )
    seen: set[Point] = set()
    for p in placements:
        if p in seen:
            raise PlacementError("duplicate placement", p)
        if p in burnt:
            raise PlacementError("placement on a burnt point", p)
        if p in protected:
            raise PlacementError("placement on a protected point", p)
        seen.add(p)


def step(state: FireState, placements: Sequence[Point], budget: Budget) -> FireState:
    """Advance one round: place the next squad, then spread the fire."""
    t_next = state.round + 1
    _validate_placements(placements, state.burnt, state.protected, budget.at(t_next))
    return FireState(
        burnt=state.burnt | endangered(state).difference(placements),
        protected=state.protected.union(placements),
        round=t_next,
        topology=state.topology,
    )


class SimView:
    """Read-only window onto a running simulation, handed to strategies."""

    __slots__ = ("topology", "round", "burnt", "protected", "_endangered",
                 "burnt_count", "burnt_sum")

    def __init__(self, topology: Topology, burnt: set[Point], protected: set[Point],
                 endangered: frozenset[Point], round_no: int,
                 burnt_sum: tuple[int, int]):
        self.topology = topology
        self.burnt = burnt
        self.protected = protected
        self._endangered = endangered
        self.round = round_no
        self.burnt_count = len(burnt)
        self.burnt_sum = burnt_sum

    def endangered(self) -> frozenset[Point]:
        """The cells that burn next round unless this squad protects them."""
        return self._endangered


def _column_sums(points: Iterable[Point]) -> tuple[int, int]:
    """(sum of x, sum of y) over ``points``; (0, 0) when there are none."""
    xs, ys = columns(points)
    return sum(xs), sum(ys)


def run(
    initial: FireState,
    budget: Budget,
    strategy,
    horizon: int,
    seed: int | None = None,
) -> RunTrace:
    """Drive the process for up to ``horizon`` rounds or until controlled.

    Strategy failures (illegal placements, missed wall deadlines) terminate
    the trace with status "strategy-error" rather than propagating. A trace
    records no initial protection or round offset, so ``initial`` has neither.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if initial.round != 0 or initial.protected:
        raise ValueError("a trace starts at round 0 with nothing protected")
    topo = initial.topology
    trace = RunTrace(
        topology=topo,
        initial=tuple(sorted(initial.burnt, key=row_major)),
        budget_desc=budget.describe(),
        strategy_id=getattr(strategy, "identifier", "unknown"),
        seed=seed,
    )
    burnt = set(initial.burnt)
    protected: set[Point] = set()
    danger = endangered_near(burnt, burnt, protected, topo)
    sx, sy = _column_sums(burnt)

    reset = getattr(strategy, "reset", None)
    if reset is not None:
        try:
            reset(initial)
        except SimulationError as exc:
            trace.status = "strategy-error"
            trace.error = f"round 0: {exc}"
            return trace

    if not danger:
        trace.status = "controlled"
        trace.control_round = 0
        return trace

    for t in range(1, horizon + 1):
        f_t = budget.at(t)
        view = SimView(topo, burnt, protected, danger, t - 1, (sx, sy))
        try:
            placements = list(strategy.next_placements(view, f_t))
            _validate_placements(placements, burnt, protected, f_t)
        except SimulationError as exc:
            trace.status = "strategy-error"
            trace.error = f"round {t}: {exc}"
            return trace
        protected.update(placements)
        ignited = tuple(sorted(danger.difference(placements), key=row_major))
        burnt.update(ignited)
        ix, iy = _column_sums(ignited)
        sx += ix
        sy += iy
        danger = endangered_near(ignited, burnt, protected, topo)
        trace.rounds.append(
            RoundRecord(t=t, f=f_t, placed=tuple(placements), ignited=ignited)
        )
        if not danger:
            trace.status = "controlled"
            trace.control_round = t
            return trace
    trace.status = "horizon"
    return trace


def replay_validate(trace: RunTrace) -> None:
    """Re-run a trace's placements and check every record and the header.

    Raises MalformedTraceError (with the offending line) when the recorded
    ignitions do not match the process dynamics, e.g. a teleporting fire, or
    when the header's status, control round or budget contradicts them.
    """
    desc, budget = trace.budget_desc, None
    # A "table:" label names a file, which checking an untrusted trace must never open.
    if isinstance(desc, str) and desc.partition(":")[0] in ("const", "periodic", "prefix"):
        try:
            budget = parse_budget(desc)
        except ValueError as exc:
            raise MalformedTraceError(f"bad header budget: {exc}", line=1) from exc
    burnt = set(trace.initial)
    protected: set[Point] = set()
    danger = endangered_near(burnt, burnt, protected, trace.topology)
    for i, rec in enumerate(trace.rounds):
        line = i + 2  # header is line 1
        if not danger:
            raise MalformedTraceError(
                f"round {rec.t}: recorded after the fire was controlled", line=line
            )
        if budget is not None and rec.f != budget.at(i + 1):
            raise MalformedTraceError(
                f"header budget {trace.budget_desc} contradicts round {rec.t}'s f = {rec.f}",
                line=1,
            )
        try:
            _validate_placements(rec.placed, burnt, protected, rec.f)
        except PlacementError as exc:
            raise MalformedTraceError(str(exc), line=line) from exc
        protected.update(rec.placed)
        ignited = danger.difference(rec.placed)
        if ignited != set(rec.ignited) or len(ignited) != len(rec.ignited):
            raise MalformedTraceError(
                f"round {rec.t}: recorded ignitions do not match the spread rule",
                line=line,
            )
        # The record holds exactly the replay's ignitions now, and the kernel
        # reads the record's tuple faster than the frozenset.
        burnt.update(rec.ignited)
        danger = endangered_near(rec.ignited, burnt, protected, trace.topology)
    final = trace.final_round()
    controlled = trace.status == "controlled"
    # A strategy may fail in reset, before round 1, on a fire with no front.
    if (
        trace.status not in ("controlled", "horizon", "strategy-error")
        or (not danger) != controlled and (trace.rounds or trace.status == "horizon")
        or trace.control_round != (final if controlled else None)
    ):
        raise MalformedTraceError(
            f"header status {trace.status!r} with control_round "
            f"{trace.control_round} contradicts the replay, after whose round "
            f"{final} the fire is " + ("still spreading" if danger else "controlled"),
            line=1,
        )
