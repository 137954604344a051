"""The spreading process: states, the place-then-spread step, and the run loop.

A round does two things in fixed order: the next squad of firefighters is
placed, then the fire spreads to every unprotected, unburnt neighbor of a
burning point. Round 0 is the freshly ignited source; after k rounds the
free-burning fire from a single point occupies the metric ball of radius k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat
from operator import add, floordiv, mod, not_
from typing import Collection, Iterable, Sequence

from .budget import Budget, label_budget
from .grid import (
    _OFFSETS, Interned, Point, Topology, ball, bounding_box, check_range,
    columns, row_major,
)
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

    @classmethod
    def source(cls, topology: Topology, radius: int, center: Point = (0, 0),
               metric: str | None = None) -> FireState:
        """Round 0 of a fire that starts as the radius ball about ``center``,
        with nothing protected: the one place a source ball is built.

        The default metric is L1 on the Cartesian grid and the L-infinity
        square otherwise, which on the triangular grid is not its own
        hexagonal ball.
        """
        if metric is None:
            metric = "l1" if topology is Topology.CARTESIAN else "linf"
        return cls(ball(center, radius, metric), frozenset(), 0, topology)


class _CodeBox:
    """Integer codes for the cells within ``reach`` steps of ``cells``.

    The box is the bounding box of ``cells`` grown by ``reach`` on every side;
    a cell (x, y) in it has code ``(y - y0)*W + (x - x0)``, where W is the box
    width and (x0, y0) its lowest corner. Each code names one cell, integer
    order is row-major (y, x) order, and a neighbor offset (dx, dy) is the
    constant ``dy*W + dx``. A fire from ``cells`` moves at most one cell a
    round, so in ``reach - 1`` rounds it burns and endangers only cells of
    the box. A point outside the box is never encoded, because its code could
    alias a cell inside.

    ``decode`` takes each coordinate from the box's ``Interned`` tables of
    column and row ints, so the points it returns share one int object per
    column and one per row; fresh ints from arithmetic would cost a trace of
    large coordinates two int objects per point. The tables fill as codes
    are decoded, so a long horizon costs nothing until the fire gets there.
    """

    __slots__ = ("x0", "x1", "y0", "y1", "width", "xs", "ys", "steps")

    def __init__(self, cells: Sequence[Point], reach: int, topology: Topology):
        xmin, xmax, ymin, ymax = bounding_box(cells) if cells else (0, 0, 0, 0)
        self.x0, self.x1 = xmin - reach, xmax + reach
        self.y0, self.y1 = ymin - reach, ymax + reach
        self.width = width = self.x1 - self.x0 + 1
        self.xs = Interned(partial(add, self.x0))
        self.ys = Interned(partial(add, self.y0))
        self.steps = tuple(dy * width + dx for dx, dy in _OFFSETS[topology])

    def encode(self, points: Iterable[Point]) -> set[int]:
        """Codes of those of ``points`` that lie in the box."""
        x0, x1, y0, y1, width = self.x0, self.x1, self.y0, self.y1, self.width
        return {(y - y0) * width + x - x0 for x, y in points
                if x0 <= x <= x1 and y0 <= y <= y1}

    def decode(self, codes: Sequence[int]) -> tuple[Point, ...]:
        """The cells of ``codes``, in the same order."""
        width = self.width
        xs = map(self.xs.__getitem__, map(mod, codes, repeat(width)))
        ys = map(self.ys.__getitem__, map(floordiv, codes, repeat(width)))
        return tuple(zip(xs, ys))

    def near(self, codes: Collection[int]) -> set[int]:
        """Codes of every neighbor of ``codes``: the spread rule in code space.

        One C-level ``map`` per neighbor offset, so no Python code runs per cell.
        """
        near: set[int] = set()
        for step in self.steps:
            near.update(map(add, codes, repeat(step)))
        return near


def _column_sums(points: Iterable[Point]) -> tuple[int, int]:
    """(sum of x, sum of y) over ``points``; (0, 0) when there are none."""
    xs, ys = columns(points)
    return sum(xs), sum(ys)


class SimView:
    """The state of one run, and the one place a round is played.

    ``SimView(state, rounds)`` starts from ``state`` and may play up to
    ``rounds`` rounds; ``SimView(state, 0)`` only answers E. Strategies read
    ``topology``, ``round``, ``burnt``, ``protected``, ``burnt_sum`` (the x
    and y sums over ``burnt``) and E, whose one accessor is
    ``endangered_row_major``; ``play`` places a squad and spreads the fire.

    E is held as integer codes in a ``_CodeBox`` grown by ``rounds + 1``, so
    every cell the fire can reach, and every cell it can endanger, has a
    code. E's codes are kept sorted and decoded once a round into a
    row-major tuple of points, which is the strategies' view of E and, less
    the squad, the round's ignitions. No burnt code set is kept. A burnt
    neighbor of a cell ignited in round t was itself ignited in round t or
    t - 1 (the state's whole burnt set standing in for round 0), or the cell
    would have burnt a round earlier; so E' is the neighbors of this round's
    ignitions less those ignitions, the previous layer, and the protected
    cells in the box.

    ``play`` adds nothing to ``burnt`` and reads it only to reject a squad
    cell: the caller adds the ignitions it records, and keeps
    ``burnt_sum``. ``run`` adds every ignition, so its burnt set shares the
    record's point tuples, whose coordinates share the box's ints;
    ``replay_validate`` adds only the cells that some record places on, so
    a replayed trace is not held in memory twice.
    """

    __slots__ = ("topology", "round", "burnt", "protected", "burnt_sum",
                 "_last", "_box", "_layer", "_held", "_codes", "_endangered")

    def __init__(self, state: FireState, rounds: int):
        cells = list(state.burnt)
        self.topology = state.topology
        self.round = state.round
        self.burnt = set(cells)
        self.protected = set(state.protected)
        self.burnt_sum = _column_sums(cells)
        self._last = state.round + rounds
        self._box = _CodeBox(cells, rounds + 1, state.topology)
        self._held = self._box.encode(state.protected)
        self._layer: Collection[int] = ()
        self._spread(self._box.encode(cells))

    def _spread(self, codes: Collection[int]) -> None:
        """Set E to the neighbors of the newly burnt ``codes`` outside the
        last two layers and the protected codes."""
        near = self._box.near(codes)
        near.difference_update(codes, self._layer, self._held)
        self._layer = codes
        self._codes = sorted(near)
        self._endangered = self._box.decode(self._codes)

    def play(self, squad: Sequence[Point], available: int) -> tuple[Point, ...]:
        """Play one round: protect ``squad``, then burn the rest of E.

        Raises PlacementError, changing nothing, when ``squad`` exceeds
        ``available`` or repeats, or lands on a burnt or protected point; and
        RuntimeError, changing nothing, once the view has played the rounds
        it was built for, because its box may not hold the fire's next layer.
        Returns the ignited cells in row-major order; see the class docstring
        for why they are not added to ``burnt`` here.
        """
        if self.round == self._last:
            raise RuntimeError(
                f"view box too small: it was built to play up to round {self._last}")
        if len(squad) > available:
            raise PlacementError(
                f"{len(squad)} placements exceed the {available} available"
            )
        seen: set[Point] = set()
        for p in squad:
            if p in seen:
                raise PlacementError("duplicate placement", p)
            if p in self.burnt:
                raise PlacementError("placement on a burnt point", p)
            if p in self.protected:
                raise PlacementError("placement on a protected point", p)
            seen.add(p)
        self.protected.update(squad)
        codes, cells = self._codes, self._endangered
        held = self._box.encode(squad)
        if held:
            self._held |= held
            keep = list(map(not_, map(held.__contains__, codes)))
            codes = list(compress(codes, keep))
            cells = tuple(compress(cells, keep))
        self._spread(codes)
        self.round += 1
        return cells

    def endangered_row_major(self) -> tuple[Point, ...]:
        """The cells that burn next round unless this squad protects them, in
        row-major (y, x) order."""
        return self._endangered


def endangered(state: FireState) -> frozenset[Point]:
    """Unburnt, unprotected points adjacent to a burning point."""
    check_range(state.burnt)
    return frozenset(SimView(state, 0).endangered_row_major())


def is_controlled(state: FireState) -> bool:
    """True when the fire has nowhere left to spread."""
    return not endangered(state)


def step(state: FireState, placements: Sequence[Point], budget: Budget) -> FireState:
    """Advance one round: place the next squad, then spread the fire."""
    check_range(state.burnt)
    view = SimView(state, 1)
    view.burnt.update(view.play(placements, budget.at(state.round + 1)))
    return FireState(
        burnt=frozenset(view.burnt),
        protected=frozenset(view.protected),
        round=view.round,
        topology=view.topology,
    )


def run(
    initial: FireState,
    budget: Budget,
    strategy,
    horizon: int,
    seed: int | None = None,
) -> RunTrace:
    """Drive the process for up to ``horizon`` rounds or until controlled.

    Strategy failures (illegal placements, missed wall deadlines), in
    ``reset`` or in any round, terminate the trace with status
    "strategy-error" and an error naming the round, 0 for ``reset``, rather
    than propagating. A trace records no initial protection or round offset,
    so ``initial`` has neither.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if initial.round != 0 or initial.protected:
        raise ValueError("a trace starts at round 0 with nothing protected")
    trace = RunTrace(
        topology=initial.topology,
        initial=tuple(sorted(initial.burnt, key=row_major)),
        budget_desc=budget.describe(),
        strategy_id=getattr(strategy, "identifier", "unknown"),
        seed=seed,
    )
    view = SimView(initial, horizon)
    t = 0
    try:
        reset = getattr(strategy, "reset", None)
        if reset is not None:
            reset(initial)
        while view.endangered_row_major():
            if t == horizon:
                trace.status = "horizon"
                return trace
            t += 1
            f_t = budget.at(t)
            placements = list(strategy.next_placements(view, f_t))
            ignited = view.play(placements, f_t)
            view.burnt.update(ignited)
            sx, sy = view.burnt_sum
            ix, iy = _column_sums(ignited)
            view.burnt_sum = (sx + ix, sy + iy)
            trace.rounds.append(
                RoundRecord(t=t, f=f_t, placed=tuple(placements), ignited=ignited)
            )
    except SimulationError as exc:
        trace.status = "strategy-error"
        trace.error = f"round {t}: {exc}"
        return trace
    trace.status = "controlled"
    trace.control_round = t
    return trace


def replay_validate(trace: RunTrace) -> None:
    """Re-run a trace's placements and check every record and the header.

    Raises MalformedTraceError (with the offending line) when the recorded
    ignitions do not match the process dynamics, e.g. a teleporting fire, or
    when the header's status, error, control round or budget contradicts
    them or each other. The line is the record's position in the trace as
    ``RunTrace.write`` lays it out (header on line 1, round t on line t + 1),
    which can differ from the file it was read from if that file held blank
    lines.

    The view's burnt set holds only the burnt cells that some record places
    on, which is all that ``play`` tests a squad against; no set of every
    burnt cell is built.
    """
    if (trace.error is not None) != (trace.status == "strategy-error"):
        raise MalformedTraceError(
            f"header status {trace.status!r} contradicts its error {trace.error!r}", line=1)
    try:
        budget = label_budget(trace.budget_desc)
    except ValueError as exc:
        raise MalformedTraceError(f"bad header budget: {exc}", line=1) from exc
    initial = FireState(frozenset(trace.initial), frozenset(), 0, trace.topology)
    view = SimView(initial, len(trace.rounds))
    placed = set().union(*(rec.placed for rec in trace.rounds))
    view.burnt &= placed
    for i, rec in enumerate(trace.rounds):
        line = i + 2  # header is line 1
        if not view.endangered_row_major():
            raise MalformedTraceError(
                f"round {rec.t}: recorded after the fire was controlled", line=line
            )
        if budget is not None and rec.f != budget.at(i + 1):
            raise MalformedTraceError(
                f"header budget {trace.budget_desc} contradicts round {rec.t}'s f = {rec.f}",
                line=1,
            )
        try:
            ignited = view.play(rec.placed, rec.f)
        except PlacementError as exc:
            raise MalformedTraceError(str(exc), line=line) from exc
        # A trace written by ``run`` lists the ignitions in row-major order,
        # exactly as the replay holds them; any other order is still valid.
        if ignited != rec.ignited and (
            len(ignited) != len(rec.ignited) or set(ignited) != set(rec.ignited)
        ):
            raise MalformedTraceError(
                f"round {rec.t}: recorded ignitions do not match the spread rule",
                line=line,
            )
        view.burnt.update(placed.intersection(rec.ignited))
    spreading = bool(view.endangered_row_major())
    final = trace.final_round()
    controlled = trace.status == "controlled"
    # A strategy may fail in reset, before round 1, on a fire with no front.
    if (
        trace.status not in ("controlled", "horizon", "strategy-error")
        or spreading == controlled and (trace.rounds or trace.status == "horizon")
        or trace.control_round != (final if controlled else None)
    ):
        raise MalformedTraceError(
            f"header status {trace.status!r} with control_round "
            f"{trace.control_round} contradicts the replay, after whose round "
            f"{final} the fire is " + ("still spreading" if spreading else "controlled"),
            line=1,
        )
