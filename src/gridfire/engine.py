"""The spreading process: states, the place-then-spread step, and the run loop.

A round does two things in fixed order: the next squad of firefighters is
placed, then the fire spreads to every unprotected, unburnt neighbor of a
burning point. Round 0 is the freshly ignited source; after k rounds the
free-burning fire from a single point occupies the metric ball of radius k.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import compress, count, repeat
from operator import add, floordiv, mod
from typing import Collection, Iterable, Sequence

from .budget import Budget, label_budget
from .grid import (_OFFSETS, Interned, Point, Topology, _collector_off, ball, bounding_box,
                   row_major)
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


# A view's box starts this many cells beyond the state's burnt cells on
# every side, and grows once E comes within _EDGE cells of its edge.
_MARGIN = 4
_EDGE = 2
# A box marks its burnt cells with one byte per cell while it has at most
# _DENSE_FLOOR cells or at most _DENSE per burnt cell; a larger box, such as
# that of a few cells far apart, keeps its burnt codes in a set. A view's
# memory then follows how many cells have burnt, not how far apart they lie.
_DENSE = 64
_DENSE_FLOOR = 1 << 20


class _CodeBox:
    """Integer codes for the cells of a ``width`` x ``height`` box whose
    lowest corner is (x0, y0).

    A cell (x, y) in the box has code ``(y - y0)*W + (x - x0)``, where W is
    the width: each code names one cell, integer order is row-major
    (y, x) order, and a neighbor offset (dx, dy) is the constant
    ``dy*W + dx`` for every cell off the box's edge. A point outside the box
    is never encoded, because its code could alias a cell inside.

    ``decode`` takes each coordinate from the box's ``Interned`` tables of
    column and row ints, so the points it returns share one int object per
    column and one per row; fresh ints from arithmetic would cost a trace of
    large coordinates two int objects per point. The tables fill as codes
    are decoded, and a larger box ``adopt``s them under shifted keys.
    """

    __slots__ = ("x0", "y0", "width", "height", "xs", "ys", "steps")

    def __init__(self, x0: int, y0: int, width: int, height: int, topology: Topology):
        self.x0, self.y0 = x0, y0
        self.width, self.height = width, height
        self.xs = Interned(partial(add, x0))
        self.ys = Interned(partial(add, y0))
        self.steps = tuple(dy * width + dx for dx, dy in _OFFSETS[topology])

    def code(self, p: Point) -> int | None:
        """The code of ``p``, or None outside the box."""
        x = p[0] - self.x0
        y = p[1] - self.y0
        if 0 <= x < self.width and 0 <= y < self.height:
            return y * self.width + x
        return None

    def encode(self, points: Iterable[Point]) -> set[int]:
        """Codes of those of ``points`` that lie in the box."""
        codes = set(map(self.code, points))
        codes.discard(None)
        return codes

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

    def gaps(self, codes: Sequence[int]) -> tuple[int, int, int, int]:
        """How many cells lie between the sorted, nonempty ``codes`` and the
        box's low-x, high-x, low-y and high-y edges."""
        width = self.width
        cols = list(map(mod, codes, repeat(width)))
        return (min(cols), width - 1 - max(cols),
                codes[0] // width, self.height - 1 - codes[-1] // width)

    def adopt(self, old: _CodeBox) -> None:
        """Take over the column and row ints of ``old``, a box inside this
        one, so that points decoded before and after share them."""
        for mine, theirs, shift in ((self.xs, old.xs, old.x0 - self.x0),
                                    (self.ys, old.ys, old.y0 - self.y0)):
            mine.update(zip(map(add, theirs, repeat(shift)), theirs.values()))

    def recode(self, codes: Iterable[int], old: _CodeBox) -> list[int]:
        """This box's codes for the cells of ``old``'s ``codes``, in order."""
        w = old.width
        shift = (old.y0 - self.y0) * self.width + old.x0 - self.x0
        return [c // w * self.width + c % w + shift for c in codes]


class _CodeSet(set):
    """The burnt codes of a box too sparse for a byte per cell, read and set
    as a ``bytearray`` of marks is."""

    __slots__ = ()
    __getitem__ = set.__contains__

    def __setitem__(self, code: int, mark: int) -> None:
        self.add(code)


def _blank_marks(box: _CodeBox, burnt: int) -> bytearray | _CodeSet:
    """No marks, for a box that will hold ``burnt`` burnt cells."""
    size = box.width * box.height
    return bytearray(size) if size <= max(_DENSE_FLOOR, _DENSE * burnt) else _CodeSet()


class SimView:
    """The state of one run, and the one place a round is played.

    ``SimView(state)`` starts from ``state`` and plays any number of rounds.
    Strategies read ``topology``, ``round``, ``protected``, ``burnt_count``
    (how many cells have burnt) and E, whose one accessor is
    ``endangered_row_major``; ``play`` places a squad and spreads the fire.
    Which cells have burnt is the view's own: no strategy and no caller
    reads it.

    The fire is held as integer codes in a ``_CodeBox`` that follows it: the
    box starts ``_MARGIN`` cells beyond the state's burnt cells, and once E
    comes within ``_EDGE`` cells of an edge it grows by half its width or
    height on that side, so every cell the fire can burn or endanger next
    has a code. Each burnt cell is a byte mark in the box, set as its layer
    burns, or its code in a set when the box is far larger than the fire
    (``_blank_marks``); a cell outside the box has never burnt. E's codes
    are kept sorted and decoded once a round into a row-major tuple of
    points, which is the strategies' view of E and, less the squad, the
    round's ignitions. A burnt neighbor of a cell ignited in round t was
    itself ignited in round t or t - 1 (the state's whole burnt set standing
    in for round 0), or the cell would have burnt a round earlier; so E' is
    the neighbors of this round's ignitions less those ignitions, the
    previous layer, and the protected cells in the box. ``play`` takes the
    squad out of E by bisecting each of its codes in E's sorted codes, so a
    round pays per squad cell, not per cell of E.
    """

    __slots__ = ("topology", "round", "protected", "burnt_count", "_box",
                 "_marks", "_layer", "_held", "_codes", "_endangered", "_slack")

    def __init__(self, state: FireState):
        cells = list(state.burnt)
        self.topology = state.topology
        self.round = state.round
        self.protected = set(state.protected)
        self.burnt_count = len(cells)
        xmin, xmax, ymin, ymax = bounding_box(cells) if cells else (0, 0, 0, 0)
        self._box = box = _CodeBox(xmin - _MARGIN, ymin - _MARGIN,
                                   xmax - xmin + 1 + 2 * _MARGIN,
                                   ymax - ymin + 1 + 2 * _MARGIN, state.topology)
        self._marks = _blank_marks(box, len(cells))
        self._held = box.encode(state.protected)
        self._layer: Collection[int] = ()
        self._slack = 0  # rounds before E may come within _EDGE of the edge
        self._spread(box.encode(cells))

    def _spread(self, codes: Collection[int]) -> None:
        """Burn ``codes`` and set E to their neighbors outside the last two
        layers and the protected codes."""
        marks = self._marks
        for code in codes:
            marks[code] = 1
        near = self._box.near(codes)
        near.difference_update(codes, self._layer, self._held)
        self._layer = codes
        self._codes = sorted(near)
        # The fire moves at most one cell a round, so E's gap to the edge
        # shrinks by at most one a round: the gaps need measuring again only
        # once E may have come within _EDGE of the edge.
        self._slack -= 1
        if self._slack < 0 and self._codes:
            if min(self._box.gaps(self._codes)) < _EDGE:
                self._grow()
            self._slack = min(self._box.gaps(self._codes)) - _EDGE
        self._endangered = self._box.decode(self._codes)

    def _grow(self) -> None:
        """Grow the box by half its width or height on each side that E has
        come within ``_EDGE`` cells of, and carry the fire over."""
        old = self._box
        wide, high = max(_MARGIN, old.width // 2), max(_MARGIN, old.height // 2)
        lo_x, hi_x, lo_y, hi_y = (pad if gap < _EDGE else 0 for gap, pad
                                  in zip(old.gaps(self._codes), (wide, wide, high, high)))
        box = _CodeBox(old.x0 - lo_x, old.y0 - lo_y, old.width + lo_x + hi_x,
                       old.height + lo_y + hi_y, self.topology)
        box.adopt(old)
        marks = _blank_marks(box, self.burnt_count)
        if type(marks) is type(self._marks) is bytearray:
            # Copy the marks row by row, each to where its first cell now is.
            w = old.width
            firsts = range(0, len(self._marks), w)
            for first, start in zip(firsts, box.recode(firsts, old)):
                marks[start:start + w] = self._marks[first:first + w]
        else:
            burnt = compress(count(), self._marks) if type(self._marks) is bytearray \
                else self._marks
            for code in box.recode(burnt, old):
                marks[code] = 1
        self._box, self._marks = box, marks
        self._layer = box.recode(self._layer, old)
        self._codes = box.recode(self._codes, old)
        self._held = box.encode(self.protected)

    def play(self, squad: Sequence[Point], available: int) -> tuple[Point, ...]:
        """Play one round: protect ``squad``, then burn the rest of E.

        Raises PlacementError, changing nothing, when ``squad`` exceeds
        ``available`` or repeats, or lands on a burnt or protected point.
        Returns the ignited cells in row-major order.
        """
        if len(squad) > available:
            raise PlacementError(
                f"{len(squad)} placements exceed the {available} available"
            )
        box, marks = self._box, self._marks
        seen: set[Point] = set()
        for p in squad:
            if p in seen:
                raise PlacementError("duplicate placement", p)
            code = box.code(p)
            if code is not None and marks[code]:
                raise PlacementError("placement on a burnt point", p)
            if p in self.protected:
                raise PlacementError("placement on a protected point", p)
            seen.add(p)
        self.protected.update(squad)
        codes, cells = self._codes, self._endangered
        held = box.encode(squad)
        self._held |= held
        for code in held:
            i = bisect_left(codes, code)
            if i < len(codes) and codes[i] == code:
                if type(cells) is tuple:  # E is copied only once a squad cell is in it
                    cells = list(cells)
                del codes[i], cells[i]
        cells = tuple(cells)
        self._spread(codes)
        self.burnt_count += len(cells)
        self.round += 1
        return cells

    def endangered_row_major(self) -> tuple[Point, ...]:
        """The cells that burn next round unless this squad protects them, in
        row-major (y, x) order."""
        return self._endangered


@_collector_off()
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
    view = SimView(initial)
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


@_collector_off()
def replay_validate(trace: RunTrace) -> None:
    """Re-run a trace's placements and check every record and the header.

    Raises MalformedTraceError (with the offending line) when the recorded
    ignitions do not match the process dynamics, e.g. a teleporting fire, or
    when the header's status, error, control round or budget contradicts
    them or each other. The line is the record's position in the trace as
    ``RunTrace.write`` lays it out (header on line 1, round t on line t + 1),
    which can differ from the file it was read from if that file held blank
    lines.
    """
    # ``run`` fails one round past its last record, or in round 0 or 1.
    k = len(trace.rounds)
    stops = tuple(f"round {t}: " for t in ((k + 1,) if k else (0, 1)))
    if ((trace.error is not None) != (trace.status == "strategy-error")
            or trace.error is not None and not trace.error.startswith(stops)):
        raise MalformedTraceError(
            f"header status {trace.status!r} after {k} rounds contradicts its "
            f"error {trace.error!r}", line=1)
    if trace.status == "horizon" and not k:
        raise MalformedTraceError(
            "header status 'horizon' with no rounds: a run's horizon is at least 1", line=1)
    try:
        budget = label_budget(trace.budget_desc)
    except ValueError as exc:
        raise MalformedTraceError(f"bad header budget: {exc}", line=1) from exc
    initial = FireState(frozenset(trace.initial), frozenset(), 0, trace.topology)
    if len(initial.burnt) != len(trace.initial):
        raise MalformedTraceError("header initial lists a cell twice", line=1)
    view = SimView(initial)
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
    spreading = bool(view.endangered_row_major())
    final = trace.final_round()
    controlled = trace.status == "controlled"
    # A strategy may fail in reset, before round 1, on a fire with no front.
    if (
        trace.status not in ("controlled", "horizon", "strategy-error")
        or spreading == controlled and (trace.rounds or trace.status != "strategy-error")
        or trace.control_round != (final if controlled else None)
    ):
        raise MalformedTraceError(
            f"header status {trace.status!r} with control_round "
            f"{trace.control_round} contradicts the replay, after whose round "
            f"{final} the fire is " + ("still spreading" if spreading else "controlled"),
            line=1,
        )
