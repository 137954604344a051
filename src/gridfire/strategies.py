"""Strategy interface and the baseline players."""

from __future__ import annotations

import random
from heapq import nsmallest
from itertools import repeat
from operator import add, mul, sub
from typing import Mapping, Protocol, Sequence

from .engine import FireState, SimView
from .grid import Point, columns
from .trace import MalformedTraceError, RunTrace
from .wallplan import ContainmentStrategy, wall_plan


class Strategy(Protocol):
    """A player: each round it names the next squad from the run's view.

    A strategy sees the view's ``topology``, ``round``, ``protected``,
    ``burnt_count`` and ``endangered_row_major()``. Which cells have burnt
    stays inside the view. A strategy may also have ``reset(state)``, which
    ``run`` calls with the initial state before round 1.
    """

    identifier: str

    def next_placements(self, view: SimView, available: int) -> Sequence[Point]:
        """Placements for the upcoming squad; at most ``available``, all vacant."""
        ...


class NullStrategy:
    """Places nobody, ever."""

    identifier = "null"

    def next_placements(self, view: SimView, available: int) -> list[Point]:
        return []


class GreedyNearest:
    """Protects endangered points closest to the fire's centroid.

    E's indices are ranked by distance; E is row-major, so distance ties
    break by (y, x). The player keeps the x and y sums of the burnt cells
    itself: ``reset`` takes those of the source, and each round adds those
    of E less its squad, which is what burns in that round.
    """

    identifier = "greedy"

    def reset(self, state: FireState) -> None:
        xs, ys = columns(state.burnt)
        self._sums = (sum(xs), sum(ys))

    def next_placements(self, view: SimView, available: int) -> list[Point]:
        targets = view.endangered_row_major()
        xs, ys = columns(targets)
        sx, sy = self._sums
        picks: list[Point] = []
        if available:
            # Rank by |n*p - (sx, sy)|², computed column-wise; ``nsmallest``
            # keeps the earlier of equal keys, so no per-cell key tuple is built.
            n = view.burnt_count
            dx = list(map(sub, map(mul, xs, repeat(n)), repeat(sx)))
            dy = list(map(sub, map(mul, ys, repeat(n)), repeat(sy)))
            dist = list(map(add, map(mul, dx, dx), map(mul, dy, dy)))
            picks = [targets[i] for i in nsmallest(available, range(len(dist)),
                                                    key=dist.__getitem__)]
        # The squad lies inside E, and the rest of E burns this round.
        self._sums = (sx + sum(xs) - sum(x for x, _ in picks),
                      sy + sum(ys) - sum(y for _, y in picks))
        return picks


class RandomStrategy:
    """Protects a uniform sample of the endangered points; fully seed-determined."""

    def __init__(self, seed: int):
        self.identifier = f"random:seed={seed}"
        self._rng = random.Random(seed)

    def next_placements(self, view: SimView, available: int) -> list[Point]:
        targets = view.endangered_row_major()
        return self._rng.sample(targets, min(available, len(targets)))


class ScriptedStrategy:
    """Plays fixed squads by round number; nothing in rounds the script omits.

    Legality is left to the engine, which rejects an illegal squad as a
    strategy error at its round.
    """

    def __init__(self, identifier: str, squads_by_round: Mapping[int, Sequence[Point]]):
        self.identifier = identifier
        self._squads = squads_by_round

    def next_placements(self, view: SimView, available: int) -> list[Point]:
        return list(self._squads.get(view.round + 1, ()))


class ReplayStrategy(ScriptedStrategy):
    """Re-issues the placements recorded in a previous trace."""

    def __init__(self, trace: RunTrace):
        super().__init__(
            f"replay:{trace.strategy_id}", {rec.t: rec.placed for rec in trace.rounds}
        )


def parse_strategy(spec: str):
    """Build a strategy from a CLI identifier like "contain:m=2,r=1" or "random:seed=7".

    Any spec that does not parse, or a replay file that cannot be loaded,
    raises ValueError.
    """
    kind, sep, rest = spec.partition(":")
    if kind in ("null", "greedy"):
        if sep:
            raise ValueError(f"strategy {kind!r} takes no parameters: {spec!r}")
        return NullStrategy() if kind == "null" else GreedyNearest()
    if kind == "random":
        params = _parse_params(kind, rest, ("seed",))
        if "seed" not in params:
            raise ValueError("random strategy requires an explicit seed (random:seed=N)")
        return RandomStrategy(_int_param(kind, params, "seed"))
    if kind == "contain":
        params = _parse_params(kind, rest, ("m", "r"))
        m = _int_param(kind, params, "m", "1")
        r = _int_param(kind, params, "r", "1")
        return ContainmentStrategy(wall_plan(m, r))
    if kind == "replay":
        params = _parse_params(kind, rest, ("file",))
        if "file" not in params:
            raise ValueError("replay strategy requires a file (replay:file=PATH)")
        try:
            return ReplayStrategy(RunTrace.load(params["file"]))
        except OSError as exc:
            raise ValueError(f"cannot read replay trace: {exc}") from exc
        except MalformedTraceError as exc:
            raise ValueError(f"malformed replay trace: {exc}") from exc
    raise ValueError(f"unknown strategy spec: {spec!r}")


def _parse_params(kind: str, rest: str, names: tuple[str, ...]) -> dict[str, str]:
    """Parse "key=value,..."; a ``file`` value takes the rest of the spec,
    commas included, because a path may contain them."""
    params: dict[str, str] = {}
    items = rest.split(",") if rest else []
    while items:
        item = items.pop(0)
        key, _, value = item.partition("=")
        key = key.strip()
        if key == "file":
            value = ",".join([value, *items])
            items = []
        if not value:
            raise ValueError(f"malformed strategy parameter: {item!r}")
        if key not in names:
            raise ValueError(f"unknown {kind} strategy parameter: {key!r}")
        if key in params:
            raise ValueError(f"{kind} strategy parameter {key!r} given twice")
        params[key] = value.strip()
    return params


def _int_param(kind: str, params: dict[str, str], key: str, default: str | None = None) -> int:
    """``params[key]`` (or ``default``) as an int; a ValueError names the
    strategy and the parameter, not just the literal."""
    value = params.get(key, default)
    try:
        return int(value)
    except ValueError:
        raise ValueError(
            f"{kind} strategy parameter {key!r} must be an integer, got {value!r}") from None
