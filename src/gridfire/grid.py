"""Lattice geometry: points, the three grid topologies, metric balls, skew map."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from enum import Enum
from operator import itemgetter
from typing import Iterable

Point = tuple[int, int]


class Topology(Enum):
    CARTESIAN = "cartesian"  # 4-regular, adjacency at l1 distance 1
    STRONG = "strong"  # 8-regular, adjacency at linf distance 1
    TRIANGULAR = "triangular"  # 6-regular, between the other two


# Sort key for row-major (y, x) order: how traces list their points.
row_major = itemgetter(1, 0)

# Offsets listed row-major by (dy, dx) so neighbor iteration is deterministic.
_OFFSETS: dict[Topology, tuple[Point, ...]] = {
    Topology.CARTESIAN: ((0, -1), (-1, 0), (1, 0), (0, 1)),
    Topology.STRONG: (
        (-1, -1), (0, -1), (1, -1),
        (-1, 0), (1, 0),
        (-1, 1), (0, 1), (1, 1),
    ),
    # Cartesian offsets plus one diagonal pair; this embedding keeps integer
    # coordinates and sits between the Cartesian and strong neighborhoods.
    Topology.TRIANGULAR: ((-1, -1), (0, -1), (-1, 0), (1, 0), (0, 1), (1, 1)),
}


_X = itemgetter(0)
_Y = itemgetter(1)


def columns(points: Iterable[Point]) -> tuple[list[int], list[int]]:
    """The x column and the y column of ``points``, in iteration order.

    Built with C-level ``map``; ``zip(*points)`` would allocate an iterator
    per point.
    """
    if not isinstance(points, (list, tuple)):
        points = list(points)
    return list(map(_X, points)), list(map(_Y, points))


class Interned(dict):
    """A memo whose entry for ``key`` is ``make(key)``, built on first lookup.

    Points built through one table share one int object per distinct
    coordinate, where ints made per point would each be a separate object
    (CPython caches only -5..256). Lookups are C-level dict reads, so
    ``map(table.__getitem__, keys)`` runs Python only once per new key.
    """

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        self[key] = value = self.make(key)
        return value


@contextmanager
def _collector_off():
    """Hold off CPython's cyclic garbage collector for the length of a call.

    Used as ``@_collector_off()`` on the four calls that allocate a trace's
    worth of objects: ``engine.run``, ``engine.replay_validate``,
    ``trace.RunTrace.read`` (so ``load`` and ``from_text`` too) and
    ``monitor.check_invariants``. Their point tuples, records and JSON lists
    hold no reference cycles, so reference counting frees all that they
    drop, and the collector's generation scans over them would find
    nothing; a test holds that each of them leaves no cyclic garbage. The
    search drivers are left alone: the collector takes 0-1% of a search.

    The switch is process-wide. Cycles that a caller's own strategy makes
    during ``run`` are collected after the call returns, not lost, and
    another thread that changes the setting during a call can have it reset
    when the call ends. The collector is turned off only if it is on, and
    turned back on as the call returns or raises.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def neighbors(p: Point, topo: Topology) -> tuple[Point, ...]:
    """Adjacent points of ``p`` under ``topo``, in row-major (y, x) order."""
    x, y = p
    return tuple((x + dx, y + dy) for dx, dy in _OFFSETS[topo])


def ball(center: Point, radius: int, metric: str) -> frozenset[Point]:
    """All points within ``radius`` of ``center`` in the given metric ("l1" or "linf")."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    cx, cy = center
    pts: set[Point] = set()
    if metric == "linf":
        for dy in range(-radius, radius + 1):
            for dx in range(-radius, radius + 1):
                pts.add((cx + dx, cy + dy))
    elif metric == "l1":
        for dy in range(-radius, radius + 1):
            span = radius - abs(dy)
            for dx in range(-span, span + 1):
                pts.add((cx + dx, cy + dy))
    else:
        raise ValueError(f"unknown metric: {metric!r}")
    return frozenset(pts)


def skew_map(p: Point) -> Point:
    """Map (x, y) to (x+y, x-y).

    Injective; turns l1 distance into linf distance, and its image is exactly
    the points with even coordinate sum.
    """
    x, y = p
    return (x + y, x - y)


def is_even_point(p: Point) -> bool:
    """True when the coordinate sum is even."""
    return (p[0] + p[1]) % 2 == 0


def bounding_box(points: Iterable[Point]) -> tuple[int, int, int, int]:
    """(xmin, xmax, ymin, ymax) of a non-empty point set."""
    xs, ys = columns(points)
    return min(xs), max(xs), min(ys), max(ys)
