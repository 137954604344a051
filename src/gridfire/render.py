"""Text and graymap snapshots of simulation states."""

from __future__ import annotations

from .grid import Point


def _rows(
    burnt: set[Point],
    protected: set[Point],
    window: tuple[int, int, int, int],
    marks: tuple[str, str, str],
) -> list[list[str]]:
    """Window rows from ymax down, each cell marked burnt, protected or empty."""
    xmin, xmax, ymin, ymax = window
    if xmin > xmax or ymin > ymax:
        raise ValueError(
            f"window must have xmin <= xmax and ymin <= ymax, got {window}")
    burnt_mark, protected_mark, empty_mark = marks
    return [
        [
            burnt_mark if (x, y) in burnt
            else protected_mark if (x, y) in protected
            else empty_mark
            for x in range(xmin, xmax + 1)
        ]
        for y in range(ymax, ymin - 1, -1)
    ]


def render_text(
    burnt: set[Point],
    protected: set[Point],
    window: tuple[int, int, int, int],
) -> str:
    """Character grid over window = (xmin, xmax, ymin, ymax); top row is ymax."""
    rows = _rows(burnt, protected, window, ("#", "F", "."))
    return "\n".join("".join(row) for row in rows)


def render_pgm(
    burnt: set[Point],
    protected: set[Point],
    window: tuple[int, int, int, int],
) -> str:
    """Plain (P2) graymap, three levels: empty 255, protected 128, burnt 0."""
    xmin, xmax, ymin, ymax = window
    lines = [f"P2 {xmax - xmin + 1} {ymax - ymin + 1} 255"]
    lines += (" ".join(row) for row in _rows(burnt, protected, window, ("0", "128", "255")))
    return "\n".join(lines) + "\n"
