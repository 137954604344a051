"""Front geometry and potential accounting for Cartesian-grid traces.

For each diagonal direction (sx, sy) with sx, sy in {+1, -1}, the front line
at a given instant is x*sx + y*sy = c, where c is the smallest nonnegative
offset whose whole line carries no burning point. The perimeter is the sum of
the four offsets. Endangered points lying on front lines carry potential:
weight 1 on a single line, 1/2 per line where two lines meet. A front is
active between consecutive instants when its offset moved (it moves by at
most 1).

Metrics are computed on the clock where instant t has squads 1..t placed but
only spreads 1..t-1 applied; instant 0 is the empty grid with the source
declared but not yet alight, where by convention the total potential is 1
(a quarter per direction).

The engine carries the endangered set E from round to round: after squad S,
ignited = E - S and E' = N(ignited) - burnt - protected. So on a valid trace
the endangered set at instant t is exactly round t's recorded ignitions, and
the walk reads it off the trace with no spread code of its own.
check_invariants(validate=False) therefore trusts the recorded ignitions, as
it already trusts the recorded burnt cells.

The checks, per instant:

  A  potential of a front never exceeds its length (t >= 1);
  B  a front is frozen exactly when its potential is zero. On this clock B
     holds by construction on every trace the walk finishes: instant t's
     potential counts round t's recorded ignitions on each front line, and
     a front moves at t+1 exactly when one of them lies on its line;
  C  while the perimeter is at least 2*supply - 1, total potential stays
     within half a unit of half the perimeter: 2*phi >= perimeter - 1.
     (The strict form phi > perimeter/2 is achievable with equality by legal
     play --- the start-up instant costs the argument its spare unit --- so
     the check asserts the threshold that actually holds.)
  D  under the same premise, opposite fronts never have zero joint potential;
  E  while the supply has stayed within (3t+1)/2, the perimeter is at least
     3t (so the fire cannot have been controlled);
  F  (diagnostic only) per-front potential versus 1/4 + offset - attributed
     supply; reported as signed slack, never failed.

The walk and its checks run in quarter units, on ints: a FrontMetrics keeps
each front's potential as a count of quarters and the total as a count of
points, and derives its perimeter, front lengths and phi from the offsets and
the quarters. Fractions appear only where the report shows them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Sequence

from .engine import replay_validate
from .grid import Point, Topology, columns, row_major
from .trace import RunTrace

Direction = tuple[int, int]

DIRECTIONS: tuple[Direction, ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _diagonals(points: Iterable[Point]) -> tuple[list[int], list[int]]:
    """The x+y and x-y columns of ``points``.

    x*sx + y*sy is sx*(x + y) when sx == sy and sx*(x - y) otherwise, so
    these two columns place every point against all four directions' lines.
    """
    xs, ys = columns(points)
    return list(map(add, xs, ys)), list(map(sub, xs, ys))


def _advance(
    offsets: dict[Direction, int], sum_lines: set[int], diff_lines: set[int]
) -> dict[Direction, int]:
    """Raise each offset to the first line at or above it with no burning point.

    ``sum_lines`` and ``diff_lines`` hold the x+y and x-y values of the
    burning points.
    """
    out: dict[Direction, int] = {}
    for sx, sy in DIRECTIONS:
        lines = sum_lines if sx == sy else diff_lines
        c = offsets[(sx, sy)]
        while sx * c in lines:
            c += 1
        out[(sx, sy)] = c
    return out


def front_offsets(burnt: Iterable[Point]) -> dict[Direction, int]:
    """Smallest offset per direction whose full line has no burning point.

    Scans upward from zero, honoring holes: an empty line below the burning
    region wins over one just beyond it.
    """
    sums, diffs = _diagonals(burnt)
    return _advance(dict.fromkeys(DIRECTIONS, 0), set(sums), set(diffs))


def front_lengths(offsets: dict[Direction, int]) -> dict[Direction, Fraction]:
    """Length of each front: half the sum of the two neighboring offsets."""
    return {
        (sx, sy): Fraction(offsets[(sx, -sy)] + offsets[(-sx, sy)], 2)
        for sx, sy in DIRECTIONS
    }


def perimeter(offsets: dict[Direction, int]) -> int:
    return sum(offsets.values())


def _line_potentials(
    cells: Sequence[Point],
    sums: list[int],
    diffs: list[int],
    offsets: dict[Direction, int],
) -> tuple[dict[Direction, int], int]:
    """Potentials of the endangered ``cells``, whose x+y and x-y columns are
    ``sums`` and ``diffs``: per front in quarter units, and the total.

    A cell on k front lines gives each of them 4 // k quarters and counts
    once in the total. Each line's cells are counted with ``list.count``;
    parallel fronts at offset 0 are one line. Then the corners, the points on
    a sum line and a diff line at once, are corrected: there are at most
    four, each counted in ``cells``.
    """
    # Front (sx, sy) at offset c is the line sx*c of its column; the fronts
    # that share a line value are listed under it.
    sum_fronts: dict[int, list[Direction]] = {}
    diff_fronts: dict[int, list[Direction]] = {}
    for sx, sy in DIRECTIONS:
        fronts_at = sum_fronts if sx == sy else diff_fronts
        fronts_at.setdefault(sx * offsets[(sx, sy)], []).append((sx, sy))
    sum_count = {s: sums.count(s) for s in sum_fronts}
    diff_count = {v: diffs.count(v) for v in diff_fronts}
    total = sum(sum_count.values()) + sum(diff_count.values())
    quarters = dict.fromkeys(DIRECTIONS, 0)
    for fronts_at, count in ((sum_fronts, sum_count), (diff_fronts, diff_count)):
        for value, fronts in fronts_at.items():
            for d in fronts:
                quarters[d] += count[value] * (4 // len(fronts))
    # A corner cell was counted on its sum line and on its diff line, each
    # time with the share of that line's fronts alone.
    for s, s_fronts in sum_fronts.items():
        for v, v_fronts in diff_fronts.items():
            if (s + v) % 2 or not (sum_count[s] and diff_count[v]):
                continue
            n = cells.count(((s + v) // 2, (s - v) // 2))
            total -= n
            share = 4 // (len(s_fronts) + len(v_fronts))
            for fronts in (s_fronts, v_fronts):
                for d in fronts:
                    quarters[d] += n * (share - 4 // len(fronts))
    return quarters, total


def activity(
    offsets_now: dict[Direction, int], offsets_next: dict[Direction, int],
    source: Iterable[Point],
) -> tuple[dict[Direction, int], int]:
    """Per-front active indicators between consecutive instants, and their sum.

    The walk's fronts start at the origin and advance by at most one line per
    round. A fire from ``source`` may break that even on a valid trace: from a
    cell off the diagonals through the origin, a front stays at 0 until the
    hole fills and then jumps, and a source of more than one cell starts some
    front beyond line 1. That raises ValueError naming the source.
    """
    act: dict[Direction, int] = {}
    for d in DIRECTIONS:
        diff = offsets_next[d] - offsets_now[d]
        if diff not in (0, 1):
            cells = sorted(source, key=row_major)
            shown = ", ".join(map(str, cells[:4])) + (", ..." if len(cells) > 4 else "")
            raise ValueError(
                f"monitor precondition: front offset for {d} moved by {diff}; "
                f"checks A-E assume fronts that start at the origin, and the "
                f"fire from source {{{shown}}} does not"
            )
        act[d] = diff
    return act, sum(act.values())


@dataclass
class FrontMetrics:
    t: int
    offsets: dict[Direction, int]
    quarters: dict[Direction, int]
    phi_total: int
    supply: int
    attributed: dict[Direction, int]
    active: dict[Direction, int] | None = None  # None on the final instant

    @property
    def perimeter(self) -> int:
        return perimeter(self.offsets)

    @property
    def lengths(self) -> dict[Direction, Fraction]:
        return front_lengths(self.offsets)

    @property
    def phi(self) -> dict[Direction, Fraction]:
        return {d: Fraction(q, 4) for d, q in self.quarters.items()}


@dataclass
class CheckResult:
    name: str
    passed: bool
    violations: list[tuple[int, str]] = field(default_factory=list)
    note: str | None = None


@dataclass
class MonitorReport:
    metrics: list[FrontMetrics]
    checks: dict[str, CheckResult]
    min_front_slack: Fraction | None = None

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "rounds": [
                {
                    "t": m.t,
                    "offsets": {f"{sx},{sy}": c for (sx, sy), c in m.offsets.items()},
                    "perimeter": m.perimeter,
                    "phi_total": str(m.phi_total),
                    "supply": m.supply,
                    "active": None
                    if m.active is None
                    else {f"{sx},{sy}": a for (sx, sy), a in m.active.items()},
                }
                for m in self.metrics
            ],
            "checks": {
                name: {
                    "passed": c.passed,
                    "violations": [[t, detail] for t, detail in c.violations],
                    "note": c.note,
                }
                for name, c in self.checks.items()
            },
            "min_front_slack": None
            if self.min_front_slack is None
            else str(self.min_front_slack),
        }

    def to_table(self) -> str:
        lines = ["    t  perim   phi      supply  active"]
        for m in self.metrics:
            act = "-" if m.active is None else "".join(str(v) for v in m.active.values())
            lines.append(
                f"{m.t:5d}  {m.perimeter:5d}  {str(m.phi_total):>7}  "
                f"{m.supply:6d}  {act}"
            )
        for name, c in sorted(self.checks.items()):
            status = "pass" if c.passed else "FAIL"
            extra = f" ({c.note})" if c.note else ""
            if c.violations:
                t0, detail = c.violations[0]
                extra += f" first violation at t={t0}: {detail}"
            lines.append(f"check {name}: {status}{extra}")
        return "\n".join(lines)


def check_invariants(trace: RunTrace, validate: bool = True) -> MonitorReport:
    """Walk a Cartesian trace and evaluate checks A-F on every instant."""
    if trace.topology is not Topology.CARTESIAN:
        raise ValueError("front metrics are defined on the Cartesian grid only")
    if validate:
        replay_validate(trace)

    offsets = dict.fromkeys(DIRECTIONS, 0)
    # The x+y and x-y values of every burning cell: the lines that burn.
    sum_lines: set[int] = set()
    diff_lines: set[int] = set()
    attributed_cum = {d: 0 for d in DIRECTIONS}
    # At instant 0 nothing burns yet: the declared source is the one
    # endangered point, and each front gets a quarter of it.
    metrics = [FrontMetrics(t=0, offsets=offsets, quarters=dict.fromkeys(DIRECTIONS, 1),
                            phi_total=1, supply=0, attributed=dict(attributed_cum))]
    unattributed: list[Point] = []
    supply = 0
    sums, diffs = _diagonals(trace.initial)
    for rec in trace.rounds:
        # Instant t = rec.t: squads 1..t are down, spreads 1..t-1 have burnt.
        sum_lines.update(sums)
        diff_lines.update(diffs)
        # Filling lines never empties one, so each offset only moves up.
        offsets = _advance(offsets, sum_lines, diff_lines)
        supply += rec.f
        # What is endangered now is exactly what spread t ignites; its
        # columns feed the burning lines at the next instant.
        sums, diffs = _diagonals(rec.ignited)
        quarters, phi_total = _line_potentials(rec.ignited, sums, diffs, offsets)
        unattributed.extend(rec.placed)
        still: list[Point] = []
        for q in unattributed:
            for d in DIRECTIONS:
                if q[0] * d[0] + q[1] * d[1] == offsets[d]:
                    attributed_cum[d] += 1
                    break
            else:
                still.append(q)
        unattributed = still
        metrics.append(FrontMetrics(t=rec.t, offsets=offsets, quarters=quarters,
                                    phi_total=phi_total, supply=supply,
                                    attributed=dict(attributed_cum)))

    for now, after in zip(metrics, metrics[1:]):
        now.active, _ = activity(now.offsets, after.offsets, trace.initial)

    checks = {name: CheckResult(name, True) for name in "ABCDE"}
    cap_void_from: int | None = None

    for m in metrics:
        t, offsets, quarters, perim = m.t, m.offsets, m.quarters, m.perimeter
        if t >= 1:
            for sx, sy in DIRECTIONS:
                d = (sx, sy)
                # The front's length is 2 * (sum of its neighbors' offsets) quarters.
                if quarters[d] > 2 * (offsets[(sx, -sy)] + offsets[(-sx, sy)]):
                    checks["A"].violations.append(
                        (t, f"phi{d}={m.phi[d]} > length {m.lengths[d]}")
                    )
            if m.active is not None:
                for d in DIRECTIONS:
                    if (m.active[d] == 0) != (quarters[d] == 0):
                        checks["B"].violations.append(
                            (t, f"front {d} active={m.active[d]} but phi={m.phi[d]}")
                        )
        if perim >= 2 * m.supply - 1:
            if not (2 * m.phi_total >= perim - 1):
                checks["C"].violations.append(
                    (t, f"phi={m.phi_total} < (perimeter-1)/2 = ({perim}-1)/2")
                )
            for sx, sy in ((1, 1), (1, -1)):
                if not quarters[(sx, sy)] + quarters[(-sx, -sy)]:
                    checks["D"].violations.append(
                        (t, f"opposing fronts ({sx},{sy})/({-sx},{-sy}) both at zero")
                    )
        if cap_void_from is None and 2 * m.supply > 3 * t + 1:
            cap_void_from = t
        if cap_void_from is None and perim < 3 * t:
            checks["E"].violations.append((t, f"perimeter {perim} < {3 * t}"))

    for c in checks.values():
        c.passed = not c.violations
    if cap_void_from is not None:
        checks["E"].note = f"precondition void from t={cap_void_from}"
    # F: phi - (1/4 + offset - attributed), in quarters.
    slack = min((m.quarters[d] - 1 - 4 * (m.offsets[d] - m.attributed[d])
                 for m in metrics if m.t >= 1 for d in DIRECTIONS), default=None)
    return MonitorReport(metrics=metrics, checks=checks,
                         min_front_slack=None if slack is None else Fraction(slack, 4))
