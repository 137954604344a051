"""Shared oracles and helpers for the test suite."""

from __future__ import annotations

from collections import deque

import pytest

from gridfire.budget import label_budget
from gridfire.engine import FireState
from gridfire.grid import _OFFSETS, Point, Topology, neighbors
from gridfire.trace import RunTrace


def bfs_ball(center: Point, radius: int, topo: Topology) -> set[Point]:
    """Breadth-first expansion oracle, independent of the closed-form ball."""
    seen = {center}
    frontier = deque([(center, 0)])
    while frontier:
        p, d = frontier.popleft()
        if d == radius:
            continue
        for q in neighbors(p, topo):
            if q not in seen:
                seen.add(q)
                frontier.append((q, d + 1))
    return seen


def single_source(topo: Topology = Topology.CARTESIAN) -> FireState:
    return FireState(
        burnt=frozenset({(0, 0)}),
        protected=frozenset(),
        round=0,
        topology=topo,
    )


@pytest.fixture
def origin_cartesian() -> FireState:
    return single_source(Topology.CARTESIAN)


@pytest.fixture
def origin_strong() -> FireState:
    return single_source(Topology.STRONG)


def scan_near(cells, burnt, protected, topo: Topology) -> set[Point]:
    """Per-cell oracle: every unburnt, unprotected neighbor of one of ``cells``."""
    offsets = _OFFSETS[topo]
    return {
        q
        for x, y in cells
        for dx, dy in offsets
        if (q := (x + dx, y + dy)) not in burnt and q not in protected
    }


def scan_endangered(burnt, protected, topo: Topology) -> set[Point]:
    """Full-scan oracle: every unburnt, unprotected neighbor of a burnt point."""
    return scan_near(burnt, burnt, protected, topo)


def reference_accepts(trace: RunTrace) -> bool:
    """Point-set oracle for ``replay_validate``: whether ``trace`` records a
    true run, each round as the spread rule plays it and a header that agrees
    with them. It replays the rounds on plain sets, taking each round's E
    afresh from every burnt cell's ``grid.neighbors``, with no ``SimView``."""
    if (trace.error is not None) != (trace.status == "strategy-error"):
        return False
    try:
        budget = label_budget(trace.budget_desc)
    except ValueError:
        return False
    burnt, protected = set(trace.initial), set()
    if len(burnt) != len(trace.initial):
        return False

    def front() -> set[Point]:
        return {q for p in burnt for q in neighbors(p, trace.topology)} - burnt - protected

    for t, rec in enumerate(trace.rounds, start=1):
        placed = set(rec.placed)
        if (rec.t != t or not front()
                or budget is not None and rec.f != budget.at(t)
                or len(placed) != len(rec.placed) or len(placed) > rec.f
                or placed & (burnt | protected)):
            return False
        protected |= placed
        ignited = front()
        if len(rec.ignited) != len(ignited) or set(rec.ignited) != ignited:
            return False
        burnt |= ignited
    spreading = bool(front())
    if trace.status == "controlled":
        return not spreading and trace.control_round == len(trace.rounds)
    if trace.control_round is not None:
        return False
    if trace.status == "horizon":
        return spreading
    # A strategy fails while the fire spreads, or in reset before round 1.
    return trace.status == "strategy-error" and (spreading or not trace.rounds)


def naive_ranking(core, depth, burnt, prot, e_mask):
    """Every child of a search node with its own endangered set, ranked by
    (bound, squad): the reference for ``_Search.ranked_children``."""
    f_after = core.f[depth + 1] if depth + 1 < len(core.f) else 0
    ranked = []
    cand = core.candidates(depth, burnt, prot)
    for squad, burnt2, prot2 in core.children(burnt, prot, e_mask, cand, core.f[depth]):
        e2 = core.win.endangered(burnt2, prot2)
        ranked.append((burnt2.bit_count() + max(0, e2.bit_count() - f_after), squad))
    # Children come in squad order, so a stable sort on the bound alone
    # gives (bound, squad) order.
    ranked.sort(key=lambda child: child[0])
    return ranked


def per_subset_seal(core, depth, burnt, prot, e_mask):
    """The seal as a subset search: the reference for ``_Search.seal``.

    After the same two cheap forms and the same refutation by ``covers``, it
    tries every squad of ``f_next`` cells drawn from the nonpockets and the
    exposures of at most ``f_next`` cells, in ``combinations`` order, and
    keeps the first one that seals with the fewest cells left to burn.
    """
    if not e_mask:
        return (), 0
    win = core.win
    f_next = core.f[depth]
    exposed = win.full & ~burnt & ~prot & ~e_mask
    nonpocket = e_mask & win.neighbors_mask(exposed)
    cand = core.candidates(depth, burnt, prot)
    n_e = e_mask.bit_count()
    n_np = nonpocket.bit_count()
    coverable = not (e_mask & ~cand)
    if coverable and n_e <= f_next:
        return tuple(win.singles(e_mask)), 0
    if coverable and n_np <= f_next:
        pockets = win.singles(e_mask ^ nonpocket)
        squad = win.singles(nonpocket) + pockets[: f_next - n_np]
        return tuple(squad), n_e - len(squad)
    # Protecting more never unseals, and a cover lies inside the pool below,
    # so padded to a full squad it is one of the squads tried there.
    if next(core.covers(nonpocket, exposed, f_next, cand), None) is None:
        return None
    pool = nonpocket
    for b in win.bits(nonpocket):
        exposure = win.cell_nbrs[b] & exposed
        if exposure.bit_count() <= f_next:
            pool |= exposure
    best = None
    for squad, burnt2, prot2 in core.children(burnt, prot, e_mask, pool & cand, f_next):
        if win.endangered(burnt2, prot2):
            continue
        n_burn = (burnt2 ^ burnt).bit_count()
        if best is None or n_burn < best[1]:
            best = (squad, n_burn)
    return best
