"""Bounded game-tree search over firefighter placements.

States live on a fixed square window encoded as big-integer bitboards, so a
spread step and candidate generation are a handful of shifts. The exhaustive
driver quantifies over all full-strength placement choices drawn from the
candidate rule (placing fewer firefighters, or the same set later, is never
better for the firefighters, so full squads are exhaustive for both the
control question and the minimum final perimeter).

Control at the next round is decided exactly per node instead of branching a
final level: a squad seals the fire iff every endangered cell is protected,
burns as a pocket (a cell whose ignition exposes nothing new), or has its
entire exposure covered. The rare third form is enumerated explicitly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .budget import Budget
from .engine import FireState, run
from .grid import Point, Topology
from .trace import RunTrace

_SYMS = (
    lambda x, y: (x, y),
    lambda x, y: (-x, y),
    lambda x, y: (x, -y),
    lambda x, y: (-x, -y),
    lambda x, y: (y, x),
    lambda x, y: (-y, x),
    lambda x, y: (y, -x),
    lambda x, y: (-y, -x),
)


class _Window:
    def __init__(self, half: int, topology: Topology):
        self.half = half
        self.side = 2 * half + 1
        self.nbits = self.side * self.side
        self.full = (1 << self.nbits) - 1
        left = 0
        right = 0
        for row in range(self.side):
            left |= 1 << (row * self.side)
            right |= 1 << (row * self.side + self.side - 1)
        self.not_left = self.full ^ left
        self.not_right = self.full ^ right
        self.topology = topology
        self.sym_tables = self._build_sym_tables()
        self.cell_nbrs = [self.neighbors_mask(1 << i) for i in range(self.nbits)]

    def _build_sym_tables(self) -> list[list[int]]:
        tables = []
        for sym in _SYMS:
            table = [0] * self.nbits
            for i in range(self.nbits):
                x = i % self.side - self.half
                y = i // self.side - self.half
                tx, ty = sym(x, y)
                table[i] = (ty + self.half) * self.side + (tx + self.half)
            tables.append(table)
        return tables

    def encode(self, pts) -> int:
        m = 0
        for x, y in pts:
            if abs(x) > self.half or abs(y) > self.half:
                raise ValueError(f"point {x, y} outside the search window")
            m |= 1 << ((y + self.half) * self.side + (x + self.half))
        return m

    def decode(self, mask: int) -> list[Point]:
        out = []
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            out.append((i % self.side - self.half, i // self.side - self.half))
            mask ^= low
        return out

    def bits(self, mask: int) -> list[int]:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def neighbors_mask(self, b: int) -> int:
        side = self.side
        horiz = ((b & self.not_right) << 1) | ((b & self.not_left) >> 1)
        if self.topology is Topology.CARTESIAN:
            out = horiz | (b << side) | (b >> side)
        elif self.topology is Topology.STRONG:
            spread = b | horiz
            out = horiz | (spread << side) | (spread >> side)
        else:  # triangular: Cartesian plus the (1,1)/(-1,-1) diagonals
            out = (
                horiz
                | (b << side) | (b >> side)
                | ((b & self.not_right) << (side + 1))
                | ((b & self.not_left) >> (side + 1))
            )
        return out & self.full

    def dilate_linf(self, b: int, times: int) -> int:
        side = self.side
        for _ in range(times):
            b = b | ((b & self.not_right) << 1) | ((b & self.not_left) >> 1)
            b = (b | (b << side) | (b >> side)) & self.full
        return b

    def transform(self, mask: int, sym_index: int) -> int:
        table = self.sym_tables[sym_index]
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << table[low.bit_length() - 1]
            mask ^= low
        return out

    def canonical(self, burnt: int, prot: int) -> int:
        best = None
        for i in range(8):
            key = (self.transform(burnt, i) << self.nbits) | self.transform(prot, i)
            if best is None or key < best:
                best = key
        return best

    def perimeter(self, burnt_mask: int) -> int:
        cells = self.decode(burnt_mask)
        total = 0
        for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            values = {x * sx + y * sy for x, y in cells}
            c = 0
            while c in values:
                c += 1
            total += c
        return total


@dataclass
class SearchConfig:
    topology: Topology
    source: frozenset[Point]
    budget: Budget
    horizon: int  # instants on the analysis clock; squads 1..horizon may play
    candidate_distance: int | None = 2  # None: anywhere that could matter
    symmetry: bool = True
    node_cap: int = 100_000_000
    # Optional strict upper bound for the minimum-burnt objective: only
    # containments burning fewer cells than this are searched for.
    initial_bound: int | None = None


@dataclass
class SearchResult:
    outcome: str  # "controlled-found" | "exhausted-no-control" | "node-cap-hit"
    nodes: int
    min_final_perimeter: int | None = None
    min_burnt: int | None = None
    witness: RunTrace | None = None
    note: str | None = None


class _CapHit(Exception):
    pass


class _Found(Exception):
    def __init__(self, squads: list[list[Point]]):
        self.squads = squads


class _ScriptedSquads:
    """Plays out a fixed list of squads, then nothing."""

    def __init__(self, squads: list[list[Point]]):
        self.identifier = "search-witness"
        self._squads = squads

    def next_placements(self, view, available: int) -> list[Point]:
        t = view.round + 1
        if t <= len(self._squads):
            return self._squads[t - 1]
        return []


def _window_for(cfg: SearchConfig, horizon: int) -> _Window:
    reach = max((abs(c) for p in cfg.source for c in p), default=0)
    d = cfg.candidate_distance if cfg.candidate_distance is not None else 1
    return _Window(reach + horizon * max(d, 1) + 2, cfg.topology)


def _candidates_mask(win: _Window, cfg: SearchConfig, burnt: int, prot: int) -> int:
    if cfg.candidate_distance is None:
        # Cells farther than the horizon's reach can never interact with the
        # fire in time, so the window edge is a safe stand-in for "anywhere".
        return win.full & ~burnt & ~prot
    area = win.dilate_linf(burnt | prot, cfg.candidate_distance)
    return area & ~burnt & ~prot


def _find_seal(
    win: _Window, burnt: int, prot: int, f_next: int, cand: int,
    e_mask: int | None = None,
) -> tuple[list[Point], int] | None:
    """A legal squad after which nothing is endangered, or None.

    Returns (squad, cells that still burn); among seals it minimizes the
    number of cells left to burn.
    """
    if e_mask is None:
        e_mask = win.neighbors_mask(burnt) & ~burnt & ~prot
    if not e_mask:
        return [], 0
    e_bits = win.bits(e_mask)
    coverable = not (e_mask & ~cand)
    if coverable and len(e_bits) <= f_next:
        return win.decode(e_mask), 0
    # A pocket's ignition exposes nothing new; burning pockets is free.
    exposed = win.full & ~burnt & ~prot & ~e_mask
    cell_nbrs = win.cell_nbrs
    nonpockets = [b for b in e_bits if cell_nbrs[b] & exposed]
    if coverable and len(nonpockets) <= f_next:
        squad_bits = list(nonpockets)
        for b in e_bits:
            if len(squad_bits) >= f_next:
                break
            if cell_nbrs[b] & exposed == 0:
                squad_bits.append(b)
        half = win.half
        side = win.side
        squad = [(b % side - half, b // side - half) for b in squad_bits]
        return squad, len(e_bits) - len(squad_bits)
    # Exotic seals protect a cell's exposure instead of the cell itself; each
    # protected cell can absorb at most itself plus its neighbors' worth of
    # exposed cells, so beyond 9 per firefighter nothing can work.
    if len(nonpockets) > 9 * f_next:
        return None
    # Every non-protected nonpocket needs its whole exposure inside the squad.
    coverable_np = [
        b
        for b in nonpockets
        if bin(cell_nbrs[b] & exposed).count("1") <= f_next
    ]
    if len(nonpockets) - len(coverable_np) > f_next:
        return None
    pool = 0
    for b in nonpockets:
        pool |= 1 << b
    for b in coverable_np:
        pool |= cell_nbrs[b] & exposed
    pool &= cand
    pool_bits = win.bits(pool)
    k = min(f_next, len(pool_bits))
    half = win.half
    side = win.side
    best: tuple[list[Point], int] | None = None
    for combo in itertools.combinations(pool_bits, k):
        s_mask = 0
        for b in combo:
            s_mask |= 1 << b
        prot2 = prot | s_mask
        burn_mask = e_mask & ~s_mask
        burnt2 = burnt | burn_mask
        if win.neighbors_mask(burnt2) & ~burnt2 & ~prot2:
            continue
        n_burn = bin(burn_mask).count("1")
        if best is None or n_burn < best[1]:
            squad = [(b % side - half, b // side - half) for b in combo]
            best = (squad, n_burn)
    return best


def _make_witness(cfg: SearchConfig, squads: list[list[Point]]) -> RunTrace:
    initial = FireState(
        burnt=frozenset(cfg.source),
        protected=frozenset(),
        round=0,
        topology=cfg.topology,
    )
    return run(initial, cfg.budget, _ScriptedSquads(squads), max(len(squads), 1))


def exhaustive_search(cfg: SearchConfig) -> SearchResult:
    """Exhaust play up to the horizon; exact within the candidate rule."""
    if cfg.horizon < 1:
        raise ValueError("horizon must be at least 1")
    last_depth = cfg.horizon - 1
    win = _window_for(cfg, cfg.horizon)
    burnt0 = win.encode(cfg.source)
    nodes = 0
    min_perim: int | None = None
    seen: list[set[int]] = [set() for _ in range(cfg.horizon)]
    f = [cfg.budget.at(t) for t in range(1, cfg.horizon + 1)]

    cell_nbrs = win.cell_nbrs

    def visit(burnt: int, prot: int, depth: int, squads: list[list[Point]]) -> None:
        nonlocal nodes, min_perim
        nodes += 1
        if nodes > cfg.node_cap:
            raise _CapHit
        e_mask = win.neighbors_mask(burnt) & ~burnt & ~prot
        f_next = f[depth]
        # Cheap refutation first: a seal needs few endangered cells, or few
        # whose ignition would expose anything; only then is it worth pricing.
        n_e = bin(e_mask).count("1")
        maybe_seal = n_e <= f_next
        if not maybe_seal:
            exposed = win.full & ~burnt & ~prot & ~e_mask
            n_np = 0
            m = e_mask
            while m:
                low = m & -m
                if cell_nbrs[low.bit_length() - 1] & exposed:
                    n_np += 1
                    if n_np > 9 * f_next:
                        break
                m ^= low
            maybe_seal = n_np <= 9 * f_next
        cand = None
        if maybe_seal:
            cand = _candidates_mask(win, cfg, burnt, prot)
            seal = _find_seal(win, burnt, prot, f_next, cand, e_mask=e_mask)
            if seal is not None:
                raise _Found(squads + [seal[0]])
        if depth == last_depth:
            perim = win.perimeter(burnt)
            if min_perim is None or perim < min_perim:
                min_perim = perim
            return
        if cand is None:
            cand = _candidates_mask(win, cfg, burnt, prot)
        cells = win.bits(cand)
        q = min(f_next, len(cells))
        side = win.side
        half = win.half
        dedupe = depth + 1 < last_depth
        bucket = seen[depth + 1]
        for squad_bits in itertools.combinations(cells, q):
            s_mask = 0
            for b in squad_bits:
                s_mask |= 1 << b
            prot2 = prot | s_mask
            ignited = e_mask & ~s_mask
            burnt2 = burnt | ignited
            if dedupe:
                if cfg.symmetry:
                    key = win.canonical(burnt2, prot2)
                else:
                    key = (burnt2 << win.nbits) | prot2
                if key in bucket:
                    continue
                if len(bucket) < 4_000_000:
                    bucket.add(key)
            squad_pts = [(b % side - half, b // side - half) for b in squad_bits]
            visit(burnt2, prot2, depth + 1, squads + [squad_pts])

    try:
        visit(burnt0, 0, 0, [])
    except _CapHit:
        return SearchResult(
            outcome="node-cap-hit", nodes=nodes, min_final_perimeter=min_perim,
            note="inconclusive: node cap reached",
        )
    except _Found as found:
        witness = _make_witness(cfg, found.squads)
        return SearchResult(
            outcome="controlled-found",
            nodes=nodes,
            min_final_perimeter=min_perim,
            min_burnt=len(witness.state_at(witness.final_round())[0]),
            witness=witness,
        )
    return SearchResult(
        outcome="exhausted-no-control", nodes=nodes, min_final_perimeter=min_perim
    )


def min_burnt_search(cfg: SearchConfig) -> SearchResult:
    """Branch-and-bound for a containment witness with the fewest burnt cells."""
    if cfg.horizon < 1:
        raise ValueError("horizon must be at least 1")
    win = _window_for(cfg, cfg.horizon)
    burnt0 = win.encode(cfg.source)
    nodes = 0
    best_burnt: int | None = cfg.initial_bound
    best_squads: list[list[Point]] | None = None
    f = [cfg.budget.at(t) for t in range(1, cfg.horizon + 1)]
    seen: list[set[int]] = [set() for _ in range(cfg.horizon + 1)]

    def visit(burnt: int, prot: int, depth: int, squads: list[list[Point]]) -> None:
        nonlocal nodes, best_burnt, best_squads
        nodes += 1
        if nodes > cfg.node_cap:
            raise _CapHit
        n_burnt = bin(burnt).count("1")
        if best_burnt is not None and n_burnt >= best_burnt:
            return
        cand = _candidates_mask(win, cfg, burnt, prot)
        e_mask = win.neighbors_mask(burnt) & ~burnt & ~prot
        n_e = bin(e_mask).count("1")
        if depth < cfg.horizon:
            seal = _find_seal(win, burnt, prot, f[depth], cand, e_mask=e_mask)
            if seal is not None:
                total = n_burnt + seal[1]
                if best_burnt is None or total < best_burnt:
                    best_burnt = total
                    best_squads = squads + [seal[0]]
                # Any continuation burns at least everything a best seal burns.
                if n_e - f[depth] >= seal[1]:
                    return
        if depth >= cfg.horizon:
            return
        # Everything endangered beyond this round's protection burns next.
        floor = n_burnt + max(0, n_e - f[depth])
        if best_burnt is not None and floor >= best_burnt:
            return
        cells = win.bits(cand)
        q = min(f[depth], len(cells))
        side = win.side
        half = win.half
        f_after = f[depth + 1] if depth + 1 < len(f) else 0
        # Most promising squads first (smallest one-step burnt lower bound),
        # so incumbents arrive early and the bound prune bites.
        children = []
        for squad_bits in itertools.combinations(cells, q):
            s_mask = 0
            for b in squad_bits:
                s_mask |= 1 << b
            prot2 = prot | s_mask
            ignited = e_mask & ~s_mask
            burnt2 = burnt | ignited
            e2 = win.neighbors_mask(burnt2) & ~burnt2 & ~prot2
            bound2 = bin(burnt2).count("1") + max(0, bin(e2).count("1") - f_after)
            children.append((bound2, squad_bits, burnt2, prot2))
        children.sort(key=lambda c: (c[0], c[1]))
        bucket = seen[depth + 1]
        for bound2, squad_bits, burnt2, prot2 in children:
            if best_burnt is not None and bound2 >= best_burnt:
                break
            if cfg.symmetry:
                key = win.canonical(burnt2, prot2)
            else:
                key = (burnt2 << win.nbits) | prot2
            if key in bucket:
                continue
            if len(bucket) < 4_000_000:
                bucket.add(key)
            squad_pts = [(b % side - half, b // side - half) for b in squad_bits]
            visit(burnt2, prot2, depth + 1, squads + [squad_pts])

    capped = False
    try:
        visit(burnt0, 0, 0, [])
    except _CapHit:
        capped = True
    if best_squads is None:
        return SearchResult(
            outcome="node-cap-hit" if capped else "exhausted-no-control",
            nodes=nodes,
            note="no containment found" + (" before node cap" if capped else ""),
        )
    witness = _make_witness(cfg, best_squads)
    return SearchResult(
        outcome="node-cap-hit" if capped else "controlled-found",
        nodes=nodes,
        min_burnt=best_burnt,
        witness=witness,
        note="best found before node cap" if capped else None,
    )
