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

Both drivers run on one core, ``_Search``: the window and the supply, the node
count, the child expansion, the seal test and a transposition table, one
bucket per depth. Each driver keeps only its own walk. Squads travel as tuples
of bit indices and are decoded to points only for the witness. A bucket holds
at most ``_TT_CAP`` positions; once one is full, later duplicates at that depth
are searched again. That costs nodes, so the node cap may come sooner, but it
finds nothing different; the result's ``note`` names the depths where it
happened.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .budget import Budget
from .engine import FireState, run
from .grid import Point, Topology
from .monitor import front_offsets
from .strategies import ScriptedStrategy
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

# Positions remembered per depth by the transposition table.
_TT_CAP = 4_000_000


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
            for i, (x, y) in enumerate(self.points(range(self.nbits))):
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

    def bits(self, mask: int) -> list[int]:
        """The set bits of ``mask``, lowest first."""
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def points(self, bits: Iterable[int]) -> list[Point]:
        """The cells at bit indices ``bits``, in the order given."""
        side = self.side
        half = self.half
        return [(b % side - half, b // side - half) for b in bits]

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

    def endangered(self, burnt: int, prot: int) -> int:
        """Unburnt, unprotected neighbors of ``burnt``: the bitboard spread rule."""
        return self.neighbors_mask(burnt) & ~burnt & ~prot

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
        return min(
            (self.transform(burnt, i) << self.nbits) | self.transform(prot, i)
            for i in range(8)
        )

    def perimeter(self, burnt_mask: int) -> int:
        return sum(front_offsets(self.points(self.bits(burnt_mask))).values())


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


Squad = tuple[int, ...]  # bit indices on the search window


class _Found(Exception):
    def __init__(self, squads: list[Squad]):
        self.squads = squads


class _Search:
    """The part of a search both drivers share; each driver walks it its own way."""

    def __init__(self, cfg: SearchConfig):
        if cfg.horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.cfg = cfg
        reach = max((abs(c) for p in cfg.source for c in p), default=0)
        d = cfg.candidate_distance if cfg.candidate_distance is not None else 1
        self.win = _Window(reach + cfg.horizon * max(d, 1) + 2, cfg.topology)
        self.burnt0 = self.win.encode(cfg.source)
        self.f = [cfg.budget.at(t) for t in range(1, cfg.horizon + 1)]
        self.nodes = 0
        self.seen: list[set[int]] = [set() for _ in range(cfg.horizon + 1)]
        self.saturated: set[int] = set()  # depths whose bucket filled up

    def enter(self) -> None:
        """Count one node; past the node cap, abandon the search."""
        self.nodes += 1
        if self.nodes > self.cfg.node_cap:
            raise _CapHit

    def candidates(self, burnt: int, prot: int) -> int:
        d = self.cfg.candidate_distance
        # Cells farther than the horizon's reach can never interact with the
        # fire in time, so the window edge is a safe stand-in for "anywhere".
        area = self.win.full if d is None else self.win.dilate_linf(burnt | prot, d)
        return area & ~burnt & ~prot

    def children(
        self, burnt: int, prot: int, e_mask: int, cells: int, k: int
    ) -> Iterator[tuple[Squad, int, int]]:
        """(squad, burnt', protected') for each squad of min(k, |cells|) cells.

        Squads come in lexicographic order of their ascending bit indices.
        """
        pool = self.win.bits(cells)
        for squad in itertools.combinations(pool, min(k, len(pool))):
            s_mask = 0
            for b in squad:
                s_mask |= 1 << b
            yield squad, burnt | (e_mask & ~s_mask), prot | s_mask

    def fresh(self, depth: int, burnt: int, prot: int) -> bool:
        """False when an equivalent position was already entered at ``depth``."""
        win = self.win
        if self.cfg.symmetry:
            key = win.canonical(burnt, prot)
        else:
            key = (burnt << win.nbits) | prot
        bucket = self.seen[depth]
        if key in bucket:
            return False
        if len(bucket) < _TT_CAP:
            bucket.add(key)
        else:
            self.saturated.add(depth)
        return True

    def seal(
        self, burnt: int, prot: int, e_mask: int, f_next: int
    ) -> tuple[Squad, int] | None:
        """A legal squad after which nothing is endangered, or None.

        Returns (squad, cells that still burn); among seals it minimizes the
        number of cells left to burn.
        """
        if not e_mask:
            return (), 0
        win = self.win
        cell_nbrs = win.cell_nbrs
        # A pocket's ignition exposes nothing new; burning pockets is free.
        exposed = win.full & ~burnt & ~prot & ~e_mask
        # Cheap refutation first: a seal needs few endangered cells, or few
        # whose ignition would expose anything. Exotic seals protect a cell's
        # exposure instead of the cell itself; each protected cell can absorb
        # at most itself plus its neighbors' worth of exposed cells, so beyond
        # 9 per firefighter nothing can work.
        if e_mask.bit_count() > f_next:
            n_np = 0
            m = e_mask
            while m:
                low = m & -m
                if cell_nbrs[low.bit_length() - 1] & exposed:
                    n_np += 1
                    if n_np > 9 * f_next:
                        return None
                m ^= low
        cand = self.candidates(burnt, prot)
        e_bits = win.bits(e_mask)
        coverable = not (e_mask & ~cand)
        if coverable and len(e_bits) <= f_next:
            return tuple(e_bits), 0
        nonpockets = [b for b in e_bits if cell_nbrs[b] & exposed]
        if coverable and len(nonpockets) <= f_next:
            squad = nonpockets
            for b in e_bits:
                if len(squad) >= f_next:
                    break
                if cell_nbrs[b] & exposed == 0:
                    squad.append(b)
            return tuple(squad), len(e_bits) - len(squad)
        # Every non-protected nonpocket needs its whole exposure inside the squad.
        coverable_np = [
            b for b in nonpockets if (cell_nbrs[b] & exposed).bit_count() <= f_next
        ]
        if len(nonpockets) - len(coverable_np) > f_next:
            return None
        pool = 0
        for b in nonpockets:
            pool |= 1 << b
        for b in coverable_np:
            pool |= cell_nbrs[b] & exposed
        best: tuple[Squad, int] | None = None
        for squad, burnt2, prot2 in self.children(burnt, prot, e_mask, pool & cand, f_next):
            if win.endangered(burnt2, prot2):
                continue
            n_burn = (burnt2 ^ burnt).bit_count()
            if best is None or n_burn < best[1]:
                best = (squad, n_burn)
        return best

    def witness(self, squads: list[Squad]) -> RunTrace:
        cfg = self.cfg
        initial = FireState(frozenset(cfg.source), frozenset(), 0, cfg.topology)
        script = {t: self.win.points(s) for t, s in enumerate(squads, start=1)}
        strategy = ScriptedStrategy("search-witness", script)
        return run(initial, cfg.budget, strategy, max(len(squads), 1))

    def result(self, outcome: str, note: str | None = None, **fields) -> SearchResult:
        notes = [note] if note else []
        if self.saturated:
            depths = ", ".join(map(str, sorted(self.saturated)))
            notes.append(f"transposition table full ({_TT_CAP} positions) at depth "
                         f"{depths}: later duplicates there were searched again")
        return SearchResult(
            outcome=outcome, nodes=self.nodes, note="; ".join(notes) or None, **fields
        )


def exhaustive_search(cfg: SearchConfig) -> SearchResult:
    """Exhaust play up to the horizon; exact within the candidate rule."""
    core = _Search(cfg)
    win = core.win
    f = core.f
    last_depth = cfg.horizon - 1
    min_perim: int | None = None

    def visit(burnt: int, prot: int, depth: int, squads: list[Squad]) -> None:
        nonlocal min_perim
        core.enter()
        e_mask = win.endangered(burnt, prot)
        f_next = f[depth]
        seal = core.seal(burnt, prot, e_mask, f_next)
        if seal is not None:
            raise _Found(squads + [seal[0]])
        if depth == last_depth:
            perim = win.perimeter(burnt)
            if min_perim is None or perim < min_perim:
                min_perim = perim
            return
        dedupe = depth + 1 < last_depth
        cand = core.candidates(burnt, prot)
        for squad, burnt2, prot2 in core.children(burnt, prot, e_mask, cand, f_next):
            if dedupe and not core.fresh(depth + 1, burnt2, prot2):
                continue
            visit(burnt2, prot2, depth + 1, squads + [squad])

    try:
        visit(core.burnt0, 0, 0, [])
    except _CapHit:
        return core.result(
            "node-cap-hit", "inconclusive: node cap reached", min_final_perimeter=min_perim
        )
    except _Found as found:
        witness = core.witness(found.squads)
        return core.result(
            "controlled-found",
            min_final_perimeter=min_perim,
            min_burnt=len(witness.state_at(witness.final_round())[0]),
            witness=witness,
        )
    return core.result("exhausted-no-control", min_final_perimeter=min_perim)


def min_burnt_search(cfg: SearchConfig) -> SearchResult:
    """Branch-and-bound for a containment witness with the fewest burnt cells."""
    core = _Search(cfg)
    win = core.win
    f = core.f
    best_burnt: int | None = cfg.initial_bound
    best_squads: list[Squad] | None = None

    def visit(burnt: int, prot: int, depth: int, squads: list[Squad]) -> None:
        nonlocal best_burnt, best_squads
        core.enter()
        n_burnt = burnt.bit_count()
        if best_burnt is not None and n_burnt >= best_burnt:
            return
        e_mask = win.endangered(burnt, prot)
        n_e = e_mask.bit_count()
        if depth < cfg.horizon:
            seal = core.seal(burnt, prot, e_mask, f[depth])
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
        f_after = f[depth + 1] if depth + 1 < len(f) else 0
        # Most promising squads first (smallest one-step burnt lower bound),
        # so incumbents arrive early and the bound prune bites.
        children = []
        cand = core.candidates(burnt, prot)
        for squad, burnt2, prot2 in core.children(burnt, prot, e_mask, cand, f[depth]):
            e2 = win.endangered(burnt2, prot2)
            bound2 = burnt2.bit_count() + max(0, e2.bit_count() - f_after)
            children.append((bound2, squad, burnt2, prot2))
        children.sort(key=lambda c: (c[0], c[1]))
        for bound2, squad, burnt2, prot2 in children:
            if best_burnt is not None and bound2 >= best_burnt:
                break
            if core.fresh(depth + 1, burnt2, prot2):
                visit(burnt2, prot2, depth + 1, squads + [squad])

    capped = False
    try:
        visit(core.burnt0, 0, 0, [])
    except _CapHit:
        capped = True
    if best_squads is None:
        return core.result(
            "node-cap-hit" if capped else "exhausted-no-control",
            "no containment found" + (" before node cap" if capped else ""),
        )
    return core.result(
        "node-cap-hit" if capped else "controlled-found",
        "best found before node cap" if capped else None,
        min_burnt=best_burnt,
        witness=core.witness(best_squads),
    )
