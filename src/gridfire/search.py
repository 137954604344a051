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
entire exposure covered. So every seal holds a cover of at most f cells: a
set holding every nonpocket or its whole exposure. A bounded search tree over
the nonpockets yields such covers as its leaves (``_Search.covers``), and
every seal holds one of them, so the seal is built from the leaves alone: the
least seal is itself a leaf, and the leaf that burns fewest is kept. At the
exhaustive driver's last level the same tree, with room for the leaf's squad
as well, refutes whole groups of leaves when it has no leaf; those are then
counted without being walked.

The minimum-burnt driver walks a node's children in order of a one-step
burnt bound and stops at the first one whose bound reaches the incumbent, an
int: the best containment's burn so far, or the initial bound. One gate
(``_Search.gate``) ends a node before its seal and its children: it tests the
node's floor and then counts over the endangered set's second ring whether
any child could have a bound below the incumbent; most nodes have none, and
a node with none has no seal below it either. Otherwise the seal is priced
and the children are scored per group of squads, since within a group the
bound depends only on how many of the group's endangered cells the squad's
other cells protect, and the squads of a bound are built only once the walk
reaches it.

Both drivers run on one core, ``_Search``: the window and the supply, the node
count, the image carry, the seal test and a transposition table, one bucket
per depth. Each driver keeps only its own walk. Squads travel as tuples of
single-bit masks and are decoded to points only for the witness. A node
travels as one list, its images ``(T(burnt) << nbits) | T(prot)``, one per
symmetry table T of the grid, the identity's first; its burnt and protected
sets are read off that first image. One ``_Search.carry`` makes every node's
images: a child's from its parent's, the endangered set's and the squad's
cells, and the root's from the empty position with the source endangered. A
position is keyed by its least image. A bucket holds at most ``_TT_CAP``
positions; once one is full, later duplicates at that depth are searched
again. That costs nodes, so the node cap may come sooner, but it finds nothing
different; the result's ``note`` names the depths where it happened.

The window is sized so that neither the fire nor the candidate cells reach its
outer ring; if either ever does, the search raises RuntimeError rather than
let the bitboard shifts clip the fire.

The window writes no geometry of its own: its neighborhood shifts, the symmetries
it keeps and its degree come from the engine's ``grid._OFFSETS`` and its front
lines from ``monitor.DIRECTIONS``. Only the candidate rule's L-infinity dilation,
the same for every topology, is written here.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .budget import Budget
from .engine import FireState, run
from .grid import _OFFSETS, Interned, Point, Topology
from .monitor import DIRECTIONS
from .strategies import ScriptedStrategy
from .trace import RunTrace

# Positions remembered per depth by the transposition table.
_TT_CAP = 4_000_000

# Every direction's front scan starts at line 0 unless told otherwise.
_LINE_ZERO = (0,) * len(DIRECTIONS)


def _symmetries(side: int) -> list[list[int]]:
    """The eight symmetries of the square as permutations of a side x side
    window's row-major cell indices, the identity first: ``perm[b]`` is the
    index of cell b's image.

    Laid out as rows, the identity turns into each of the others by
    transposing ((x, y) -> (y, x)), reversing the row order (y -> -y) and
    reversing each row (x -> -x).
    """
    rows = [list(range(y * side, (y + 1) * side)) for y in range(side)]
    perms = []
    for swapped in (rows, [list(col) for col in zip(*rows)]):
        for flipped in (swapped, swapped[::-1]):
            for grid in (flipped, [row[::-1] for row in flipped]):
                perms.append(list(itertools.chain.from_iterable(grid)))
    return perms


class _Window:
    def __init__(self, half: int, topology: Topology):
        self.half = half
        self.side = 2 * half + 1
        self.nbits = self.side * self.side
        self.full = (1 << self.nbits) - 1
        left = sum(1 << (row * self.side) for row in range(self.side))
        right = left << (self.side - 1)
        self.not_left = self.full ^ left
        self.not_right = self.full ^ right
        bottom = (1 << self.side) - 1
        self.ring = left | right | bottom | (bottom << (self.nbits - self.side))
        offsets = _OFFSETS[topology]
        # Offset (dx, dy) moves a cell's bit by dy*side + dx. Its source is
        # copy dx + 1 of (b & not_left, b, b & not_right), which drops the
        # cells whose move would wrap into the next row.
        steps = [(dx + 1, dy * self.side + dx) for dx, dy in offsets]
        self.up = tuple((i, s) for i, s in steps if s > 0)
        self.down = tuple((i, -s) for i, s in steps if s < 0)
        # Only a symmetry that maps the neighborhood onto itself commutes with
        # the spread: all eight on the square grids, four on the triangular
        # one, whose diagonals run one way only.
        around = self.bits(self.neighbors_mask(1 << self.bit(0, 0)))
        perms = [perm for perm in _symmetries(self.side)
                 if sorted(perm[b] for b in around) == around]
        # sym_bits[i][b] is the single-bit mask of cell b under symmetry i;
        # sym_bits[0] is the identity, which every neighborhood keeps. Every
        # table shares the identity's ints, one per cell.
        cells = list(map((1).__lshift__, range(self.nbits)))
        self.sym_bits = [list(map(cells.__getitem__, perm)) for perm in perms]
        # lines[d][c]: the cells on front line c of direction d = (sx, sy),
        # sx*x + sy*y = c for c = 0, 1, ...; each list ends in an empty line,
        # so every scan stops. Line c is line 0, the cells (x, -sx*sy*x),
        # moved by sy*c rows.
        shifts = range(0, (self.side + 1) * self.side, self.side)  # c rows, in bits
        self.lines = []
        for sx, sy in DIRECTIONS:
            base = sum(1 << self.bit(x, -sx * sy * x) for x in range(-half, half + 1))
            self.lines.append([(base << r) & self.full if sy > 0 else base >> r
                               for r in shifts])
        # cell_nbrs[b]: the neighbors of cell b. The pattern of a cell in
        # column x holds the moves dy*side + dx of the offsets that keep it
        # in the window sideways, lifted by side + 1 so that none is
        # negative; shifted up by b and back down by the lift, it drops the
        # moves off the bottom, and the window mask those off the top.
        side = self.side
        lift = side + 1
        row = [sum(1 << (dy * side + dx + lift) for dx, dy in offsets if 0 <= x + dx < side)
               for x in range(side)]
        self.cell_nbrs = list(map(
            self.full.__and__,
            map(operator.rshift, map(operator.lshift, row * side, range(self.nbits)),
                itertools.repeat(lift))))
        self.degree = len(offsets)

    def bit(self, x: int, y: int) -> int:
        return (y + self.half) * self.side + (x + self.half)

    def encode(self, pts) -> int:
        m = 0
        for x, y in pts:
            if abs(x) > self.half or abs(y) > self.half:
                raise ValueError(f"point {x, y} outside the search window")
            m |= 1 << self.bit(x, y)
        return m

    def bits(self, mask: int) -> list[int]:
        """The set bits of ``mask``, lowest first."""
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def singles(self, mask: int) -> list[int]:
        """``mask`` split into single-bit masks, lowest first."""
        out = []
        while mask:
            low = mask & -mask
            out.append(low)
            mask ^= low
        return out

    def points(self, bits: Iterable[int]) -> list[Point]:
        """The cells at bit indices ``bits``, in the order given."""
        side = self.side
        half = self.half
        return [(b % side - half, b // side - half) for b in bits]

    def neighbors_mask(self, b: int) -> int:
        """The cells next to a cell of ``b``, by ``grid._OFFSETS``, within
        the window."""
        copies = (b & self.not_left, b, b & self.not_right)
        out = 0
        for i, s in self.up:
            out |= copies[i] << s
        for i, s in self.down:
            out |= copies[i] >> s
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

    def offsets(self, burnt: int, start: Iterable[int] = _LINE_ZERO) -> list[int]:
        """Per direction of ``monitor.DIRECTIONS``, the first front line
        ``burnt`` misses.

        A direction (sx, sy) has the lines sx*x + sy*y = c. Each scan starts
        at line ``start[d]``, the offsets of a subset of ``burnt`` (line 0 by
        default): every line a subset hits, ``burnt`` hits too.
        """
        out = []
        for lines, c in zip(self.lines, start):
            while burnt & lines[c]:
                c += 1
            out.append(c)
        return out

    def perimeter(self, burnt: int, start: Iterable[int] = _LINE_ZERO) -> int:
        """The sum of ``offsets``; ``monitor.front_offsets`` states the same
        definition on points."""
        return sum(self.offsets(burnt, start))


@dataclass
class SearchConfig:
    """One search instance. No field chooses the key: a position is always
    keyed by its least image over the grid's symmetries, which the walks
    carry from node to node (``_Search.carry``)."""

    topology: Topology
    source: frozenset[Point]
    budget: Budget
    horizon: int  # instants on the analysis clock; squads 1..horizon may play
    candidate_distance: int | None = 2  # None: anywhere that could matter
    node_cap: int = 100_000_000
    # Optional strict upper bound for the minimum-burnt objective: only
    # containments burning fewer cells than this are searched for.
    initial_bound: int | None = None


@dataclass
class SearchResult:
    """What a search found. A minimum-burnt search given an
    ``initial_bound`` looks only below it, so when it finds nothing its
    ``note`` names the bound, "no containment burning fewer than N cells",
    since a containment burning N or more may still exist."""

    outcome: str  # "controlled-found" | "exhausted-no-control" | "node-cap-hit"
    nodes: int
    min_final_perimeter: int | None = None
    min_burnt: int | None = None
    witness: RunTrace | None = None
    note: str | None = None


class _CapHit(Exception):
    pass


Squad = tuple[int, ...]  # single-bit masks on the search window


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
        # Squad sizes by depth; no squad follows the horizon.
        self.f = [cfg.budget.at(t) for t in range(1, cfg.horizon + 1)] + [0]
        self.nodes = 0
        self.seen: list[set[int]] = [set() for _ in range(cfg.horizon + 1)]
        self.saturated: set[int] = set()  # depths whose bucket filled up

    def enter(self) -> None:
        """Count one node; past the node cap, abandon the search."""
        self.nodes += 1
        if self.nodes > self.cfg.node_cap:
            raise _CapHit

    def endangered(self, depth: int, burnt: int, prot: int) -> int:
        """The endangered cells, checked clear of the window's edge."""
        e_mask = self.win.endangered(burnt, prot)
        self.check_edge(depth, burnt | e_mask)
        return e_mask

    def check_edge(self, depth: int, fire: int) -> None:
        """The fire (burnt and endangered cells) must stay clear of the
        window's edge, where ``neighbors_mask`` would clip it."""
        if fire & self.win.ring:
            raise RuntimeError(
                f"search window too small: the fire reaches its edge at depth {depth}")

    def candidates(self, depth: int, burnt: int, prot: int) -> int:
        d = self.cfg.candidate_distance
        if d is None:
            # Cells farther than the horizon's reach can never interact with
            # the fire in time, so the window edge is a safe stand-in for
            # "anywhere".
            return self.win.full & ~burnt & ~prot
        area = self.win.dilate_linf(burnt | prot, d)
        if area & self.win.ring:
            raise RuntimeError(
                f"search window too small: candidates reach its edge at depth {depth}")
        return area & ~burnt & ~prot

    def squads(self, cells: int, k: int) -> Iterator[Squad]:
        """Every squad of min(k, |cells|) cells, in lexicographic order."""
        members = self.win.singles(cells)
        return itertools.combinations(members, min(k, len(members)))

    def groups(
        self, burnt: int, prot: int, e_mask: int, cand: int, k: int
    ) -> Iterator[tuple[Squad, int, int, int]]:
        """The squads of ``k`` cells from ``cand``, group by group, as
        (hs, burnt', base, count).

        A child's burnt set burnt | (E - S) depends only on S & E, so the
        squads are grouped by the endangered cells they protect, ``hs``, in
        ascending order; the rest of a squad is drawn from the cold
        candidates, those outside E. ``burnt'`` is the group's burnt set,
        ``base`` the cells endangered around it before a squad protects its
        own cells (a squad S leaves base - S endangered) and ``count`` =
        C(|cold|, k - |hs|) the number of squads in the group.
        """
        hot = self.win.singles(cand & e_mask)
        n_cold = (cand & ~e_mask).bit_count()
        endangered = self.win.endangered
        for h in range(max(0, k - n_cold), min(k, len(hot)) + 1):
            count = math.comb(n_cold, k - h)
            for hs in itertools.combinations(hot, h):
                burnt2 = burnt | (e_mask ^ sum(hs))
                yield hs, burnt2, endangered(burnt2, prot), count

    def gate(
        self, depth: int, burnt: int, prot: int, e_mask: int, cand: int, cutoff: int
    ) -> str | None:
        """The rule that ends the node (burnt, prot), its squads drawn from
        ``cand``, against the int ``cutoff``, or None: the minimum-burnt
        walk's one gate on a node. ``"floor"`` and ``"ring"`` each show that
        no child has a ``ranked_children`` bound below the cutoff.

        Let R2 = N(E) - burnt - E - prot be the second ring of the endangered
        set E, and let a squad S of k cells protect hs = S & E, h cells. Its
        burnt set is burnt | (E - hs). Around it, hs stays endangered, and a
        cell of R2 does too unless all its neighbors in E lie in hs; nothing
        else is newly endangered. So the group's base is hs plus R2 less
        ``drop`` such enclosed cells, and the squad's other k - h cells remove
        at most k - h more of it. The child's bound is therefore at least
        |burnt| + |E| - h, and at least |burnt| + |E| + |R2| - drop - k -
        f_after.

        An enclosed cell is next to a cell of hs. Each cell of hs is
        endangered, so it has a burnt neighbor and at most degree - 1 others:
        drop <= h * (degree - 1). More tightly, an enclosed cell c has m <= h
        neighbors in E, all hot (in ``cand``); count 1/m of it at each of
        them. Then drop is the sum over hs of what its cells count, which is
        at most the sum of the h largest weights w(e), w(e) being what e
        counts over every cell of R2 with at most h neighbors in E, all hot.
        Both lower bounds fall as h grows, since the weights only grow with
        h, so the least over the groups is the one at the largest h,
        min(k, |hot|). The cheap form of drop is tried first; the weights are
        scaled by lcm(1..h) to stay integers.

        The node's floor, |burnt| + max(0, |E| - f) for the round's supply f,
        is tested first: no continuation of the node burns fewer cells, and
        it is at most the first bound.

        A node the gate ends has no ``seal`` below the cutoff either, so the
        walk may skip its seal too. A seal S holds at most k = min(f, |cand|)
        cells, all in ``cand``; padded with other candidates to k cells it
        still seals and burns no more. That padded squad is a child, and its
        bound is its burn, since it leaves base - S, nothing, endangered. So
        the seal burns, in all, at least that child's bound, which the gate
        shows is at least the cutoff.
        """
        win = self.win
        burns = burnt.bit_count() + e_mask.bit_count()
        if burns - min(self.f[depth], e_mask.bit_count()) >= cutoff:
            return "floor"
        k = min(self.f[depth], cand.bit_count())
        f_after = self.f[depth + 1]
        hot = cand & e_mask
        h = min(k, hot.bit_count())
        ring = win.neighbors_mask(e_mask) & ~burnt & ~e_mask & ~prot
        spare = burns + ring.bit_count() - k - f_after  # the second bound plus drop
        if spare - h * (win.degree - 1) >= cutoff:
            return "ring"
        if spare < cutoff:
            return None
        cell_nbrs = win.cell_nbrs
        scale = math.lcm(*range(1, h + 1))
        weights: dict[int, int] = {}
        for b in win.bits(ring):
            near = cell_nbrs[b] & e_mask
            m = near.bit_count()
            if m <= h and not near & ~hot:
                for e in win.bits(near):
                    weights[e] = weights.get(e, 0) + scale // m
        drop = sum(heapq.nlargest(h, weights.values())) // scale
        return "ring" if spare - drop >= cutoff else None

    def ranked_children(
        self, depth: int, burnt: int, prot: int, e_mask: int, cand: int, cutoff: int
    ) -> Iterator[tuple[int, Squad]]:
        """Every child whose bound is below ``cutoff``, an int, as (bound,
        squad), in (bound, squad) order: the minimum-burnt walk's order, its
        squads drawn from ``cand``, the node's ``candidates``.

        The bound is the child's one-step burnt lower bound: its burnt cells
        plus whatever it leaves endangered beyond the next round's supply.
        The squads come group by group from ``groups``. A squad of a group
        protects its h hot cells, all in the group's base, and j cold cells
        of base, and leaves the rest of base endangered, so its bound depends
        on j alone: |burnt'| + max(0, |base| - h - j - f_after). Each (group,
        j) is recorded under its bound, and a bound's squads are built and
        sorted only once the caller has taken every child of the bounds below
        it; a walk that stops early builds no more.
        """
        f_after = self.f[depth + 1]
        k = min(self.f[depth], cand.bit_count())
        cold = cand & ~e_mask
        n_cold = cold.bit_count()
        levels: dict[int, list[tuple[Squad, int, int]]] = {}  # bound -> (hs, base, j)
        for hs, burnt2, base, _ in self.groups(burnt, prot, e_mask, cand, k):
            rest = k - len(hs)
            n_in = (cold & base).bit_count()
            n_burnt2 = burnt2.bit_count()
            over = base.bit_count() - len(hs) - f_after
            for j in range(max(0, rest - n_cold + n_in), min(rest, n_in) + 1):
                bound = n_burnt2 + max(0, over - j)
                if bound < cutoff:
                    levels.setdefault(bound, []).append((hs, base, j))
        singles = self.win.singles
        combinations = itertools.combinations
        for bound in sorted(levels):
            # hs and each part ascend, so a sorted union is the combinations
            # tuple; squads are distinct, so sorting them gives squad order.
            squads = []
            for hs, base, j in levels[bound]:
                outside = singles(cold & ~base)
                for a in combinations(singles(cold & base), j):
                    squads.extend(tuple(sorted(hs + a + c))
                                  for c in combinations(outside, k - len(hs) - j))
            squads.sort()
            for squad in squads:
                yield bound, squad

    def carry(self, images: Iterable[int], e_mask: int) -> Callable[[Squad], list[int]]:
        """The images of a node's children: a function from a squad to its
        child's ``images``, given the node's own and its endangered set E.

        A node's images are (T(burnt) << nbits) | T(prot), one per table T of
        ``sym_bits``, the identity's first. A squad S, protecting hs = S & E,
        makes burnt' = burnt + E - hs and prot' = prot + S. So each image
        gains T(E) << nbits, once per node, and then per cell c of S, T(c) -
        (T(c) << nbits) when c is in E and T(c) otherwise. A cell's terms are
        built once per node, so a child costs |S| additions per table. The
        root's images are the empty position's child by the empty squad, with
        the source as E.
        """
        nbits = self.win.nbits
        tables = self.win.sym_bits
        e_bits = self.win.bits(e_mask)
        base = [image + (sum(map(table.__getitem__, e_bits)) << nbits)
                for image, table in zip(images, tables)]

        def shift(cell: int) -> tuple[int, ...]:
            b = cell.bit_length() - 1
            if cell & e_mask:
                return tuple(table[b] - (table[b] << nbits) for table in tables)
            return tuple(table[b] for table in tables)

        shifts = Interned(shift)
        return lambda squad: list(map(sum, zip(base, *map(shifts.__getitem__, squad))))

    def root(self) -> list[int]:
        """The root's images: ``carry`` from the empty position, whose images
        are all 0, with the source endangered, by the empty squad."""
        return self.carry(itertools.repeat(0), self.burnt0)(())

    def fresh(self, depth: int, key: int) -> bool:
        """False when a position of transposition ``key``, the least of its
        images, was already entered at ``depth``."""
        bucket = self.seen[depth]
        if key in bucket:
            return False
        if len(bucket) < _TT_CAP:
            bucket.add(key)
        else:
            self.saturated.add(depth)
        return True

    def seal(
        self, depth: int, burnt: int, prot: int, e_mask: int, cand: int
    ) -> tuple[Squad, int] | None:
        """A legal squad of round ``depth + 1`` after which nothing is
        endangered, or None.

        Returns (squad, cells that still burn); among seals it minimizes the
        number of cells left to burn. ``cand`` is the node's ``candidates``.

        A squad S seals exactly when it holds every nonpocket e, or e's whole
        exposure N(e) & exposed. Two cheap forms are answered directly: all
        of E, or every nonpocket padded with pockets. Otherwise the squad is
        the first, in (burn, squad) order, of the full squads of nonpockets
        and exposed candidates that seal; a squad's cells ascend, so squad
        order is ``combinations`` order. It is the least leaf of ``covers``,
        and there is none when they have no leaf.
        """
        if not e_mask:
            return (), 0
        win = self.win
        f_next = self.f[depth]
        # A pocket's ignition exposes nothing new; burning pockets is free.
        # Neighborhoods are symmetric, so the nonpockets are the endangered
        # cells next to an exposed one.
        exposed = win.full & ~burnt & ~prot & ~e_mask
        nonpocket = e_mask & win.neighbors_mask(exposed)
        n_e = e_mask.bit_count()
        n_np = nonpocket.bit_count()
        coverable = not (e_mask & ~cand)
        if coverable and n_e <= f_next:
            return tuple(win.singles(e_mask)), 0
        if coverable and n_np <= f_next:
            pockets = win.singles(e_mask ^ nonpocket)
            squad = win.singles(nonpocket) + pockets[: f_next - n_np]
            return tuple(squad), n_e - len(squad)
        # Every seal S holds a leaf U of ``covers``: follow, at each branch,
        # the choice S makes. For the least (burn, squad) seal, U is S: an
        # exposed cell of S outside U could give way to a nonpocket outside
        # S, which burns less, and a nonpocket of S outside U to the lower
        # nonpocket whose exposure met it, which burns as few and sorts
        # first. Every leaf seals, and one of fewer than ``f_next`` cells
        # burns more than itself plus a nonpocket, so the least leaf is the
        # least seal.
        best: tuple[int, Squad] | None = None
        for u in self.covers(nonpocket, exposed, f_next, cand):
            leaf = (n_e - (u & e_mask).bit_count(), tuple(win.singles(u)))
            if best is None or leaf < best:
                best = leaf
        return None if best is None else (best[1], best[0])

    def covers(self, nonpocket: int, exposed: int, cap: int, allowed: int) -> Iterator[int]:
        """Sets U of at most ``cap`` cells, all in ``allowed``, that hold
        every cell e of ``nonpocket`` or its whole exposure N(e) & ``exposed``:
        the leaves of a bounded search tree, depth first.

        The tree branches over the lowest nonpocket, adding first the cell,
        then its exposure; what is left is the same question on the nonpockets
        still exposed outside U, with U's cells taken off ``exposed`` and
        ``cap``. Every branch adds a cell, so the tree is at most ``cap``
        deep. A nonpocket not yet met needs a new cell of U that is either
        itself or an exposed neighbor, so one new cell meets at most
        ``degree`` of them; a node with more than that per cell of room is
        cut, which also leaves ``cap`` >= 1 wherever a branch is taken.
        """
        if not nonpocket:
            yield 0
            return
        win = self.win
        if nonpocket.bit_count() > win.degree * cap:
            return
        cell = nonpocket & -nonpocket
        if cell & allowed:
            more = self.covers(nonpocket ^ cell, exposed, cap - 1, allowed)
            yield from (cell | u for u in more)
        exposure = win.cell_nbrs[cell.bit_length() - 1] & exposed
        size = exposure.bit_count()
        if size <= cap and not exposure & ~allowed:
            rest = exposed ^ exposure
            more = self.covers(nonpocket & win.neighbors_mask(rest), rest, cap - size, allowed)
            yield from (exposure | u for u in more)

    def group_refuted(self, depth: int, burnt2: int, prot: int, base: int, k: int) -> bool:
        """True when no leaf at ``depth`` of a group of ``groups`` (burnt',
        base), made by squads of ``k`` cells, is sealed by a squad of round
        ``depth + 1``.

        A leaf's squad S and a seal S' of it together hold every nonpocket e
        of base or its whole exposure: e's leaf exposure is its exposure here
        minus S. So if no cover of k + f cells exists, with no candidate rule,
        no leaf of the group seals.
        """
        win = self.win
        exposed = win.full & ~burnt2 & ~prot & ~base
        nonpocket = base & win.neighbors_mask(exposed)
        return next(self.covers(nonpocket, exposed, k + self.f[depth], win.full), None) is None

    def witness(self, squads: list[Squad]) -> RunTrace:
        cfg = self.cfg
        initial = FireState(frozenset(cfg.source), frozenset(), 0, cfg.topology)
        script = {
            t: self.win.points(m.bit_length() - 1 for m in s)
            for t, s in enumerate(squads, start=1)
        }
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
    nbits, full = win.nbits, win.full
    f = core.f
    last_depth = cfg.horizon - 1
    min_perim: int | None = None

    def visit(images: list[int], depth: int, squads: list[Squad]) -> None:
        """An interior node, above ``last_depth``."""
        core.enter()
        burnt = images[0] >> nbits
        prot = images[0] & full
        e_mask = core.endangered(depth, burnt, prot)
        cand = core.candidates(depth, burnt, prot)
        seal = core.seal(depth, burnt, prot, e_mask, cand)
        if seal is not None:
            raise _Found(squads + [seal[0]])
        if depth + 1 == last_depth:
            k = min(f[depth], cand.bit_count())
            leaves(depth + 1, burnt, prot, e_mask, cand, k, squads)
            return
        carry = core.carry(images, e_mask)
        for squad in core.squads(cand, f[depth]):
            images2 = carry(squad)
            if core.fresh(depth + 1, min(images2)):
                visit(images2, depth + 1, squads + [squad])

    def leaves(
        depth: int, burnt: int, prot: int, e_mask: int, cand: int, k: int,
        squads: list[Squad],
    ) -> None:
        """The leaves at ``depth`` that the squads of ``k`` cells from
        ``cand`` make of the node (burnt, prot) one level up, reached by
        ``squads``.

        A leaf's perimeter and the cells exposed around it are found once per
        group of ``core.groups``; the leaf's endangered set is the group's
        base minus its squad. When every group is refuted, the fire stays
        clear of the window's edge and the node cap holds, the leaves are
        counted and their perimeters folded without a walk, since none of
        them seals. Otherwise they are walked one by one in squad order, so
        the first sealing leaf, the edge error and the node cap are met where
        a walk meets them.
        """
        nonlocal min_perim
        groups: dict[int, tuple[int, int, int]] = {}  # S & E -> (burnt', perim, base)
        count = 0
        clear = True
        start = win.offsets(burnt)  # every group's burnt set holds this one
        for hs, burnt2, base, n in core.groups(burnt, prot, e_mask, cand, k):
            groups[sum(hs)] = (burnt2, win.perimeter(burnt2, start), base)
            count += n
            clear = clear and not (burnt2 | base) & win.ring
        if (clear and core.nodes + count <= cfg.node_cap
                and all(core.group_refuted(depth, burnt2, prot, base, k)
                        for burnt2, _, base in groups.values())):
            core.nodes += count
            least = min(group[1] for group in groups.values())
            if min_perim is None or least < min_perim:
                min_perim = least
            return
        for squad in core.squads(cand, k):
            core.enter()
            s_mask = sum(squad)
            burnt2, perim, base = groups[s_mask & e_mask]
            prot2 = prot | s_mask
            e2 = base & ~s_mask
            core.check_edge(depth, burnt2 | e2)
            seal = core.seal(depth, burnt2, prot2, e2, core.candidates(depth, burnt2, prot2))
            if seal is not None:
                # The root, a leaf when the horizon is 1, is reached by no squad.
                raise _Found((squads + [squad] if depth else []) + [seal[0]])
            if min_perim is None or perim < min_perim:
                min_perim = perim

    try:
        if last_depth == 0:
            leaves(0, core.burnt0, 0, 0, 0, 0, [])
        else:
            visit(core.root(), 0, [])
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
    finally:
        # The walk calls itself, a reference cycle that would keep the core
        # and its transposition table alive until the next full collection.
        del visit
    return core.result("exhausted-no-control", min_final_perimeter=min_perim)


def min_burnt_search(cfg: SearchConfig) -> SearchResult:
    """Branch-and-bound for a containment witness with the fewest burnt cells."""
    core = _Search(cfg)
    nbits, full = core.win.nbits, core.win.full
    # No containment burns every window cell, so that many plus one admits all.
    best_burnt = nbits + 1 if cfg.initial_bound is None else cfg.initial_bound
    best_squads: list[Squad] | None = None

    def visit(images: list[int], depth: int, squads: list[Squad]) -> None:
        nonlocal best_burnt, best_squads
        core.enter()
        burnt = images[0] >> nbits
        prot = images[0] & full
        e_mask = core.endangered(depth, burnt, prot)
        if depth >= cfg.horizon:
            return
        cand = core.candidates(depth, burnt, prot)
        if core.gate(depth, burnt, prot, e_mask, cand, best_burnt):
            return
        seal = core.seal(depth, burnt, prot, e_mask, cand)
        if seal is not None and (burns := burnt.bit_count() + seal[1]) < best_burnt:
            best_burnt = burns
            best_squads = squads + [seal[0]]
        # Most promising squads first, so incumbents arrive early and the
        # bound prune bites; a node that cannot beat its own seal gets none.
        # Many nodes walk no child, so the images are carried from the first.
        carry = None
        for bound2, squad in core.ranked_children(
                depth, burnt, prot, e_mask, cand, best_burnt):
            if bound2 >= best_burnt:
                break
            if carry is None:
                carry = core.carry(images, e_mask)
            images2 = carry(squad)
            if core.fresh(depth + 1, min(images2)):
                visit(images2, depth + 1, squads + [squad])

    capped = False
    try:
        visit(core.root(), 0, [])
    except _CapHit:
        capped = True
    finally:
        del visit  # see exhaustive_search
    if best_squads is None:
        # A bound hides every containment at or above it, so the note names it.
        note = "no containment " + ("found" if cfg.initial_bound is None
                                    else f"burning fewer than {cfg.initial_bound} cells")
        return core.result(
            "node-cap-hit" if capped else "exhausted-no-control",
            note + (" before node cap" if capped else ""),
        )
    return core.result(
        "node-cap-hit" if capped else "controlled-found",
        "best found before node cap" if capped else None,
        min_burnt=best_burnt,
        witness=core.witness(best_squads),
    )
