"""Node-level oracles for the search's seal, its covers, the group refutation
of the exhaustive last level, and the minimum-burnt driver's child ranking
and node gate, whose first test is the node's floor.

Whole games from small balls (``test_search_oracle.py``) never reach the
positions where a seal needs its exotic form, so these tests draw
near-enclosed positions directly: a 3x3 burnt blob at density 0.6 around the
origin, its second ring protected with 10-35% of it left open as gaps, and 15%
of its first ring protected. Random dense blobs without the wall rarely reach
such positions.

The brute forces use only the bitboard spread rule, which
``test_search.py`` checks against the engine's kernel. Only a squad's cells in
E | N(E) can change what burns (E - S) or what is endangered after it (a
subset of N(E)), so a full squad is enumerated by its part there, padded with
other candidates. The seal is also held, squad and all, to a plain search
over the squads in ``combinations`` order (``per_subset_seal``).
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from gridfire import search
from gridfire.budget import periodic
from gridfire.grid import Topology
from gridfire.search import SearchConfig

from conftest import naive_ranking, per_subset_seal


def _ring(r: int) -> list[tuple[int, int]]:
    return [(x, y) for y in range(-r, r + 1) for x in range(-r, r + 1)
            if max(abs(x), abs(y)) == r]


_BLOB = _ring(0) + _ring(1)
_FIRST = _ring(2)
_SECOND = _ring(3)


@st.composite
def near_enclosed(draw):
    """(topology, burnt points, protected points) of a near-enclosed fire."""
    topo = draw(st.sampled_from(list(Topology)))
    rng = draw(st.randoms(use_true_random=False))
    burnt = {p for p in _BLOB if rng.random() < 0.6} or {(0, 0)}
    gaps = rng.randint(round(0.10 * len(_SECOND)), round(0.35 * len(_SECOND)))
    wall = rng.sample(_SECOND, len(_SECOND) - gaps)
    prot = set(wall) | {p for p in _FIRST if rng.random() < 0.15}
    return topo, burnt, prot


def _walled(topo, unburnt, gaps, inner):
    """A near-enclosed state: the blob less ``unburnt``, the wall less
    ``gaps``, and ``inner`` cells of the first ring protected."""
    return topo, set(_BLOB) - set(unburnt), (set(_SECOND) - set(gaps)) | set(inner)


def _position(topo, burnt, prot, f, f_next, d=2):
    """A search core whose rounds 1 and 2 have supply ``f`` and ``f_next``,
    with candidate distance ``d``, and the position as (burnt, protected,
    endangered) bitboards. With d = 2 its window is 8 cells out, so the
    candidates of a leaf below the position stay off its edge; with d = 1 it
    is 5 out, room for the position's own candidates, and so it is with
    d = 0 (no candidates) and d = None (the whole window)."""
    core = search._Search(SearchConfig(
        topology=topo, source=frozenset({(0, 0)}), budget=periodic([f, f_next]),
        horizon=3, candidate_distance=d))
    assert core.win.half == 3 * (d or 1) + 2
    win = core.win
    b, p = win.encode(burnt), win.encode(prot)
    return core, b, p, win.endangered(b, p)


def _near_squads(core, cells: int, near: int, k: int):
    """The parts inside ``near`` of every squad of min(k, |cells|) cells from
    ``cells``."""
    k = min(k, cells.bit_count())
    spare = (cells & ~near).bit_count()
    pool = core.win.singles(cells & near)
    for j in range(max(0, k - spare), min(k, len(pool)) + 1):
        yield from itertools.combinations(pool, j)


def _least_burn(core, depth, burnt, prot, e_mask):
    """The fewest cells left to burn, |E - S|, over every full squad S of
    round ``depth + 1`` that leaves nothing endangered; None if none does."""
    win = core.win
    cand = core.candidates(depth, burnt, prot)
    near = e_mask | win.neighbors_mask(e_mask)
    best = None
    for part in _near_squads(core, cand, near, core.f[depth]):
        s_mask = sum(part)
        if not win.endangered(burnt | (e_mask & ~s_mask), prot | s_mask):
            n_burn = (e_mask & ~s_mask).bit_count()
            best = n_burn if best is None else min(best, n_burn)
    return best


@settings(max_examples=150, deadline=None)
@given(state=near_enclosed(), f=st.integers(1, 4))
def test_seal_matches_brute_force(state, f):
    core, b, p, e_mask = _position(*state, f, f)
    got = core.seal(0, b, p, e_mask, core.candidates(0, b, p))
    want = _least_burn(core, 0, b, p, e_mask)
    assert (got is None) == (want is None)
    if got is None:
        return
    squad, n_burn = got
    assert n_burn == want
    s_mask = sum(squad)
    assert len(squad) <= f and all(cell.bit_count() == 1 for cell in squad)
    assert s_mask.bit_count() == len(squad)
    assert not s_mask & ~core.candidates(0, b, p)
    burnt2 = b | (e_mask & ~s_mask)
    assert not core.win.endangered(burnt2, p | s_mask)
    assert (burnt2 ^ b).bit_count() == n_burn


@settings(max_examples=150, deadline=None)
@given(state=near_enclosed(), f_next=st.integers(1, 5),
       d=st.sampled_from([0, 1, 2, None]))
# A leaf padded with a pocket below every nonpocket would beat the least
# squad of the subset search, which never protects a pocket.
@example(state=_walled(Topology.STRONG, [(1, 1)], [(-3, -2), (1, -3)],
                       [(-2, -2), (-2, -1), (-2, 2), (1, 2), (2, 2)]),
         f_next=2, d=None)
# The first leaf does not burn fewest, and the first leaf that burns fewest
# is not the least squad.
@example(state=_walled(Topology.STRONG, [(-1, 0), (0, -1), (0, 0)], [(2, -3), (3, 2)], []),
         f_next=3, d=2)
def test_seal_matches_per_subset_seal(state, f_next, d):
    core, b, p, e_mask = _position(*state, f_next, f_next, d)
    assert core.seal(0, b, p, e_mask, core.candidates(0, b, p)) == per_subset_seal(core, 0, b, p, e_mask)


@settings(max_examples=150, deadline=None)
@given(state=near_enclosed(), cap=st.integers(0, 4), data=st.data())
def test_cover_matches_brute_force(state, cap, data):
    # Each leaf is an allowed cover of at most ``cap`` cells, and every cover
    # holds a leaf: the seal's least squad over the leaves rests on both.
    core, b, p, e_mask = _position(*state, 1, 1)
    win = core.win
    exposed = win.full & ~b & ~p & ~e_mask
    nonpocket = e_mask & win.neighbors_mask(exposed)
    needs = [(cell, win.neighbors_mask(cell) & exposed) for cell in win.singles(nonpocket)]
    pool = nonpocket | (win.neighbors_mask(nonpocket) & exposed)
    cells = win.singles(pool)
    banned = data.draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)),
                       label="banned")
    allowed = win.full ^ sum(cell for cell, ban in zip(cells, banned) if ban)

    def meets(u):
        return all(u & cell or not exposure & ~u for cell, exposure in needs)

    leaves = list(core.covers(nonpocket, exposed, cap, allowed))
    for u in leaves:
        assert u.bit_count() <= cap and not u & ~allowed and meets(u)
    for j in range(cap + 1):
        for u in map(sum, itertools.combinations(win.singles(pool & allowed), j)):
            if meets(u):
                assert any(not leaf & ~u for leaf in leaves)


@pytest.mark.parametrize("topo", list(Topology))
def test_one_cell_meets_a_whole_neighborhood(topo):
    # A burnt ring two out, walled in one further out: the origin is the only
    # exposed cell, and each of its neighbors is a nonpocket exposed only to
    # it. So one cell meets ``degree`` nonpockets, as many as the cover's
    # counting cut allows.
    core, b, p, e_mask = _position(topo, set(_FIRST), set(_SECOND), 1, 1)
    win = core.win
    exposed = win.full & ~b & ~p & ~e_mask
    nonpocket = e_mask & win.neighbors_mask(exposed)
    origin = win.encode({(0, 0)})
    assert nonpocket == win.neighbors_mask(origin)
    assert nonpocket.bit_count() == win.degree
    assert list(core.covers(nonpocket, exposed, 1, win.full)) == [origin]
    assert core.seal(0, b, p, e_mask, core.candidates(0, b, p)) == (
        (origin,), e_mask.bit_count())


@settings(max_examples=60, deadline=None)
@given(state=near_enclosed(), k=st.integers(1, 2), f_next=st.integers(1, 4))
def test_refuted_group_holds_no_sealing_leaf(state, k, f_next):
    # The node is the position at depth 0; its leaves are at depth 1, where
    # round 2's squad would seal. Within a group only the cold cells near its
    # base can change a leaf. Each leaf is settled by ``seal``, which the
    # first test holds to brute force.
    core, b, p, e_mask = _position(*state, k, f_next)
    win = core.win
    cand = core.candidates(0, b, p)
    k = min(k, cand.bit_count())
    cold = cand & ~e_mask
    for hs, burnt2, base, _ in core.groups(b, p, e_mask, cand, k):
        if not core.group_refuted(1, burnt2, p, base, k):
            continue
        near = base | win.neighbors_mask(base)
        hit = sum(hs)
        for part in _near_squads(core, cold, near, k - len(hs)):
            s_mask = hit + sum(part)
            prot2 = p | s_mask
            cand2 = core.candidates(1, burnt2, prot2)
            assert core.seal(1, burnt2, prot2, base & ~s_mask, cand2) is None


@settings(max_examples=40, deadline=None)
@given(state=near_enclosed(), f=st.integers(1, 3), f_next=st.integers(0, 3),
       data=st.data())
def test_ranked_children_match_naive_ranking(state, f, f_next, data):
    # The candidates reach one cell out, which keeps the naive ranking small
    # at f = 3. Cutoffs at, just below and just above every naive bound.
    core, b, p, e_mask = _position(*state, f, f_next, d=1)
    naive = naive_ranking(core, 0, b, p, e_mask)
    cand = core.candidates(0, b, p)
    near = sorted({bound + step for bound, _ in naive for step in (-1, 0, 1)})
    for cutoff in near:
        if core.gate(0, b, p, e_mask, cand, cutoff):
            assert naive[0][0] >= cutoff
    assert list(core.ranked_children(0, b, p, e_mask, cand, core.win.nbits + 1)) == naive
    cutoff = data.draw(st.sampled_from(near), label="cutoff")
    assert list(core.ranked_children(0, b, p, e_mask, cand, cutoff)) == [
        child for child in naive if child[0] < cutoff]


@settings(max_examples=40, deadline=None)
@given(state=near_enclosed(), f=st.integers(1, 2), f_next=st.integers(0, 2))
def test_no_continuation_burns_below_the_floor_or_its_bound(state, f, f_next):
    # Two rounds of brute force: squads S1 of round 1 and S2 of round 2, the
    # partial ones too. Only S1's part in E | N(E) changes what burns in
    # either round, and only S2's part in E1, the cells endangered after S1.
    # A continuation burns at least what it burns in these two rounds, so it
    # never finishes below the node's floor or below its ranked child's
    # bound. A seal that reaches the floor is beaten by no continuation, and
    # ``gate`` ends the node at its floor.
    core, b, p, e_mask = _position(*state, f, f_next, d=1)
    win = core.win
    near = e_mask | win.neighbors_mask(e_mask)
    floor = b.bit_count() + max(0, e_mask.bit_count() - f)
    cand = core.candidates(0, b, p)
    assert core.gate(0, b, p, e_mask, cand, floor) == "floor"
    least = {}  # S1's part near E -> the fewest cells burnt after round 2
    for k in range(f + 1):
        for part in _near_squads(core, cand, near, k):
            s_mask = sum(part)
            burnt1 = b | (e_mask & ~s_mask)
            assert burnt1.bit_count() >= floor
            e1 = win.endangered(burnt1, p | s_mask)
            least[s_mask] = min(
                (burnt1 | (e1 & ~sum(part2))).bit_count()
                for k2 in range(f_next + 1)
                for part2 in _near_squads(core, e1, e1, k2))
    for bound, squad in core.ranked_children(0, b, p, e_mask, cand, win.nbits + 1):
        assert least[sum(squad) & near] >= bound
    seal = core.seal(0, b, p, e_mask, cand)
    if seal is not None and floor >= b.bit_count() + seal[1]:
        assert min(least.values()) >= b.bit_count() + seal[1]


def test_a_tip_encloses_the_cells_beyond_it():
    # A burnt cell walled in on three sides: its one endangered neighbor e is
    # the only endangered neighbor of the three cells beyond it, so
    # protecting e leaves nothing endangered. That is the cheap count's
    # degree - 1 cells, and a child of bound 1 stands against cutoff 2.
    core, b, p, e_mask = _position(
        Topology.CARTESIAN, {(0, 0)}, {(-1, 0), (0, 1), (0, -1)}, 1, 0, d=1)
    e = core.win.encode({(1, 0)})
    assert e_mask == e
    cand = core.candidates(0, b, p)
    assert core.gate(0, b, p, e_mask, cand, 2) is None
    assert next(core.ranked_children(0, b, p, e_mask, cand, 2)) == (1, (e,))


@settings(max_examples=40, deadline=None)
@given(state=near_enclosed(), f=st.integers(1, 3), f_next=st.integers(0, 3))
def test_a_gated_node_has_no_seal_below_the_cutoff(state, f, f_next):
    # The walk ends a node at its gate before pricing its seal, so whatever
    # rule ends it must also show that the seal burns at least the cutoff.
    # Cutoffs at, just below and just above every naive child bound.
    core, b, p, e_mask = _position(*state, f, f_next, d=1)
    cand = core.candidates(0, b, p)
    seal = core.seal(0, b, p, e_mask, cand)
    naive = naive_ranking(core, 0, b, p, e_mask)
    for cutoff in sorted({bound + step for bound, _ in naive for step in (-1, 0, 1)}):
        if core.gate(0, b, p, e_mask, cand, cutoff):
            assert seal is None or b.bit_count() + seal[1] >= cutoff


def test_the_ring_ends_a_node_above_its_floor():
    # One burnt cell, nothing protected, one firefighter a round: four cells
    # are endangered, so the floor is 1 + 4 - 1 = 4. The least child burns
    # four cells and leaves seven endangered, six beyond the next round's one
    # firefighter: a bound of 10. So the second ring ends the node from 5
    # through 10.
    core, b, p, e_mask = _position(Topology.CARTESIAN, {(0, 0)}, set(), 1, 1, d=1)
    cand = core.candidates(0, b, p)
    assert naive_ranking(core, 0, b, p, e_mask)[0][0] == 10
    assert [core.gate(0, b, p, e_mask, cand, cutoff) for cutoff in (4, 5, 10, 11)] == [
        "floor", "ring", "ring", None]
