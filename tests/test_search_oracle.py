"""A brute-force reference for the game-tree search.

It plays the game on point sets through a per-cell neighbor scan that does
not use the engine, and quantifies over every squad of at most f(t) cells,
partial squads included, drawn from the search's candidate rule. It uses no
symmetry, no table, no seal shortcut and no pruning, so it shares none of the
search's own shortcuts: full squads only, the seal's pocket and exotic forms,
symmetry, the transposition table and the minimum-burnt prunes. Only
instances small enough to brute-force are checked, and few of them control.
"""

from __future__ import annotations

import itertools
import math

import pytest

from gridfire.budget import Budget, constant, periodic
from gridfire.grid import Topology, ball
from gridfire.monitor import front_offsets
from gridfire.search import SearchConfig, exhaustive_search, min_burnt_search

from conftest import scan_near


def _oracle(topo: Topology, source: frozenset, budget: Budget, horizon: int, d: int):
    """(controlled by instant ``horizon``, the least perimeter at instant
    ``horizon - 1``, the fewest cells burnt at control or None)."""
    least_perim = math.inf
    least_burnt = math.inf

    def play(burnt: frozenset, prot: frozenset, e: set, t: int) -> None:
        nonlocal least_perim, least_burnt
        if not e:
            least_burnt = min(least_burnt, len(burnt))
            return
        if t == horizon - 1:
            least_perim = min(least_perim, sum(front_offsets(burnt).values()))
        if t == horizon:
            return
        occupied = burnt | prot
        cand = sorted({(x + dx, y + dy) for x, y in occupied
                       for dx in range(-d, d + 1) for dy in range(-d, d + 1)} - occupied)
        for k in range(budget.at(t + 1) + 1):
            for squad in itertools.combinations(cand, k):
                # The unprotected endangered cells ignite, and the next
                # endangered cells are their unburnt, unprotected neighbors.
                ignited = e.difference(squad)
                burnt2, prot2 = burnt | ignited, prot.union(squad)
                play(burnt2, prot2, scan_near(ignited, burnt2, prot2, topo), t + 1)

    play(source, frozenset(), scan_near(source, source, frozenset(), topo), 0)
    controlled = least_burnt < math.inf
    return controlled, least_perim, least_burnt if controlled else None


_TOPOS = {"cartesian": Topology.CARTESIAN, "strong": Topology.STRONG,
          "triangular": Topology.TRIANGULAR}
_BUDGETS = {"const:1": constant(1), "const:2": constant(2), "const:3": constant(3),
            "const:4": constant(4), "periodic:2,1": periodic([2, 1]),
            "periodic:1,2": periodic([1, 2])}

_ALL = tuple(_TOPOS)
# (budget, horizon, source radius, candidate distance, topologies): the
# instances of that range whose brute force takes about a second or less.
# Of these, the Cartesian const:4 horizon-1 and const:3 horizon-2 ones control.
_INSTANCES = (
    [(b, 1, r, d, _ALL) for b in _BUDGETS for r in (0, 1) for d in (1, 2)
     if (b, r, d) not in (("const:3", 1, 2), ("const:4", 1, 2))]
    + [("const:1", 2, r, d, _ALL) for r in (0, 1) for d in (1, 2)]
    + [(b, 2, r, 1, _ALL) for b in ("periodic:2,1", "periodic:1,2") for r in (0, 1)]
    + [("const:2", 2, 0, 1, _ALL), ("periodic:2,1", 2, 0, 2, _ALL),
       ("const:3", 2, 0, 1, ("cartesian",)), ("const:1", 3, 0, 1, _ALL),
       ("periodic:1,2", 3, 0, 1, ("cartesian",))]
)
_CASES = [(topo, b, h, r, d) for b, h, r, d, topos in _INSTANCES for topo in topos]


@pytest.mark.parametrize("topo,budget,horizon,radius,d", _CASES)
def test_search_agrees_with_brute_force(topo, budget, horizon, radius, d):
    source = ball((0, 0), radius, "linf")
    controlled, perim, burnt = _oracle(_TOPOS[topo], source, _BUDGETS[budget], horizon, d)
    cfg = SearchConfig(topology=_TOPOS[topo], source=source, budget=_BUDGETS[budget],
                       horizon=horizon, candidate_distance=d)
    ex = exhaustive_search(cfg)
    assert ex.outcome == ("controlled-found" if controlled else "exhausted-no-control")
    if not controlled:  # a found seal stops the walk before every leaf is priced
        assert ex.min_final_perimeter == perim
    mb = min_burnt_search(cfg)
    assert mb.outcome == ex.outcome
    assert mb.min_burnt == burnt
