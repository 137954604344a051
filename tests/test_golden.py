"""Golden traces over topology x budget x strategy, and the engine's cached E.

The digests were recorded from the engine before it carried the endangered set
from round to round; any change to the spread rule, the strategies' tie-breaks
or the trace format shows up here as a digest mismatch.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from gridfire.budget import parse_budget
from gridfire.engine import FireState, SimView, run
from gridfire.grid import Topology, row_major
from gridfire.strategies import parse_strategy

from conftest import scan_endangered

GOLDEN_ROUNDS = 12

GOLDEN_DIGESTS = {
    ("cartesian", "const:0", "null"): "7da4d4405718317012a34a1d8fecbde0f11cf81311ddfd2989112ce75541a221",
    ("cartesian", "const:0", "greedy"): "45b4cd54f69aa2dc7bedc43105201d3157d27c178cdf62727d63e543fcbf538d",
    ("cartesian", "const:0", "random:seed=1"): "f4df8b8b0f37c7552a309d95bda903277e4b861114fdec8d2a29947f510b6ad8",
    ("cartesian", "const:1", "null"): "6ac6c708c2158c0334a15b86cd649e66a0818cf68df515cc90fd13ef6d3bbb91",
    ("cartesian", "const:1", "greedy"): "f189155a3d8aae382e595e5a1186f907b954cd7918c82b247445189c898526d2",
    ("cartesian", "const:1", "random:seed=1"): "d0631f63c96924a7ba719341fb65f589287c0d8841837b140d825865fd294697",
    ("cartesian", "periodic:2,1", "null"): "a55881b3c9c60de6e305023e0adf73aced818db69667606a965cc5963d110c98",
    ("cartesian", "periodic:2,1", "greedy"): "f9bec4a76c9f2d61830c1dae0a08106bec3d71bc1b32134675d960c842bbc616",
    ("cartesian", "periodic:2,1", "random:seed=1"): "744dba3004a5ab5bdeea6ea95d31e009859e9a5a53b202928bb34246c348b58c",
    ("strong", "const:0", "null"): "ef6512810cd6d18e7f8541de1963b8c605410ebd84c2801175393117c8bb4b1e",
    ("strong", "const:0", "greedy"): "20cd1ee93be96884be608fe6031c9f910cedfe8b24e2edbe57fd504fb1a05daf",
    ("strong", "const:0", "random:seed=1"): "276e35c229fbdf84622f5a669e21f6f916e940ac337a1ed1f499b92c270d3984",
    ("strong", "const:1", "null"): "c556a86f8974798fc1ed5956bb3386c3eafbd4ce32826abaeac0b4ab9b8fc0a3",
    ("strong", "const:1", "greedy"): "90c039b9fcd0210e648709ca2d92ecc122f5a16a8ebec6fa600f23ecf490c9d7",
    ("strong", "const:1", "random:seed=1"): "728edccdf9c7dd5c39a254c55e158350b9a646eba0abb6309b0fd76dea4cb139",
    ("strong", "periodic:2,1", "null"): "35bde3b1d17636ce5223d0863f0e1ffd2663f3082ee3bdf04ce6c00e8c4cb7f0",
    ("strong", "periodic:2,1", "greedy"): "c33e339f8f11cbb6e67bc284e4f954a5934898db93cd7893759b051cdc261839",
    ("strong", "periodic:2,1", "random:seed=1"): "fa1e073d4403a4b3a62f75801dc6a98bc0503968f19aa5aacb1c9522152e367c",
    ("triangular", "const:0", "null"): "799a0ec70b90f793acbf936aa24e47b30b68f1ad312d51ca7a8824a93d9ce947",
    ("triangular", "const:0", "greedy"): "646e984ead7585a5032940fb11dfe9c84f5c8983e6e89956964a2dc33a3f24c4",
    ("triangular", "const:0", "random:seed=1"): "3872295ae4c250ad2d9b8766bd28a7a71c42b8a8b61440e5e4ce37fa67002b3d",
    ("triangular", "const:1", "null"): "960c6dfb1a14b4f64e91ea2b9594c4bd8a4fdaca6580ba3712f6d57f03abfbcd",
    ("triangular", "const:1", "greedy"): "4551e71afefed5079b595daeae69d85011966f1bb6ccf39b32de5faa4ad6d909",
    ("triangular", "const:1", "random:seed=1"): "99fc676546277b624b0f8e0b4fba074a005a494d3c1b5a24691238b25cadac19",
    ("triangular", "periodic:2,1", "null"): "721d6fe84ff27aea30de9798da373c2ffe3001115635d8062530ff9bcd7448cd",
    ("triangular", "periodic:2,1", "greedy"): "d725a95c8145480eff5f5718c2cbc6c5c9b353313bdc163ea79771bf8f01c7ef",
    ("triangular", "periodic:2,1", "random:seed=1"): "d8f3e1f540aa45dec7bb70d4ce1a838606f0b87cbaed71a63476ebed3b5f751c",
}


@pytest.mark.parametrize("topology,budget,strategy", sorted(GOLDEN_DIGESTS))
def test_golden_trace_digest(topology, budget, strategy):
    initial = FireState(
        burnt=frozenset({(0, 0)}), protected=frozenset(), round=0,
        topology=Topology(topology),
    )
    trace = run(initial, parse_budget(budget), parse_strategy(strategy), GOLDEN_ROUNDS)
    digest = hashlib.sha256(trace.to_text().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_DIGESTS[(topology, budget, strategy)]


@settings(max_examples=40, deadline=None)
@given(
    radius=st.integers(min_value=0, max_value=2),
    budget=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3),
    data=st.data(),
)
def test_view_endangered_matches_full_scan(radius, budget, data):
    """Every round, on every topology, the view's E equals a fresh scan of the
    burnt set that ``play``'s returns build up and of the view's protected set.

    The initial fire is a square with holes punched in it (possibly none, and
    possibly so many that it falls apart), so ignitions can fill holes and
    meet cells burnt rounds earlier.
    """
    square = sorted((x, y) for x in range(-radius, radius + 1)
                    for y in range(-radius, radius + 1))
    holes = data.draw(st.sets(st.sampled_from(square), max_size=len(square) - 1))
    supply = parse_budget("periodic:" + ",".join(map(str, budget)))
    for topology in Topology:
        initial = FireState(
            burnt=frozenset(square) - holes, protected=frozenset(), round=0,
            topology=topology,
        )
        view = SimView(initial)
        burnt = set(initial.burnt)
        for t in range(1, 9):
            assert view.endangered_row_major() == tuple(sorted(
                scan_endangered(burnt, view.protected, view.topology),
                key=row_major,
            ))
            if not view.endangered_row_major():
                break
            # Draw squads from a window around the fire, so some firefighters
            # land ahead of the front and later rounds must leave them out of E.
            vacant = sorted(
                (x, y)
                for x in range(-6, 7)
                for y in range(-6, 7)
                if (x, y) not in burnt and (x, y) not in view.protected
            )
            available = supply.at(t)
            squad = data.draw(
                st.lists(st.sampled_from(vacant), max_size=available, unique=True)
            ) if vacant and available else []
            burnt.update(view.play(squad, available))
