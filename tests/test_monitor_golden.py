"""Golden monitor reports: pinned digests of the front monitor's output.

Each origin-source case pins two SHA-256 digests: one of the JSON report
(``json.dumps(report.to_json(), sort_keys=True)``), and one of every instant's
per-front potential, length and attributed supply, which the JSON report does
not print. A change to the walk's arithmetic, its corner weights or its
attribution shows up here as a mismatch.

From the off-diagonal source {(1, 0)} every front starts at offset 0, so
parallel fronts coincide and (0, 0) lies on all four. Once the hole at
offset 0 fills, an offset jumps by 3 and ``check_invariants`` rejects these
valid traces with a precondition error that names the source; those cases pin
that message and, per instant on the walk's clock, the potentials of the
recorded ignitions against the offsets of the burnt set.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from gridfire.budget import parse_budget
from gridfire.engine import FireState, run
from gridfire.grid import Topology
from gridfire.monitor import check_invariants, front_offsets
from gridfire.strategies import parse_strategy

from conftest import potentials

# (budget, strategy, horizon) from source (0, 0) -> (report, instants) digests
GOLDEN_REPORTS = {
    ("const:0", "null", 12): (
        "6a7b8562fa6e1d937c448ef49f056488c67471397aae5e3c8216aac4093aeb7c",
        "9617746217c767d40e4add0cefd63d66b6e9fc80dc98169dddee6428a5e1ccf0"),
    ("const:0", "greedy", 12): (
        "6a7b8562fa6e1d937c448ef49f056488c67471397aae5e3c8216aac4093aeb7c",
        "9617746217c767d40e4add0cefd63d66b6e9fc80dc98169dddee6428a5e1ccf0"),
    ("const:0", "random:seed=1", 12): (
        "6a7b8562fa6e1d937c448ef49f056488c67471397aae5e3c8216aac4093aeb7c",
        "9617746217c767d40e4add0cefd63d66b6e9fc80dc98169dddee6428a5e1ccf0"),
    ("const:1", "null", 12): (
        "5f04ff2764644b6a2482934e93a1f29b8a2e3cb6d9f982dcc69bbb7243986775",
        "9617746217c767d40e4add0cefd63d66b6e9fc80dc98169dddee6428a5e1ccf0"),
    ("const:1", "greedy", 12): (
        "d85deafff864d1f6cf3c07a5d9351bff62e835f52c14cf3bf884fbf73244303f",
        "89dc3be7d8dbe240295a0d02779aee100b760d5ec9f8e9c61e6bbe78cbbb7103"),
    ("const:1", "random:seed=1", 12): (
        "d04ba8e02ac6df1510c26c82e12a4fd95457b7a2b08b3d52cc1b223e03096820",
        "c7bd537479ed77b5b693090ad8c2b307382b81ac7a89a04233c7e26593e03b1a"),
    ("periodic:2,1", "null", 12): (
        "f820ed78b1c437240a6b0d2976864959200f070cdc72ff1a781f870424df9b73",
        "9617746217c767d40e4add0cefd63d66b6e9fc80dc98169dddee6428a5e1ccf0"),
    ("periodic:2,1", "greedy", 12): (
        "324a283ad9761e85bdeb7295b9d300e959658cd60acdf758d56ae602c34e631d",
        "df7703192d3c9f71dfe9d6dc365f31edc30c87881d310528a0025a80ddbe9310"),
    ("periodic:2,1", "random:seed=1", 12): (
        "4cbe2fd58887f5e2ddc589d7051eeab2d705bdc7e90fb107071a55a66fae1523",
        "7be7664dd91fa5b49547d6564e996464b91da7388a5a015cad499b057fcc436c"),
    ("periodic:2,1", "greedy", 200): (
        "d39bd1521f982159722db5607534812cea22c40943413597eba1faa468c62f6c",
        "06529cc02fc53dd90b3d2908e3a401f92353c4d26cce0a4ab6fd53d9ef2ea393"),
}

# (budget, strategy, horizon) from source (1, 0) -> (monitor error, potentials digest)
GOLDEN_OFF_DIAGONAL = {
    ("const:0", "null", 12): (
        "monitor precondition: front offset for (1, 1) moved by 3; checks A-E assume "
        "fronts that start at the origin, and the fire from source {(1, 0)} does not",
        "12cc39950460498c0a07be5f0e5e904a0667596b57092f26e85a841f5991b998"),
    ("periodic:2,1", "greedy", 40): (
        "monitor precondition: front offset for (1, -1) moved by 3; checks A-E assume "
        "fronts that start at the origin, and the fire from source {(1, 0)} does not",
        "305aabafefb4ca9027984db7c90dd211c3314402ef91b1e8d5a4dbff2a4435ec"),
    ("const:1", "random:seed=1", 40): (
        "monitor precondition: front offset for (1, 1) moved by 3; checks A-E assume "
        "fronts that start at the origin, and the fire from source {(1, 0)} does not",
        "2eb3a1a1d31de68e46c710f5a72acbc659266d0cfc67ae5ec7819337463f1700"),
}


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _keyed(values) -> dict[str, str]:
    return {f"{sx},{sy}": str(v) for (sx, sy), v in values.items()}


def _trace(source, budget, strategy, horizon):
    initial = FireState(
        burnt=frozenset({source}), protected=frozenset(), round=0,
        topology=Topology.CARTESIAN,
    )
    return run(initial, parse_budget(budget), parse_strategy(strategy), horizon)


def report_digests(budget, strategy, horizon) -> tuple[str, str]:
    report = check_invariants(_trace((0, 0), budget, strategy, horizon))
    instants = [
        [m.t, _keyed(m.phi), _keyed(m.lengths), _keyed(m.attributed)]
        for m in report.metrics
    ]
    return _digest(report.to_json()), _digest(instants)


def off_diagonal_record(budget, strategy, horizon) -> tuple[str, str]:
    trace = _trace((1, 0), budget, strategy, horizon)
    with pytest.raises(ValueError) as err:
        check_invariants(trace)
    instants = []
    for rec in trace.rounds:
        # Instant t: squads 1..t are down, spreads 1..t-1 have burnt.
        burnt = trace.state_at(rec.t - 1)[0]
        phi, total = potentials(rec.ignited, front_offsets(burnt))
        instants.append([rec.t, _keyed(phi), str(total)])
    return str(err.value), _digest(instants)


@pytest.mark.parametrize("case", sorted(GOLDEN_REPORTS), ids=str)
def test_golden_monitor_report(case):
    assert report_digests(*case) == GOLDEN_REPORTS[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_OFF_DIAGONAL), ids=str)
def test_golden_off_diagonal_potentials(case):
    assert off_diagonal_record(*case) == GOLDEN_OFF_DIAGONAL[case]
