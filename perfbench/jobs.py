"""The benchmark's workloads: job lists, the calls they time, and their checks.

A job is one cell, trace or search instance. It returns a ``Verdict`` that
says whether every correctness check held, what work it did (counts) and the
SHA-256 digest of every trace it produced. Spans are recorded only around
public gridfire calls made from this file.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import statistics
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from gridfire import (
    ContainmentStrategy,
    FireState,
    RunTrace,
    SearchConfig,
    Topology,
    ball,
    check_invariants,
    containment_budget,
    exhaustive_search,
    min_burnt_search,
    parse_budget,
    parse_strategy,
    replay_validate,
    run,
    run_reduction,
    wall_plan,
)

from tracing import CALIBRATION_REF_S, SpeedSampler, bracket

WORKLOADS = ("contain", "audit", "search")

# Audit traces are gated against reference digests only at this seed; at any
# other seed the random players differ, and only the seed-free checks apply.
DEFAULT_SEED = 0

REFERENCES = Path(__file__).resolve().parent / "references.json"

CONTAIN_CELLS = tuple((m, r) for m in (1, 2, 3) for r in (1, 2, 3))
REDUCTION_CELLS = tuple((m, r) for m in (1, 2) for r in (1, 2))

AUDIT_BUDGETS = ("periodic:2,1", "periodic:1,2", "const:1")
AUDIT_RANDOM_PLAYERS = 2  # per budget, next to the greedy player
AUDIT_ROUNDS = 200


@dataclass(frozen=True)
class SearchExpect:
    outcome: str
    min_final_perimeter: int | None
    min_burnt: int | None
    control_round: int | None


@dataclass(frozen=True)
class SearchSpec:
    kind: str  # "exhaustive" | "min_burnt"
    budget: str
    horizon: int
    distance: int
    expect: SearchExpect
    initial_bound: int | None = None

    @property
    def name(self) -> str:
        return f"search {self.kind} {self.budget} h{self.horizon} d{self.distance}"


# Smaller instances under the same rules as acceptance criteria 4 and 5; the
# const:2 one is Develin & Hartke's 18-cell containment at round 8.
SEARCHES = (
    SearchSpec("exhaustive", "periodic:1,1,2", 4, 2,
               SearchExpect("exhausted-no-control", 15, None, None)),
    SearchSpec("min_burnt", "const:2", 8, 1,
               SearchExpect("controlled-found", None, 18, 8), initial_bound=19),
    SearchSpec("min_burnt", "periodic:2,2,2,2,2,3", 10, 1,
               SearchExpect("controlled-found", None, 16, 7)),
    SearchSpec("min_burnt", "periodic:2,2,2,3", 8, 2,
               SearchExpect("controlled-found", None, 12, 6)),
)


@dataclass
class Verdict:
    name: str
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    digests: dict[str, str] = field(default_factory=dict)
    seconds: float = 0.0  # as measured
    ref_seconds: float = 0.0  # calibrated to the reference speed

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, cond: bool, problem: str) -> None:
        if not cond:
            self.problems.append(problem)

    def count_run(self, trace: RunTrace) -> None:
        self.counts["engine.rounds"] += len(trace.rounds)
        self.counts["engine.ignited"] += sum(len(rec.ignited) for rec in trace.rounds)


@dataclass(frozen=True)
class Job:
    name: str
    body: Callable[["Harness", Verdict], None]


class Harness:
    """What jobs share: the tracer, a scratch directory and the references."""

    def __init__(self, tracer, workdir: Path, digests: dict[str, str],
                 gate_digests: bool):
        self.tracer = tracer
        self.workdir = workdir
        self.digests = digests
        self.gate_digests = gate_digests

    def write_file(self, trace: RunTrace, path: Path) -> None:
        """The one write to disk; a test subclass corrupts the file here."""
        with open(path, "w", encoding="utf-8") as fp:
            trace.write(fp)

    def store(self, trace: RunTrace, label: str, v: Verdict) -> RunTrace:
        """Write, read back, re-write and replay-validate a trace.

        Returns the copy read back from disk, which the caller checks.
        """
        span = self.tracer.span
        path = self.workdir / (re.sub(r"[^A-Za-z0-9]+", "_", label) + ".jsonl")
        with span("trace.write"):
            self.write_file(trace, path)
        data = path.read_bytes()
        with span("trace.read"):
            with open(path, encoding="utf-8") as fp:
                back = RunTrace.read(fp)
        with span("trace.write"):
            again = back.to_text().encode("utf-8")
        with span("engine.validate"):
            replay_validate(back)
        v.counts["trace.bytes"] += len(data)
        v.counts["trace.bytes_written"] += len(data) + len(again)
        v.require(again == data, f"{label}: write -> read -> write is not byte-identical")
        self.check_digest(label, data, v)
        return back

    def digest(self, trace: RunTrace, label: str, v: Verdict) -> None:
        """Digest a trace that is checked in memory only."""
        with self.tracer.span("trace.write"):
            data = trace.to_text().encode("utf-8")
        v.counts["trace.bytes_written"] += len(data)
        self.check_digest(label, data, v)

    def check_digest(self, label: str, data: bytes, v: Verdict) -> None:
        digest = hashlib.sha256(data).hexdigest()
        v.digests[label] = digest
        if self.gate_digests:
            ref = self.digests.get(label)
            v.require(ref == digest,
                      f"{label}: digest {digest[:12]} != reference {str(ref)[:12]}")


def contain_cell(h: Harness, v: Verdict, m: int, r: int, initial: FireState) -> None:
    bound = 12 * r * m * m + 30 * r * m
    with h.tracer.span("wallplan.plan"):
        plan = wall_plan(m, r)
        strategy = ContainmentStrategy(plan)
    with h.tracer.span("engine.run"):
        trace = run(initial, containment_budget(m),
                    h.tracer.wrap_strategy(strategy, "wallplan"), bound + 5)
    v.count_run(trace)
    v.counts["wallplan.tasks"] += len(plan.tasks)
    v.counts["wallplan.placed"] += sum(len(rec.placed) for rec in trace.rounds)
    v.counts["wallplan.supplied"] += sum(rec.f for rec in trace.rounds)
    back = h.store(trace, v.name, v)
    v.require(back.status == "controlled" and back.control_round <= bound,
              f"{v.name}: {back.status} at {back.control_round}, bound {bound}")
    # Criterion 1's width bound is a known, visible failure: recorded only.
    xs = [p[0] for p in back.initial]
    for rec in back.rounds:
        xs.extend(p[0] for p in rec.ignited)
    width = max(xs) - min(xs) + 1
    bound_width = 6 * r * m * m + 16 * r * m + 2 * r
    if width > bound_width:
        v.notes.append(f"width {width} > {bound_width} (criterion 1, not gated)")


def reduction_cell(h: Harness, v: Verdict, m: int, r: int) -> None:
    with h.tracer.span("wallplan.plan"):
        strategy = ContainmentStrategy(wall_plan(m, r))
    with h.tracer.span("reduction.run"):
        report = run_reduction(strategy, containment_budget(m), r,
                               12 * r * m * m + 30 * r * m + 5)
    h.digest(report.strong_trace, f"{v.name} strong", v)
    for o in report.outcomes:
        h.digest(o.trace, f"{v.name} cartesian rho={o.source_radius}", v)
        v.counts["reduction.cartesian_rounds"] += len(o.trace.rounds)
    v.require(report.strong_controlled, f"{v.name}: strong side not controlled")
    doubled = report.outcomes[0]
    v.require(doubled.source_radius == 2 * r and doubled.controlled,
              f"{v.name}: doubled-radius source not contained")
    if report.strong_controlled and doubled.controlled:
        # Twice as slow, on the analysis clock (round + 1).
        v.require(doubled.control_round + 1 <= 2 * (report.strong_control_round + 1),
                  f"{v.name}: cartesian {doubled.control_round + 1} instants > "
                  f"2x strong {report.strong_control_round + 1}")
    v.require(doubled.placements_all_even, f"{v.name}: odd placement")
    v.require(doubled.ignition_parity_ok, f"{v.name}: ignition parity broken")


def audit_run(h: Harness, v: Verdict, budget_spec: str, player: str,
              rounds: int, initial: FireState) -> None:
    strategy = h.tracer.wrap_strategy(parse_strategy(player), "strategies")
    with h.tracer.span("engine.run"):
        trace = run(initial, parse_budget(budget_spec), strategy, rounds)
    v.count_run(trace)
    back = h.store(trace, v.name, v)
    with h.tracer.span("monitor.check"):
        report = check_invariants(back, validate=False)
    v.counts["monitor.instants"] += len(report.metrics)
    v.require(back.status != "controlled", f"{v.name}: controlled")
    v.require(sorted(report.checks) == list("ABCDE"),
              f"{v.name}: checks {sorted(report.checks)}")
    for name, res in sorted(report.checks.items()):
        v.require(res.passed, f"{v.name}: check {name} violated at "
                  f"{res.violations[0] if res.violations else '?'}")


def search_instance(h: Harness, v: Verdict, spec: SearchSpec, cfg: SearchConfig) -> None:
    driver = exhaustive_search if spec.kind == "exhaustive" else min_burnt_search
    with h.tracer.span(f"search.{spec.kind}"):
        res = driver(cfg)
    v.counts[f"search.{spec.kind}_nodes"] += res.nodes
    control_round = None
    if res.witness is not None:
        control_round = h.store(res.witness, v.name, v).control_round
    got = SearchExpect(res.outcome, res.min_final_perimeter, res.min_burnt, control_round)
    v.require(got == spec.expect, f"{v.name}: got {got}, expected {spec.expect}")


def contain_job(m: int, r: int) -> Job:
    initial = FireState(burnt=ball((0, 0), r, "linf"), protected=frozenset(), round=0,
                        topology=Topology.STRONG)
    return Job(f"contain m={m} r={r}", partial(contain_cell, m=m, r=r, initial=initial))


def reduction_job(m: int, r: int) -> Job:
    return Job(f"reduction m={m} r={r}", partial(reduction_cell, m=m, r=r))


def audit_job(budget: str, player: str, rounds: int = AUDIT_ROUNDS) -> Job:
    initial = FireState(burnt=frozenset({(0, 0)}), protected=frozenset(), round=0,
                        topology=Topology.CARTESIAN)
    return Job(f"audit {budget} {player} {rounds}",
               partial(audit_run, budget_spec=budget, player=player, rounds=rounds,
                       initial=initial))


def search_job(spec: SearchSpec) -> Job:
    cfg = SearchConfig(
        topology=Topology.CARTESIAN,
        source=frozenset({(0, 0)}),
        budget=parse_budget(spec.budget),
        horizon=spec.horizon,
        candidate_distance=spec.distance,
        initial_bound=spec.initial_bound,
    )
    return Job(spec.name, partial(search_instance, spec=spec, cfg=cfg))


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one workload. Only ``audit`` uses the seed."""
    if workload == "contain":
        return ([contain_job(m, r) for m, r in CONTAIN_CELLS]
                + [reduction_job(m, r) for m, r in REDUCTION_CELLS])
    if workload == "audit":
        rng = random.Random(seed)
        return [
            audit_job(budget, player)
            for budget in AUDIT_BUDGETS
            for player in ["greedy"] + [f"random:seed={rng.randrange(2**31)}"
                                        for _ in range(AUDIT_RANDOM_PLAYERS)]
        ]
    if workload == "search":
        return [search_job(spec) for spec in SEARCHES]
    raise ValueError(f"unknown workload: {workload!r}")


def digests_gated(workload: str, seed: int) -> bool:
    return workload != "audit" or seed == DEFAULT_SEED


def load_reference_digests() -> dict[str, str]:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))["digests"]


@dataclass
class PassResult:
    wall: float  # summed job times, as measured
    verdicts: list[Verdict]

    @property
    def ref_wall(self) -> float:
        return sum(v.ref_seconds for v in self.verdicts)

    @property
    def failed(self) -> int:
        return sum(not v.ok for v in self.verdicts)

    def counts(self) -> Counter:
        total: Counter = Counter()
        for v in self.verdicts:
            total.update(v.counts)
        return total

    def digests(self) -> dict[str, str]:
        return {k: d for v in self.verdicts for k, d in v.digests.items()}


def run_pass(jobs: list[Job], h: Harness, sample: bool) -> PassResult:
    """Run every job once, with calibration samples around each job.

    With ``sample``, samples are also taken while each job runs. Traced
    passes take none there, so that spans hold gridfire's time only. The
    pass's wall time runs from the first call to the last verdict, less the
    calibration.
    """
    verdicts = []
    before = bracket()
    for job in jobs:
        v = Verdict(job.name)
        sampler = SpeedSampler()
        with sampler if sample else nullcontext():
            t0 = time.perf_counter()
            try:
                job.body(h, v)
            except Exception:  # a job that raises is a failed job; the pass goes on
                v.problems.append(f"{job.name}: raised\n{traceback.format_exc()}")
            v.seconds = time.perf_counter() - t0 - sampler.spent
        after = bracket()
        speed = statistics.median(before + sampler.samples + after)
        v.ref_seconds = v.seconds * CALIBRATION_REF_S / speed
        before = after
        verdicts.append(v)
    return PassResult(sum(v.seconds for v in verdicts), verdicts)
