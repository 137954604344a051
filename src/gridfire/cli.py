"""Command-line interface: run, monitor, reduce, search, sweep, render.

Exit codes: 0 success, 1 invariant or containment failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from types import NoneType

from .budget import containment_budget, parse_budget
from .engine import FireState, run
from .grid import Topology, bounding_box
from .monitor import check_invariants
from .reduction import run_reduction
from .render import render_pgm, render_text
from .search import SearchConfig, exhaustive_search, min_burnt_search
from .strategies import parse_strategy
from .trace import MalformedTraceError, RunTrace, _typed
from .wallplan import ContainmentStrategy, wall_plan


@dataclasses.dataclass
class ExperimentConfig:
    topology: str = "cartesian"
    center: tuple[int, int] = (0, 0)
    radius: int = 0
    source_metric: str | None = None  # None: the default of FireState.source
    budget: str = "const:0"
    strategy: str = "null"
    horizon: int = 10
    seed: int | None = None
    out: str | None = None

    def __post_init__(self) -> None:
        # A config file can hold any JSON type, and true would pass for 1.
        for name, *kinds in (("topology", str), ("radius", int),
                             ("source_metric", str, NoneType), ("budget", str),
                             ("strategy", str), ("horizon", int),
                             ("seed", int, NoneType), ("out", str, NoneType)):
            _typed(getattr(self, name), name, *kinds)
        center = self.center
        if (type(center) is not tuple or len(center) != 2
                or any(type(v) is not int for v in center)):
            raise TypeError(f"center must be two ints, got {center!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")

    def to_json(self) -> str:
        d = dataclasses.asdict(self)
        d["center"] = list(self.center)
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            d = json.loads(text)
        except RecursionError as exc:
            raise ValueError("config is nested too deeply") from exc
        names = {f.name for f in dataclasses.fields(cls)}
        if not isinstance(d, dict) or d.keys() != names:
            raise ValueError(f"config must hold exactly the keys {sorted(names)}")
        if type(d["center"]) is list:  # JSON has no tuples
            d["center"] = tuple(d["center"])
        return cls(**d)

    def initial_state(self) -> FireState:
        """The source ball, built by ``FireState.source``, which also picks
        the metric when ``source_metric`` is None."""
        return FireState.source(Topology(self.topology), self.radius,
                                self.center, self.source_metric)


class _UsageError(Exception):
    """A parse error in the command line or a file it names; main exits 2."""


def _parsed(parse, spec):
    try:
        return parse(spec)
    except (ValueError, TypeError, OSError, MalformedTraceError) as exc:
        raise _UsageError(exc) from exc


def _write_text(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is a usage error."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _UsageError(exc) from exc


def _ints(count: int | None = None, least: int | None = None):
    """An argparse type: ``count`` comma-separated integers (bare if 1), each >= ``least``."""

    def integers(text: str) -> int | list[int]:
        values = [int(v) for v in text.split(",")] if text else []
        if count is not None and len(values) != count:
            raise argparse.ArgumentTypeError(f"expected {count} integers, got {text!r}")
        if least is not None and any(v < least for v in values):
            raise argparse.ArgumentTypeError(f"expected integers >= {least}, got {text!r}")
        return values[0] if count == 1 else values

    return integers


def _experiment(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        return ExperimentConfig.from_json(Path(args.config).read_text())
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentConfig)}
    return ExperimentConfig(**values | {"center": tuple(args.center)})


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _parsed(_experiment, args)
    initial = _parsed(ExperimentConfig.initial_state, cfg)
    root = Path(args.config).parent if args.config else ""
    budget = _parsed(partial(parse_budget, root=root), cfg.budget)
    strategy = _parsed(parse_strategy, cfg.strategy)
    trace = run(initial, budget, strategy, cfg.horizon, seed=cfg.seed)
    if cfg.out:
        _write_text(cfg.out, trace.to_text())
    burnt, _ = trace.state_at(trace.final_round())
    bbox = bounding_box(burnt)
    if trace.status == "controlled":
        print(f"controlled at round {trace.control_round}")
    elif trace.status == "horizon":
        print(f"horizon reached at round {trace.final_round()}")
    else:
        print(f"strategy error: {trace.error}")
    print(f"burnt cells: {len(burnt)}")
    print(f"bounding box: x in [{bbox[0]}, {bbox[1]}], y in [{bbox[2]}, {bbox[3]}]")
    return 1 if trace.status == "strategy-error" else 0


def cmd_monitor(args: argparse.Namespace) -> int:
    report = _parsed(check_invariants, _parsed(RunTrace.load, args.trace))
    if args.json_out:
        _write_text(args.json_out, json.dumps(report.to_json(), indent=2))
    print(report.to_table())
    return 0 if report.ok else 1


def cmd_reduce(args: argparse.Namespace) -> int:
    budget = _parsed(parse_budget, args.budget)
    strategy = _parsed(parse_strategy, args.strategy)
    if not isinstance(strategy, ContainmentStrategy):
        raise _UsageError("reduce expects a strong-grid containment strategy")
    plan = strategy.plan
    report = run_reduction(strategy, budget, plan.r, args.horizon or plan.horizon)
    print(f"strong grid: status={report.strong_trace.status} "
          f"control_round={report.strong_control_round}")
    for o in report.outcomes:
        print(
            f"cartesian source radius {o.source_radius}: "
            f"controlled={o.controlled} control_round={o.control_round} "
            f"placements_even={o.placements_all_even} "
            f"ignition_parity={o.ignition_parity_ok}"
        )
    doubled = report.outcomes[0]
    if not report.strong_controlled:
        print("strong-grid strategy failed; reduction inherits the failure")
    elif doubled.controlled:
        # On the analysis clock (round + 1) the slowdown is exactly twofold.
        print(f"analysis-clock rounds: cartesian {doubled.control_round + 1} "
              f"vs 2x strong {2 * (report.strong_control_round + 1)}")
    return 0 if report.ok else 1


def cmd_search(args: argparse.Namespace) -> int:
    if args.bound is not None and args.objective != "min-burnt":
        raise _UsageError("--bound applies only to --objective min-burnt")
    budget = _parsed(parse_budget, args.budget)
    source = FireState.source(Topology(args.topology), args.radius)
    cfg = SearchConfig(
        topology=source.topology,
        source=source.burnt,
        budget=budget,
        horizon=args.horizon,
        candidate_distance=None if args.unrestricted else args.distance,
        node_cap=args.node_cap,
        initial_bound=args.bound,
    )
    if args.objective == "min-burnt":
        res = min_burnt_search(cfg)
    else:
        res = exhaustive_search(cfg)
    out = {
        "outcome": res.outcome,
        "nodes": res.nodes,
        "min_final_perimeter": res.min_final_perimeter,
        "min_burnt": res.min_burnt,
        "note": res.note,
    }
    print(json.dumps(out))
    if res.witness and args.witness_out:
        _write_text(args.witness_out, res.witness.to_text())
    return 0


def _sweep_cell(cell: tuple[int, int]) -> dict:
    m, r = cell
    plan = wall_plan(m, r)
    initial = FireState.source(Topology.STRONG, r)
    trace = run(initial, containment_budget(m), ContainmentStrategy(plan), plan.horizon)
    xmin, xmax, ymin, ymax = bounding_box(trace.state_at(trace.final_round())[0])
    width = xmax - xmin + 1
    height = ymax - ymin + 1
    controlled = trace.status == "controlled"
    return {
        "m": m,
        "r": r,
        "status": trace.status,
        "control_round": trace.control_round,
        "round_bound": plan.round_bound,
        "width": width,
        "width_bound": plan.width_bound,
        "height": height,
        "height_bound": plan.height_bound,
        "round_ok": controlled and trace.control_round <= plan.round_bound,
        "width_ok": width <= plan.width_bound,
        "height_ok": height <= plan.height_bound,
    }


def cmd_sweep(args: argparse.Namespace) -> int:
    cells = [(m, r) for m in args.m for r in args.r]
    if not cells:
        print("empty sweep")
        return 0
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(c) for c in cells]
    print("  m  r  status      T   T<=   width/bound  height/bound")
    for row in rows:
        print(
            f"{row['m']:3d} {row['r']:2d}  {row['status']:<10} "
            f"{str(row['control_round']):>4} {row['round_bound']:5d}  "
            f"{row['width']:5d}/{row['width_bound']:<5d}  "
            f"{row['height']:5d}/{row['height_bound']:<5d}"
        )
    if args.json_out:
        _write_text(args.json_out, json.dumps(rows, indent=2))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    trace = _parsed(RunTrace.load, args.trace)
    burnt, protected = _parsed(trace.state_at, args.round)
    window = tuple(args.window)
    if args.pgm:
        _write_text(args.pgm, _parsed(partial(render_pgm, burnt, protected), window))
    else:
        print(_parsed(partial(render_text, burnt, protected), window))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line of stderr and exits 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridfire",
        description="Firefighter-problem simulation and verification on planar grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate one scenario and write a trace")
    p.add_argument("--config", help="JSON experiment config (overrides flags)")
    p.add_argument("--topology", choices=[t.value for t in Topology])
    p.add_argument("--center", type=_ints(2))
    p.add_argument("--radius", type=int)
    p.add_argument("--source-metric", choices=["l1", "linf"])
    p.add_argument("--budget")
    p.add_argument("--strategy")
    p.add_argument("--horizon", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="trace output path (JSON lines)")
    # Every flag's default is the config's own.
    p.set_defaults(func=cmd_run, **dataclasses.asdict(ExperimentConfig()))

    p = sub.add_parser("monitor", help="check front invariants on a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("reduce", help="map a strong-grid strategy onto the Cartesian grid")
    p.add_argument("--strategy", required=True, help="e.g. contain:m=1,r=1")
    p.add_argument("--budget", required=True)
    p.add_argument("--horizon", type=_ints(1, 1), default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("search", help="game-tree search over placements")
    p.add_argument("--topology", default="cartesian",
                   choices=[t.value for t in Topology])
    p.add_argument("--radius", type=_ints(1, 0), default=0)
    p.add_argument("--budget", required=True)
    p.add_argument("--horizon", type=_ints(1, 1), required=True)
    # A str default is converted only when absent, so --distance 2 still conflicts.
    where = p.add_mutually_exclusive_group()
    where.add_argument("--distance", type=_ints(1, 0),
                       default=str(SearchConfig.candidate_distance))
    where.add_argument("--unrestricted", action="store_true")
    p.add_argument("--node-cap", type=_ints(1, 1), default=SearchConfig.node_cap)
    p.add_argument("--bound", type=_ints(1, 1), default=None,
                   help="only look for containments burning fewer cells than this")
    p.add_argument("--objective", choices=["exhaust", "min-burnt"],
                   default="exhaust")
    p.add_argument("--witness-out", default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="containment parameter sweep")
    p.add_argument("--m", type=_ints(least=1), default="1,2,3")
    p.add_argument("--r", type=_ints(least=1), default="1,2,3")
    p.add_argument("--jobs", type=_ints(1, 1), default=1)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("render", help="snapshot a trace round as text or PGM")
    p.add_argument("--trace", required=True)
    p.add_argument("--round", type=int, required=True)
    p.add_argument("--window", type=_ints(4), required=True, help="xmin,xmax,ymin,ymax")
    p.add_argument("--pgm", default=None)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)  # argparse exits 2 on usage errors
    try:
        return args.func(args)
    except _UsageError as exc:
        malformed = isinstance(exc.__cause__, MalformedTraceError)
        print(f"{'malformed trace' if malformed else 'error'}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
