"""gridfire benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload contain --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Each run is one fresh single-threaded process. It repeats full passes over
the workload's jobs until the time is up. With ``--trace 0`` it reports the
end-to-end metrics; job times are calibrated to a reference machine speed
(see ``tracing.calibrate``). With ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics of the median traced pass,
as measured. Every job is checked for correctness. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--workload all`` runs every workload both
ways, each in its own process. README.md in this directory describes the
workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracing import (
    CALIBRATION_REF_S,
    NullTracer,
    Tracer,
    bracket,
    covered,
    layer_self_times,
    self_times,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Probes run before every untraced pass of an untraced run, so that their
# median spans the run instead of one moment of the host's drifting speed.
SETUP_PROBES_PER_PASS = 3
# A fresh interpreter that imports gridfire and builds a workload's inputs.
SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import jobs; "
               "jobs.build_jobs(sys.argv[3], int(sys.argv[4]))")

END_TO_END = {
    "wall_s": "s",
    "slowest_job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "engine.self_s": "s",
    "engine.ignited_per_s": "1/s",
    "engine.rounds": "count",
    "engine.ignited": "count",
    "engine.validate_s": "s",
    "engine.validate_mb_per_s": "MB/s",
    "strategies.self_s": "s",
    "strategies.ms_per_round": "ms",
    "wallplan.plan_s": "s",
    "wallplan.self_s": "s",
    "wallplan.tasks": "count",
    "wallplan.placed_ratio": "ratio",
    "trace.write_s": "s",
    "trace.read_s": "s",
    "trace.write_mb_per_s": "MB/s",
    "trace.read_mb_per_s": "MB/s",
    "trace.bytes": "B",
    "monitor.self_s": "s",
    "monitor.instants": "count",
    "monitor.instants_per_s": "1/s",
    "reduction.self_s": "s",
    "reduction.cartesian_rounds": "count",
    "search.exhaustive_s": "s",
    "search.exhaustive_nodes": "count",
    "search.exhaustive_nodes_per_s": "1/s",
    "search.min_burnt_s": "s",
    "search.min_burnt_nodes": "count",
    "search.min_burnt_nodes_per_s": "1/s",
    "bench.span_overhead_frac": "frac",
    "bench.unattributed_frac": "frac",
}

LAYERS = ("engine", "strategies", "wallplan", "trace", "monitor", "reduction", "search")


class ImportGuardError(Exception):
    pass


def import_gridfire():
    """Import gridfire from this checkout's src/, and fail if it resolves elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import gridfire
    except ImportError as exc:
        raise ImportGuardError(f"cannot import gridfire from {SRC}: {exc}") from exc
    where = Path(gridfire.__file__).resolve()
    if where.parent != SRC / "gridfire":
        raise ImportGuardError(f"gridfire resolved to {where}, not to {SRC / 'gridfire'}")
    return gridfire


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Wall time of one setup probe: as measured, and calibrated."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), workload, str(seed)]
    before = bracket()
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls with sleeps of up to 50 ms, which
    # quantises the measured time.
    subprocess.run(cmd, check=True)
    seconds = time.perf_counter() - t0
    return seconds, seconds * CALIBRATION_REF_S / statistics.median(before + bracket())


def _rate(n: float, seconds: float) -> float:
    return n / seconds if seconds > 0 else 0.0


def layer_metrics(p, tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    st = defaultdict(float, self_times(tracer.spans))
    layers = defaultdict(float, layer_self_times(tracer.spans))
    unknown = set(layers) - set(LAYERS)
    if unknown:
        raise ValueError(f"spans outside the known layers: {sorted(unknown)}")
    c = p.counts()
    return {
        "engine.self_s": layers["engine"],
        "engine.ignited_per_s": _rate(c["engine.ignited"], st["engine.run"]),
        "engine.rounds": c["engine.rounds"],
        "engine.ignited": c["engine.ignited"],
        "engine.validate_s": st["engine.validate"],
        "engine.validate_mb_per_s": _rate(c["trace.bytes"] / 1e6, st["engine.validate"]),
        "strategies.self_s": layers["strategies"],
        "strategies.ms_per_round": _rate(1000 * layers["strategies"],
                                         tracer.calls.get("strategies.strategy", 0)),
        "wallplan.plan_s": st["wallplan.plan"],
        "wallplan.self_s": layers["wallplan"],
        "wallplan.tasks": c["wallplan.tasks"],
        "wallplan.placed_ratio": _rate(c["wallplan.placed"], c["wallplan.supplied"]),
        "trace.write_s": st["trace.write"],
        "trace.read_s": st["trace.read"],
        "trace.write_mb_per_s": _rate(c["trace.bytes_written"] / 1e6, st["trace.write"]),
        "trace.read_mb_per_s": _rate(c["trace.bytes"] / 1e6, st["trace.read"]),
        "trace.bytes": c["trace.bytes"],
        "monitor.self_s": layers["monitor"],
        "monitor.instants": c["monitor.instants"],
        "monitor.instants_per_s": _rate(c["monitor.instants"], layers["monitor"]),
        "reduction.self_s": layers["reduction"],
        "reduction.cartesian_rounds": c["reduction.cartesian_rounds"],
        "search.exhaustive_s": st["search.exhaustive"],
        "search.exhaustive_nodes": c["search.exhaustive_nodes"],
        "search.exhaustive_nodes_per_s": _rate(c["search.exhaustive_nodes"],
                                               st["search.exhaustive"]),
        "search.min_burnt_s": st["search.min_burnt"],
        "search.min_burnt_nodes": c["search.min_burnt_nodes"],
        "search.min_burnt_nodes_per_s": _rate(c["search.min_burnt_nodes"],
                                              st["search.min_burnt"]),
        "bench.unattributed_frac": (p.wall - covered(tracer.spans)) / p.wall,
    }


def check_repeatable(passes) -> None:
    """Every pass must give each job the same digests and counts as the first."""
    first = {v.name: (v.digests, v.counts) for v in passes[0].verdicts}
    for p in passes[1:]:
        for v in p.verdicts:
            v.require((v.digests, v.counts) == first[v.name],
                      f"{v.name}: digests or counts differ from the first pass")


def measure(workload: str, seed: int, seconds: float, traced: bool, workdir: Path):
    """Full passes until ``seconds`` would be overrun.

    Returns the untraced passes, the traced passes with their tracers, and
    the setup probe times (untraced runs only).
    """
    from jobs import Harness, build_jobs, digests_gated, load_reference_digests, run_pass

    jobs = build_jobs(workload, seed)
    digests = load_reference_digests()
    gate = digests_gated(workload, seed)
    untraced, traced_passes, probes = [], [], []
    start = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        if not traced:
            probes.extend(setup_probe(workload, seed) for _ in range(SETUP_PROBES_PER_PASS))
        untraced.append(
            run_pass(jobs, Harness(NullTracer(), workdir, digests, gate), sample=True))
        if traced:
            tracer = Tracer()
            traced_passes.append(
                (run_pass(jobs, Harness(tracer, workdir, digests, gate), sample=False),
                 tracer))
        now = time.perf_counter()
        if now - start + (now - c0) > seconds:
            return untraced, traced_passes, probes


def slowest_job(untraced, seconds) -> float:
    """The largest per-job median over passes of ``seconds(verdict)``."""
    per_job = defaultdict(list)
    for p in untraced:
        for v in p.verdicts:
            per_job[v.name].append(seconds(v))
    return max(statistics.median(ts) for ts in per_job.values())


def end_to_end_metrics(untraced, probes) -> dict[str, float]:
    print(f"# as measured, before calibration: wall "
          f"{statistics.median(p.wall for p in untraced):.4f} s, slowest job "
          f"{slowest_job(untraced, lambda v: v.seconds):.4f} s, setup "
          f"{statistics.median(raw for raw, _ in probes):.4f} s")
    return {
        "wall_s": statistics.median(p.ref_wall for p in untraced),
        "slowest_job_s": slowest_job(untraced, lambda v: v.ref_seconds),
        "setup_s": statistics.median(ref for _, ref in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(untraced, traced) -> dict[str, float]:
    """Per-layer metrics of the median traced pass, and the tracing overhead."""
    traced = sorted(traced, key=lambda pt: pt[0].ref_wall)
    p, tracer = traced[(len(traced) - 1) // 2]
    metrics = layer_metrics(p, tracer)
    metrics["bench.span_overhead_frac"] = (
        statistics.median(q.ref_wall for q, _ in traced)
        / statistics.median(q.ref_wall for q in untraced) - 1
    )
    layer_sum = sum(metrics[k] for k in (
        "engine.self_s", "strategies.self_s", "wallplan.self_s", "trace.write_s",
        "trace.read_s", "monitor.self_s", "reduction.self_s",
        "search.exhaustive_s", "search.min_burnt_s"))
    unattributed = metrics["bench.unattributed_frac"] * p.wall
    print(f"# median traced pass: layer self times {layer_sum:.4f} s + "
          f"unattributed {unattributed:.4f} s = {layer_sum + unattributed:.4f} s "
          f"of traced wall {p.wall:.4f} s")
    return metrics


def run_workload(args) -> int:
    import gridfire
    from jobs import digests_gated

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        untraced, traced, probes = measure(args.workload, args.seed, args.seconds,
                                           bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    passes = untraced + [p for p, _ in traced]
    check_repeatable(passes)

    mode = "traced" if args.trace else "untraced"
    print(f"# gridfire benchmark: workload={args.workload} seed={args.seed} "
          f"mode={mode} untraced_passes={len(untraced)} traced_passes={len(traced)}")
    if args.trace:
        metrics, units = traced_metrics(untraced, traced), PER_LAYER
    else:
        metrics, units = end_to_end_metrics(untraced, probes), END_TO_END
    attempted = sum(len(p.verdicts) for p in passes)
    failed = sum(p.failed for p in passes)
    metrics["failed_frac"] = failed / attempted
    for name, value in metrics.items():
        print(f"  {name:32s} {value:<14.6g} {units.get(name, 'frac')}")
    for v in passes[0].verdicts:
        for note in v.notes:
            print(f"# note: {v.name}: {note}")
    for p in passes:
        for v in p.verdicts:
            for problem in v.problems:
                print(f"# FAILED {problem}")
    meta = {
        "gridfire": str(Path(gridfire.__file__).resolve()),
        "revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": args.seed,
        "seed_used": args.workload == "audit",
        "digests_gated": digests_gated(args.workload, args.seed),
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    del metrics["failed_frac"]  # carried by "attempted" and "failed" below
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    from jobs import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            sys.stdout.write(out.stdout)
            sys.stderr.write(out.stderr)
            if not out.stdout.strip():
                return out.returncode or 1
            res = json.loads(out.stdout.strip().splitlines()[-1])
            correct = correct and res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            metrics.update({f"{workload}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("contain", "audit", "search", "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import_gridfire()
    except ImportGuardError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
