"""Tests of the benchmark itself: span arithmetic, the strategy proxy, fault
injection, repeatable counts and the contract with BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_gridfire()

import jobs  # noqa: E402
from tracing import (  # noqa: E402
    SAMPLE_INTERVAL_S,
    NullTracer,
    Span,
    SpeedSampler,
    Tracer,
    covered,
    layer_self_times,
    self_times,
)

SMALL_EXHAUSTIVE = jobs.SearchSpec(
    "exhaustive", "periodic:2,1", 3, 2,
    jobs.SearchExpect("exhausted-no-control", 10, None, None))
SMALL_MIN_BURNT = jobs.SEARCHES[3]  # periodic:2,2,2,3 h8 d2, about a second


class _WorkdirTest(unittest.TestCase):
    def setUp(self) -> None:
        parent = run.ROOT / ".perfbench_work"
        parent.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=parent))
        self.digests = jobs.load_reference_digests()

    def tearDown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass  # another test or run still uses it

    def harness(self, tracer=None, gate=True, cls=jobs.Harness):
        return cls(tracer or NullTracer(), self.workdir, self.digests, gate)


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        spans = [
            Span("engine.run", 0.0, 10.0, None),
            Span("wallplan.strategy", 1.0, 4.0, 0),
            Span("engine.validate", 2.0, 3.0, 1),
            Span("wallplan.strategy", 5.0, 9.0, 0),
            Span("trace.write", 12.0, 15.0, None),
        ]
        self.assertEqual(self_times(spans), {
            "engine.run": 3.0, "wallplan.strategy": 6.0,
            "engine.validate": 1.0, "trace.write": 3.0,
        })
        layers = layer_self_times(spans)
        self.assertEqual(layers, {"engine": 4.0, "wallplan": 6.0, "trace": 3.0})
        self.assertEqual(covered(spans), 13.0)
        self.assertEqual(sum(layers.values()), covered(spans))

    def test_tracer_records_parents(self):
        tracer = Tracer()
        with tracer.span("engine.run"):
            with tracer.span("strategies.strategy"):
                pass
        with tracer.span("trace.read"):
            pass
        self.assertEqual([(s.name, s.parent) for s in tracer.spans], [
            ("engine.run", None), ("strategies.strategy", 0), ("trace.read", None),
        ])
        self.assertTrue(all(s.start <= s.end for s in tracer.spans))


class SpeedSamplerTest(unittest.TestCase):
    def test_samples_during_a_job_and_accounts_for_its_time(self):
        sampler = SpeedSampler()
        with sampler:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 3 * SAMPLE_INTERVAL_S:
                pass
        self.assertGreaterEqual(len(sampler.samples), 2)
        self.assertGreaterEqual(sampler.spent, sum(sampler.samples))
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class StrategyProxyTest(_WorkdirTest):
    def test_traced_pass_writes_the_same_traces(self):
        job_list = [jobs.contain_job(1, 1), jobs.audit_job("const:1", "greedy", 30)]
        plain = jobs.run_pass(job_list, self.harness(gate=False), sample=True)
        tracer = Tracer()
        traced = jobs.run_pass(job_list, self.harness(tracer, gate=False), sample=False)
        self.assertEqual(plain.failed, 0)
        self.assertEqual(traced.failed, 0)
        self.assertEqual(plain.digests(), traced.digests())
        self.assertGreater(tracer.calls["wallplan.strategy"], 0)
        self.assertGreater(tracer.calls["strategies.strategy"], 0)

    def test_proxy_offers_reset_only_when_the_strategy_does(self):
        from gridfire import ContainmentStrategy, GreedyNearest, wall_plan

        tracer = Tracer()
        self.assertFalse(hasattr(tracer.wrap_strategy(GreedyNearest(), "s"), "reset"))
        wrapped = tracer.wrap_strategy(ContainmentStrategy(wall_plan(1, 1)), "s")
        self.assertTrue(hasattr(wrapped, "reset"))
        self.assertEqual(wrapped.identifier, "contain:m=1,r=1")


class _FlippingHarness(jobs.Harness):
    def write_file(self, trace, path):
        super().write_file(trace, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))


class FaultInjectionTest(_WorkdirTest):
    def test_flipped_trace_byte_fails_the_job(self):
        job_list = [jobs.contain_job(1, 1)]
        self.assertEqual(jobs.run_pass(job_list, self.harness(), sample=True).failed, 0)
        bad = jobs.run_pass(job_list, self.harness(cls=_FlippingHarness), sample=True)
        self.assertEqual(bad.failed, 1)

    def test_wrong_search_reference_fails_the_job(self):
        spec = SMALL_MIN_BURNT
        wrong = dataclasses.replace(
            spec, expect=dataclasses.replace(spec.expect, min_burnt=spec.expect.min_burnt - 1))
        p = jobs.run_pass([jobs.search_job(spec), jobs.search_job(wrong)], self.harness(),
                          sample=True)
        self.assertEqual([v.ok for v in p.verdicts], [True, False])

    def test_wrong_reference_digest_fails_the_job(self):
        self.digests = {k: "0" * 64 for k in self.digests}
        p = jobs.run_pass([jobs.contain_job(1, 1)], self.harness(), sample=True)
        self.assertEqual(p.failed, 1)


class RepeatabilityTest(_WorkdirTest):
    COUNTS = ("engine.ignited", "monitor.instants", "search.exhaustive_nodes",
              "search.min_burnt_nodes", "trace.bytes")

    def test_layer_counts_repeat_exactly(self):
        job_list = [
            jobs.contain_job(1, 2),
            jobs.audit_job("periodic:2,1", "random:seed=5", 60),
            jobs.search_job(SMALL_EXHAUSTIVE),
            jobs.search_job(SMALL_MIN_BURNT),
        ]
        seen = []
        for _ in range(2):
            tracer = Tracer()
            p = jobs.run_pass(job_list, self.harness(tracer, gate=False), sample=False)
            self.assertEqual(p.failed, 0, [v.problems for v in p.verdicts])
            metrics = run.layer_metrics(p, tracer)
            seen.append({k: metrics[k] for k in self.COUNTS})
        self.assertEqual(seen[0], seen[1])
        self.assertTrue(all(seen[0].values()), seen[0])


class ContractTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(jobs.WORKLOADS))

    def test_fails_without_the_gridfire_sources(self):
        parent = run.ROOT / ".perfbench_work"
        parent.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=parent) as bare:
            shutil.copytree(BENCH, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, str(Path(bare) / "perfbench" / "run.py"),
                 "--workload", "contain", "--seconds", "1"],
                capture_output=True, text=True, timeout=120,
            )
        try:
            parent.rmdir()
        except OSError:
            pass  # another test or run still uses it
        self.assertEqual(out.returncode, 2)
        self.assertEqual(out.stdout, "")
        self.assertIn("gridfire", out.stderr)


if __name__ == "__main__":
    unittest.main()
