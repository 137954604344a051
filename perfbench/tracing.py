"""Timing for the benchmark: machine-speed calibration and in-memory spans.

A span has a name, a start, an end and a parent. Its layer is the part of
the name before the first dot (``engine.run`` belongs to ``engine``). A
span's self time is its duration minus the durations of its children; the
bench is single-threaded, so children nest strictly and never overlap, and
the self times of all spans add up to the time covered by the root spans.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list


# The speed of a shared host drifts by tens of percent over seconds to
# minutes, so run-to-run spreads of plain job times exceed any useful bound.
# A fixed kernel of about 2 ms therefore measures the speed around and during
# every untraced job: BRACKET_SAMPLES runs before and after it, and one run
# from an interval timer every SAMPLE_INTERVAL_S while it runs. A job's time
# is scaled by CALIBRATION_REF_S / the median kernel time. The kernel does
# what the engine does most: hash tuples, update sets and dicts, and sort
# with a key. CALIBRATION_REF_S is about the kernel's median on a 2-vCPU
# 2.1 GHz Xeon sandbox with Python 3.11, so there calibrated times read close
# to measured ones.
CALIBRATION_REF_S = 0.0019
BRACKET_SAMPLES = 5
SAMPLE_INTERVAL_S = 0.2


def calibrate() -> float:
    """Seconds the calibration kernel takes now."""
    t0 = time.perf_counter()
    seen: set[tuple[int, int]] = set()
    age: dict[tuple[int, int], int] = {}
    for i in range(1500):
        p = (i % 300, i // 300)
        seen.add(p)
        age[p] = i
        if (p[0] + 1, p[1]) in seen:
            age[p] += 1
    sorted(seen, key=lambda q: (q[1], q[0]))
    return time.perf_counter() - t0


def bracket() -> list[float]:
    return [calibrate() for _ in range(BRACKET_SAMPLES)]


class SpeedSampler:
    """Calibration samples taken from an interval timer while a job runs.

    The SIGALRM handler runs the kernel between two bytecodes of the job;
    ``spent`` is the handler time, which the caller takes off the job's time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def layer_of(name: str) -> str:
    return name.partition(".")[0]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: summed durations minus direct children."""
    out: dict[str, float] = {}
    for span in spans:
        d = span.end - span.start
        out[span.name] = out.get(span.name, 0.0) + d
        if span.parent is not None:
            parent = spans[span.parent].name
            out[parent] = out.get(parent, 0.0) - d
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, t in self_times(spans).items():
        out[layer_of(name)] = out.get(layer_of(name), 0.0) + t
    return out


def covered(spans: list[Span]) -> float:
    """Time inside any span: the summed durations of the root spans."""
    return sum(s.end - s.start for s in spans if s.parent is None)


class Tracer:
    """Keeps spans in memory; ``calls`` counts strategy calls per span name."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter()
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap_strategy(self, strategy, layer: str):
        return TimedStrategy(strategy, self, layer + ".strategy")


class NullTracer:
    """Tracing off: no spans, and strategies reach the engine unwrapped."""

    def span(self, name: str):
        return nullcontext()

    def wrap_strategy(self, strategy, layer: str):
        return strategy


class TimedStrategy:
    """Strategy proxy that records a span around every call.

    The engine writes ``identifier`` into the trace header and calls ``reset``
    only when the strategy has one, so the proxy forwards both exactly as the
    wrapped strategy offers them: a traced run writes the same bytes as an
    untraced one.
    """

    def __init__(self, inner, tracer: Tracer, span_name: str):
        self.identifier = inner.identifier
        self._inner = inner
        self._tracer = tracer
        self._span_name = span_name
        if hasattr(inner, "reset"):
            self.reset = self._reset

    def _reset(self, state) -> None:
        with self._tracer.span(self._span_name):
            self._inner.reset(state)

    def next_placements(self, view, available: int):
        calls = self._tracer.calls
        calls[self._span_name] = calls.get(self._span_name, 0) + 1
        with self._tracer.span(self._span_name):
            return self._inner.next_placements(view, available)
