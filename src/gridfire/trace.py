"""Run traces: per-round records, JSON-lines serialization, clock views."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO

from .grid import Point, Topology


class MalformedTraceError(Exception):
    """Raised when a trace file cannot be parsed or fails replay validation."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where)


@dataclass(frozen=True)
class RoundRecord:
    t: int
    f: int
    placed: tuple[Point, ...]
    ignited: tuple[Point, ...]


@dataclass
class RunTrace:
    topology: Topology
    initial: tuple[Point, ...]  # sorted row-major
    budget_desc: str
    strategy_id: str
    seed: int | None = None
    rounds: list[RoundRecord] = field(default_factory=list)
    status: str = "horizon"  # "controlled" | "horizon" | "strategy-error"
    control_round: int | None = None
    error: str | None = None

    def final_round(self) -> int:
        return self.rounds[-1].t if self.rounds else 0

    def state_at(self, t: int) -> tuple[set[Point], set[Point]]:
        """(burnt, protected) at the end of round t (engine clock); t = 0 is the start."""
        if not 0 <= t <= self.final_round():
            raise ValueError(f"round {t} outside trace range 0..{self.final_round()}")
        burnt = set(self.initial)
        protected: set[Point] = set()
        for rec in self.rounds[:t]:
            protected.update(rec.placed)
            burnt.update(rec.ignited)
        return burnt, protected

    def write(self, fp: IO[str]) -> None:
        header = {
            "topology": self.topology.value,
            "initial": [list(p) for p in self.initial],
            "budget": self.budget_desc,
            "strategy": self.strategy_id,
            "seed": self.seed,
            "status": self.status,
            "control_round": self.control_round,
            "error": self.error,
        }
        fp.write(json.dumps(header, separators=(",", ":")) + "\n")
        for rec in self.rounds:
            obj = {
                "t": rec.t,
                "f": rec.f,
                "placed": [list(p) for p in rec.placed],
                "ignited": [list(p) for p in rec.ignited],
            }
            fp.write(json.dumps(obj, separators=(",", ":")) + "\n")

    def to_text(self) -> str:
        import io

        buf = io.StringIO()
        self.write(buf)
        return buf.getvalue()

    @classmethod
    def read(cls, fp: IO[str]) -> "RunTrace":
        lines = [ln for ln in fp.read().splitlines() if ln.strip()]
        if not lines:
            raise MalformedTraceError("empty trace file", line=1)
        try:
            header = json.loads(lines[0])
            topology = Topology(header["topology"])
            trace = cls(
                topology=topology,
                initial=tuple(tuple(p) for p in header["initial"]),
                budget_desc=header["budget"],
                strategy_id=header["strategy"],
                seed=header.get("seed"),
                status=header.get("status", "horizon"),
                control_round=header.get("control_round"),
                error=header.get("error"),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise MalformedTraceError(f"bad header: {exc}", line=1) from exc
        for i, ln in enumerate(lines[1:], start=2):
            try:
                obj = json.loads(ln)
                rec = RoundRecord(
                    t=obj["t"],
                    f=obj["f"],
                    placed=tuple(tuple(p) for p in obj["placed"]),
                    ignited=tuple(tuple(p) for p in obj["ignited"]),
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise MalformedTraceError(f"bad round record: {exc}", line=i) from exc
            if rec.t != i - 1:
                raise MalformedTraceError(
                    f"round numbers must be consecutive from 1, got {rec.t}", line=i
                )
            trace.rounds.append(rec)
        return trace

    @classmethod
    def load(cls, path: str) -> "RunTrace":
        with open(path, encoding="utf-8") as fp:
            return cls.read(fp)

    @classmethod
    def from_text(cls, text: str) -> "RunTrace":
        import io

        return cls.read(io.StringIO(text))
