"""Run traces: per-round records, JSON-lines serialization, clock views."""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from functools import partial
from types import NoneType
from typing import IO

from .grid import Interned, Point, Topology, _collector_off

# Points are tuples of ints, which hold no containers, so the encoder's cycle
# bookkeeping could never find a cycle; one encoder serves every line.
_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode

# The keys ``write`` writes, and so the only keys ``read`` takes.
_HEADER_KEYS = frozenset(
    ("topology", "initial", "budget", "strategy", "seed", "status", "control_round", "error"))
_ROUND_KEYS = frozenset(("t", "f", "placed", "ignited"))


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
    initial: tuple[Point, ...]  # distinct cells; ``run`` writes them row-major
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
        # Points go to json as tuples, which it writes as arrays: [x,y].
        header = {
            "topology": self.topology.value,
            "initial": self.initial,
            "budget": self.budget_desc,
            "strategy": self.strategy_id,
            "seed": self.seed,
            "status": self.status,
            "control_round": self.control_round,
            "error": self.error,
        }
        fp.write(_encode(header) + "\n")
        for rec in self.rounds:
            obj = {
                "t": rec.t,
                "f": rec.f,
                "placed": rec.placed,
                "ignited": rec.ignited,
            }
            fp.write(_encode(obj) + "\n")

    def to_text(self) -> str:
        buf = io.StringIO()
        self.write(buf)
        return buf.getvalue()

    @classmethod
    @_collector_off()
    def read(cls, fp: IO[str]) -> "RunTrace":
        """Parse a trace written by ``write``, checking every field's type.

        Raises MalformedTraceError with the file's own line number, blank
        lines included; a key that ``write`` never writes is malformed too.
        Lines end at line feeds only: JSON strings may hold U+0085, U+2028
        and U+2029 raw, which ``str.splitlines`` would also break at. Every
        line is parsed by ``json.loads``, whose C scanner checks the
        grammar, with its integers taken from one ``Interned`` table keyed
        by literal: the trace read holds one int object per distinct
        number, as a trace from ``run`` does.
        """
        loads = partial(json.loads, parse_int=Interned(int).__getitem__)
        # (physical line number, text) of every non-blank line
        lines = [(n, ln) for n, ln in enumerate(fp.read().split("\n"), start=1)
                 if ln.strip()]
        if not lines:
            raise MalformedTraceError("empty trace file", line=1)
        head_line, head = lines[0]
        try:
            header = loads(head)
            topology = Topology(header["topology"])
            trace = cls(
                topology=topology,
                initial=_points(header["initial"]),
                budget_desc=_typed(header["budget"], "budget", str),
                strategy_id=_typed(header["strategy"], "strategy", str),
                seed=_typed(header.get("seed"), "seed", int, NoneType),
                status=_typed(header.get("status", "horizon"), "status", str),
                control_round=_typed(header.get("control_round"), "control_round",
                                     int, NoneType),
                error=_typed(header.get("error"), "error", str, NoneType),
            )
            _only_keys(header, _HEADER_KEYS)
        except (KeyError, ValueError, TypeError, RecursionError) as exc:
            raise MalformedTraceError(f"bad header: {exc}", line=head_line) from exc
        for t, (n, ln) in enumerate(lines[1:], start=1):
            try:
                obj = loads(ln)
                rec = RoundRecord(
                    t=_typed(obj["t"], "t", int),
                    f=_typed(obj["f"], "f", int),
                    placed=_points(obj["placed"]),
                    ignited=_points(obj["ignited"]),
                )
                if rec.f < 0:
                    raise ValueError(f"f must be nonnegative, got {rec.f}")
                _only_keys(obj, _ROUND_KEYS)
            except (KeyError, ValueError, TypeError, RecursionError) as exc:
                raise MalformedTraceError(f"bad round record: {exc}", line=n) from exc
            if rec.t != t:
                raise MalformedTraceError(
                    f"round numbers must be consecutive from 1, got {rec.t}", line=n
                )
            trace.rounds.append(rec)
        return trace

    @classmethod
    def load(cls, path: str) -> "RunTrace":
        """Read the trace file at ``path``, whose lines may end in LF, CRLF
        or CR. A file that is not UTF-8 is malformed at the line of its
        first bad byte."""
        with open(path, "rb") as fp:
            data = fp.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # bytes.splitlines breaks where text mode does, at "\n", "\r\n"
            # and "\r"; the bad byte ends the last line of its prefix.
            line = len((data[:exc.start] + b"?").splitlines())
            raise MalformedTraceError(f"not UTF-8: {exc.reason}", line=line) from exc
        return cls.from_text(text)

    @classmethod
    def from_text(cls, text: str) -> "RunTrace":
        """Parse the text of a trace whose lines may end in LF, CRLF or CR."""
        return cls.read(io.StringIO(text, newline=None))


def _typed(value, name: str, *kinds: type):
    # Exact types: JSON true/false load as bools, which Python treats as 1 and 0.
    if type(value) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise TypeError(f"{name} must be {names}, got {value!r}")
    return value


def _only_keys(obj: dict, keys: frozenset[str]) -> None:
    unknown = obj.keys() - keys
    if unknown:
        raise ValueError(f"unknown key {min(unknown)!r}")


def _points(values) -> tuple[Point, ...]:
    pts = tuple(map(tuple, _typed(values, "a point list", list)))
    for x, y in pts:  # ValueError unless each point has two entries
        if type(x) is not int or type(y) is not int:
            raise TypeError(f"a point is two integers, got {[x, y]!r}")
    return pts
