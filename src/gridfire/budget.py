"""Firefighter supply functions: per-round counts and cumulative sums."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


@dataclass(frozen=True)
class Budget:
    """Supply function f(t) for rounds t >= 1.

    ``prefix`` gives the first rounds explicitly; afterwards ``cycle`` repeats
    forever. A constant budget is ``cycle=(c,)``; a finite table is a prefix
    followed by the all-zero cycle.
    """

    cycle: tuple[int, ...]
    prefix: tuple[int, ...] = ()
    label: str | None = None

    def __post_init__(self) -> None:
        if not self.cycle:
            raise ValueError("cycle must be non-empty")
        if any(v < 0 for v in self.cycle) or any(v < 0 for v in self.prefix):
            raise ValueError("firefighter counts must be nonnegative")

    def at(self, t: int) -> int:
        """f(t), the squad size for round t >= 1."""
        if t < 1:
            raise ValueError("rounds are numbered from 1")
        if t <= len(self.prefix):
            return self.prefix[t - 1]
        return self.cycle[(t - len(self.prefix) - 1) % len(self.cycle)]

    def cumulative(self, t: int) -> int:
        """Prefix sum over rounds 1..t; cumulative(0) = 0."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        if t <= len(self.prefix):
            return sum(self.prefix[:t])
        total = sum(self.prefix)
        k = t - len(self.prefix)
        full, rem = divmod(k, len(self.cycle))
        return total + full * sum(self.cycle) + sum(self.cycle[:rem])

    def cycle_average(self) -> Fraction:
        """Long-run firefighters per round, averaged over one cycle."""
        return Fraction(sum(self.cycle), len(self.cycle))

    def describe(self) -> str:
        if self.label is not None:
            return self.label
        if not self.prefix and len(self.cycle) == 1:
            return f"const:{self.cycle[0]}"
        if not self.prefix:
            return "periodic:" + ",".join(str(v) for v in self.cycle)
        return (
            "prefix:" + ",".join(str(v) for v in self.prefix)
            + "|" + ",".join(str(v) for v in self.cycle)
        )


def constant(c: int) -> Budget:
    return Budget(cycle=(c,))


def periodic(values: list[int] | tuple[int, ...]) -> Budget:
    return Budget(cycle=tuple(values))


def containment_budget(m: int) -> Budget:
    """One 4 followed by m-1 threes, repeating: cumulative(t) = 3t + ceil(t/m)."""
    return Budget(cycle=(4,) + (3,) * (m - 1))


def parse_budget(spec: str, root: str | Path = "") -> Budget:
    """Parse "const:c", "periodic:a,b,...", "prefix:a,b|c,d", or "table:file".

    A relative table file is read from the directory ``root``; the budget's
    label is ``spec`` as written. Any spec that does not parse, or a table
    file that cannot be read, raises ValueError.
    """
    kind, _, rest = spec.partition(":")
    if kind == "const" and rest:
        return constant(int(rest))
    if kind == "periodic" and rest:
        return periodic([int(v) for v in rest.split(",")])
    if kind == "prefix" and "|" in rest:
        head, _, tail = rest.partition("|")
        return Budget(
            prefix=tuple(int(v) for v in head.split(",")),
            cycle=tuple(int(v) for v in tail.split(",")),
        )
    if kind == "table" and rest:
        try:
            values = json.loads(Path(root, rest).read_text())
        except OSError as exc:
            raise ValueError(f"cannot read budget table: {exc}") from exc
        except RecursionError as exc:
            raise ValueError(f"budget table {rest!r} is nested too deeply") from exc
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"budget table {rest!r} is not JSON: {exc}") from exc
        # Exact types: JSON true/false load as bools, which Python treats as 1 and 0.
        if type(values) is not list or not all(type(v) is int for v in values):
            raise ValueError("budget table file must hold a JSON list of integers")
        # Beyond the table the supply is exhausted.
        return Budget(prefix=tuple(values), cycle=(0,), label=spec)
    raise ValueError(f"cannot parse budget spec: {spec!r}")


def label_budget(label: str) -> Budget | None:
    """The Budget a trace header's label names; None for a "table:PATH" label,
    whose file checking an untrusted trace must never open. Any other label
    that does not parse raises ValueError."""
    kind, _, rest = label.partition(":")
    if kind == "table" and rest:
        return None
    return parse_budget(label)
