"""Structural rules read off the source of ``src/gridfire``.

The package stays pure Python with no runtime dependencies:
``pyproject.toml`` declares ``dependencies = []``, and the first test holds the
code to it by reading every import. Source balls are built in one place,
``FireState.source``, so only the engine calls ``grid.ball``. The minimum-burnt
walk ends a node at its gate before the seal and the children: the gate is a
step of the walk, not of the child ranking. The front monitor counts its
potentials in quarter units and builds a ``Fraction`` only for the report.
The reduction's verdict is ``ReductionReport.ok``, which the CLI only reads.
A view's burnt cells are its own: only ``SimView`` marks or reads them, and
outside the engine no code touches a view's underscore attributes. The
monitor takes only ``replay_validate`` from the engine. ``SimView.play``
takes the squad out of E by bisection, with no mask or ``compress`` over E.
The package's ``__all__`` names each name that ``__init__`` imports, once,
and no other.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "gridfire").glob("*.py"))


def _absolute_imports(tree: ast.AST):
    """(line, top-level module) of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_itself_and_the_standard_library():
    assert SOURCES
    foreign = [
        f"{path.name}:{line}: {module}"
        for path in SOURCES
        for line, module in _absolute_imports(ast.parse(path.read_text(), str(path)))
        if module not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_all_lists_exactly_what_the_package_imports():
    import gridfire

    init = next(path for path in SOURCES if path.name == "__init__.py")
    imported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init.read_text(), str(init)))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert len(gridfire.__all__) == len(set(gridfire.__all__))
    assert set(gridfire.__all__) == imported
    assert all(hasattr(gridfire, name) for name in gridfire.__all__)


def test_only_the_engine_calls_ball():
    callers = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and "ball" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert callers == {"engine.py"}


def _function(tree: ast.AST, name: str) -> ast.FunctionDef:
    """The one function or method called ``name`` in ``tree``."""
    found = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == name]
    assert len(found) == 1, name
    return found[0]


def _called(node: ast.AST) -> list[str]:
    """The names called in ``node``, in source order."""
    calls = [call for call in ast.walk(node) if isinstance(call, ast.Call)]
    calls.sort(key=lambda call: (call.lineno, call.col_offset))
    return [getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for call in calls]


def test_the_walk_gates_a_node_before_its_seal_and_children():
    path = next(path for path in SOURCES if path.name == "search.py")
    tree = ast.parse(path.read_text(), str(path))
    assert {"gate", "seal"}.isdisjoint(_called(_function(tree, "ranked_children")))
    walk = [name for name in _called(_function(_function(tree, "min_burnt_search"), "visit"))
            if name in ("gate", "seal", "ranked_children")]
    assert walk == ["gate", "seal", "ranked_children"]


def test_the_monitor_walk_counts_in_quarters():
    path = next(path for path in SOURCES if path.name == "monitor.py")
    tree = ast.parse(path.read_text(), str(path))
    assert "Fraction" not in _called(_function(tree, "_line_potentials"))
    # The one Fraction of check_invariants is the minimum front slack.
    assert _called(_function(tree, "check_invariants")).count("Fraction") <= 1


def test_the_cli_reads_the_reduction_verdict_off_the_report():
    path = next(path for path in SOURCES if path.name == "cli.py")
    cmd_reduce = _function(ast.parse(path.read_text(), str(path)), "cmd_reduce")
    assert not any(isinstance(node, ast.Compare) for node in ast.walk(cmd_reduce))


def _view_names(tree: ast.AST) -> set[str]:
    """Names bound to a view: parameters annotated ``SimView`` and targets
    of ``SimView(...)``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and getattr(node.annotation, "id", None) == "SimView":
            names.add(node.arg)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "id", None) == "SimView"):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_only_the_view_touches_its_burnt_cells():
    """No set of burnt points rides on a view: ``SimView`` has no ``burnt``
    slot, and outside its class no code reads or writes a view's burnt
    state. Strategies may read ``burnt_count``; only the view sets it."""
    engine = next(path for path in SOURCES if path.name == "engine.py")
    view_class = next(node for node in ast.walk(ast.parse(engine.read_text(), str(engine)))
                      if isinstance(node, ast.ClassDef) and node.name == "SimView")
    slots = next(ast.literal_eval(node.value) for node in view_class.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["__slots__"])
    assert "burnt" not in slots and {"_marks", "burnt_count"} <= set(slots)
    touches = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        views = _view_names(tree)
        if path == engine:
            assert "view" in views
            # The class's own nodes are the only ones allowed in.
            tree.body = [node for node in tree.body
                         if not (isinstance(node, ast.ClassDef) and node.name == "SimView")]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            on_view = getattr(node.value, "id", None) in views
            if (node.attr == "_marks"
                    or on_view and node.attr == "burnt"
                    or on_view and node.attr == "burnt_count"
                    and isinstance(node.ctx, ast.Store)):
                touches.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert touches == []


def test_only_the_engine_touches_a_views_private_state():
    """Outside ``engine.py`` no code reads or writes an underscore attribute
    of a view; strategies keep what they need of the fire themselves."""
    touches = []
    for path in SOURCES:
        if path.name == "engine.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        views = _view_names(tree)
        touches += [f"{path.name}:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and getattr(node.value, "id", None) in views]
    assert touches == []


def test_the_monitor_takes_only_replay_validate_from_the_engine():
    """The monitor reads E off the trace, so of the engine it needs only the
    replay that checks the trace first."""
    path = next(path for path in SOURCES if path.name == "monitor.py")
    taken = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module in ("engine", "gridfire.engine"):
            taken += [alias.name for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            taken += [alias.name for alias in node.names
                      if alias.name.rpartition(".")[2] == "engine"]
    assert taken == ["replay_validate"]


def test_play_takes_the_squad_out_of_E_by_bisection():
    engine = next(path for path in SOURCES if path.name == "engine.py")
    called = _called(_function(ast.parse(engine.read_text(), str(engine)), "play"))
    assert "bisect_left" in called and {"compress", "map"}.isdisjoint(called)
