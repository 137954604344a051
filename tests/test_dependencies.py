"""Structural rules read off the source of ``src/gridfire``.

The package stays pure Python with no runtime dependencies:
``pyproject.toml`` declares ``dependencies = []``, and the first test holds the
code to it by reading every import. Source balls are built in one place,
``FireState.source``, so only the engine calls ``grid.ball``. The minimum-burnt
walk ends a node at its gate before the seal and the children: the gate is a
step of the walk, not of the child ranking. A search node travels as its list
of symmetry images, and only ``_Search.carry`` (with the window that builds
the tables) reads the tables. The front monitor counts its
potentials in quarter units and builds a ``Fraction`` only for the report.
The reduction's verdict is ``ReductionReport.ok``, which the CLI only reads.
A view's burnt cells are its own: only ``SimView`` marks or reads them, and
outside the engine no code touches a view's underscore attributes. The
monitor takes only ``replay_validate`` from the engine. ``SimView.play``
takes the squad out of E by bisection, with no mask or ``compress`` over E.
The package's ``__all__`` names each name that ``__init__`` imports, once,
and no other. The cyclic collector is switched in one place: only ``grid``
imports ``gc``, only its ``_collector_off`` calls it, and that helper
decorates exactly ``run``, ``replay_validate``, ``RunTrace.read`` and
``check_invariants``. Every wall cell's deadline comes from one rule: the
package's one ``WallTask`` call is in ``wallplan._boundary_tasks``, which only
``wall_plan`` calls, and ``wall_plan`` gets its tasks only from that call.
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


def _methods(tree: ast.AST, class_name: str) -> dict[str, ast.FunctionDef]:
    """The methods of the one class called ``class_name`` in ``tree``."""
    found = [node for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) and node.name == class_name]
    assert len(found) == 1, class_name
    return {node.name: node for node in found[0].body if isinstance(node, ast.FunctionDef)}


def test_one_carry_holds_the_symmetry_tables():
    """A search node is its list of images, which only ``_Search.carry``
    makes: outside the window's constructor no other code reads the tables,
    and no second form of a position, key or child step is kept."""
    path = next(path for path in SOURCES if path.name == "search.py")
    tree = ast.parse(path.read_text(), str(path))
    window, core = _methods(tree, "_Window"), _methods(tree, "_Search")
    allowed = set(ast.walk(window["__init__"])) | set(ast.walk(core["carry"]))
    readers = [f"search.py:{node.lineno}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "sym_bits"
               and node not in allowed]
    assert readers == []
    assert {"images", "key"}.isdisjoint(window)
    assert "children" not in core


def test_only_wall_plan_makes_wall_tasks():
    """A plan's deadlines all come from one box-to-tasks rule: the package
    builds a ``WallTask`` in one call, in ``_boundary_tasks``, and calls that
    function once, in ``wall_plan``, whose every ``tasks=`` is that call or
    the empty placeholder it replaces."""
    found = {"WallTask": [], "_boundary_tasks": []}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        owners = {}
        if path.name == "wallplan.py":
            for name in ("_boundary_tasks", "wall_plan"):
                owners.update(dict.fromkeys(ast.walk(_function(tree, name)), name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if called in found:
                    found[called].append(f"{path.name}:{owners.get(node, node.lineno)}")
    assert found == {"WallTask": ["wallplan.py:_boundary_tasks"],
                     "_boundary_tasks": ["wallplan.py:wall_plan"]}
    path = next(path for path in SOURCES if path.name == "wallplan.py")
    plan = _function(ast.parse(path.read_text(), str(path)), "wall_plan")
    given = [ast.unparse(node.value) for node in ast.walk(plan)
             if isinstance(node, ast.keyword) and node.arg == "tasks"]
    assert sorted(given, key=len) == ["()", "_boundary_tasks(r, box)"]


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


def _decorated_by(tree: ast.AST, name: str, scope: str = ""):
    """Qualified names of the functions in ``tree`` that ``@name()`` decorates."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            qualified = scope + node.name
            if any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == name
                   for d in node.decorator_list):
                yield qualified
            yield from _decorated_by(node, name, qualified + ".")


def test_one_helper_holds_the_collector_off_for_four_calls():
    importers, calls, decorated, uses = [], [], [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        helper = ()
        if path.name == "grid.py":
            helper = set(ast.walk(_function(tree, "_collector_off")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names) \
                    or isinstance(node, ast.ImportFrom) and node.module == "gc":
                importers.append(path.name)
            elif (isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "gc"
                  and node not in helper):
                calls.append(f"{path.name}:{node.lineno}: gc.{node.attr}")
            elif isinstance(node, ast.Name) and node.id == "_collector_off":
                uses += 1
        decorated += [f"{path.name}:{name}" for name in _decorated_by(tree, "_collector_off")]
    assert importers == ["grid.py"]
    assert calls == []
    assert sorted(decorated) == ["engine.py:replay_validate", "engine.py:run",
                                 "monitor.py:check_invariants", "trace.py:RunTrace.read"]
    # The helper is used only as a decorator.
    assert uses == len(decorated)
