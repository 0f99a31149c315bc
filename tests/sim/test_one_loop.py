"""One event loop: only ``MultiClusterSimulator.run`` drives a calendar.

Migration and shifting extend or feed the engine's loop instead of
running a copy of it; a second function that builds and pops an
:class:`~repro.sim.events.EventCalendar` would be a second loop that
only the equivalence tests hold in line.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _own_nodes(function: ast.AST):
    """The nodes of ``function``'s body, not those of functions nested
    in it."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _is_calendar(call: ast.AST) -> bool:
    if not isinstance(call, ast.Call):
        return False
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    return name == "EventCalendar"


def _functions(tree: ast.AST, prefix: str = ""):
    """Every function in ``tree`` with its dotted qualified name."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}", node
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        else:
            yield from _functions(node, prefix)


def calendar_sites() -> tuple[set[str], set[str]]:
    """Functions under ``src/repro`` that construct an ``EventCalendar``,
    and those that pop one they constructed, as ``module:qualname``."""
    constructed: set[str] = set()
    popped: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for qualname, function in _functions(ast.parse(path.read_text())):
            site = f"{module}:{qualname}"
            calendars = set()
            for node in _own_nodes(function):
                if _is_calendar(node):
                    constructed.add(site)
                if isinstance(node, ast.Assign) and _is_calendar(node.value):
                    calendars.update(
                        t.id for t in node.targets if isinstance(t, ast.Name)
                    )
            for node in _own_nodes(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pop"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in calendars
                ):
                    popped.add(site)
    return constructed, popped


def test_one_function_builds_and_pops_the_calendar():
    constructed, popped = calendar_sites()
    assert constructed == {"sim/engine.py:MultiClusterSimulator.run"}
    assert popped == constructed
