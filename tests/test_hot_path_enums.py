"""The per-event packages look up no Enum member inside a function body.

On Python 3.10 and 3.11 the enum metaclass defines ``__getattr__``, so a
class-attribute lookup such as ``TaskState.RUNNING`` takes the slow
attribute hook: about 170 ns, against about 15 ns for a module global.
The kernel makes several per simulated event.  So the per-event code
binds each member once, as a module constant beside its enum
(``repro.kernel.task``, ``repro.core.bwd``, ...), and tests that constant
(docs/performance.md, "Enum member lookups").  This test keeps it so: it
collects every ``enum.Enum`` subclass defined under ``repro`` and fails,
naming ``file:line``, on any ``<EnumClass>.<member>`` in a function body
of those packages, including through a function-local import.
"""

from __future__ import annotations

import ast
import enum
import importlib
import pkgutil
from pathlib import Path

import repro

HOT_PACKAGES = ("kernel", "core", "sync", "sim", "hw", "obs", "chaos")
ROOT = Path(repro.__file__).parent


def enum_classes() -> dict[str, set[str]]:
    """Class name -> member names, for every Enum defined under repro."""
    found: dict[str, set[str]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, enum.Enum)
                    and obj.__module__ == module.__name__):
                found.setdefault(obj.__name__, set()).update(obj.__members__)
    return found


def member_lookups(source: str,
                   enums: dict[str, set[str]]) -> list[tuple[int, str]]:
    """``(line, text)`` of every enum member lookup in a function body.

    An enum class is recognized by its own name, by any ``as`` name a
    ``from ... import`` gives it anywhere in the file (module level or
    function-local), and as the last attribute of a dotted name
    (``task.TaskState.RUNNING``).  Default arguments and decorators of a
    module-level ``def`` run once, so only bodies are searched."""
    tree = ast.parse(source)
    bound = {name: name for name in enums}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in enums:
                    bound[alias.asname or alias.name] = alias.name

    def enum_of(node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute) and node.attr in enums:
            return node.attr
        return None

    hits: set[tuple[int, int, str]] = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = fn.body
        elif isinstance(fn, ast.Lambda):
            body = [fn.body]
        else:
            continue
        for stmt in body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Attribute):
                    continue
                cls = enum_of(node.value)
                if cls is not None and node.attr in enums[cls]:
                    hits.add((node.lineno, node.col_offset, ast.unparse(node)))
    return [(line, text) for line, _, text in sorted(hits)]


def test_enum_collection_sees_the_per_event_enums():
    enums = enum_classes()
    for name in ("TaskState", "RunMode", "WindowKind", "AccessPattern",
                 "ExecMode"):
        assert name in enums, sorted(enums)
    assert "RUNNING" in enums["TaskState"]


def test_scanner_flags_every_binding_of_a_member_lookup():
    source = '''
from repro.kernel.task import RunMode, TaskState

RUNNING = TaskState.RUNNING


def direct(t):
    return t.state is TaskState.SLEEPING


def local_import(t):
    from repro.kernel.task import TaskState as TS

    return t.state is TS.VBLOCKED


def through_module(t):
    from repro.kernel import task

    return t.state is task.TaskState.EXITED


spinning = lambda t: t.mode is RunMode.SPIN


def nested(t, default=TaskState.NEW):
    def inner(u=TaskState.RUNNABLE):
        return u
    return inner


def clean(t):
    return t.state is RUNNING or TaskState(t.state.value) is RUNNING
'''
    enums = {"TaskState": {m.name for m in repro.TaskState},
             "RunMode": {"COMPUTE", "SPIN"}}
    hits = member_lookups(source, enums)
    assert hits == [
        (8, "TaskState.SLEEPING"),
        (14, "TS.VBLOCKED"),
        (20, "task.TaskState.EXITED"),
        (23, "RunMode.SPIN"),
        (27, "TaskState.RUNNABLE"),
    ]


def test_per_event_packages_bind_enum_members_once():
    enums = enum_classes()
    hits = []
    for package in HOT_PACKAGES:
        for path in sorted((ROOT / package).rglob("*.py")):
            for line, text in member_lookups(path.read_text(), enums):
                hits.append(f"{path.relative_to(ROOT.parent)}:{line}: {text}")
    assert not hits, (
        "enum member lookups in per-event function bodies; bind each "
        "member once as a module constant beside its enum and use that:\n"
        + "\n".join(hits)
    )
