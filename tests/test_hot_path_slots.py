"""No class under ``repro`` keeps 30 or more attributes in an instance dict,
and no frozen dataclass is built while the engine runs.

On CPython 3.11 an instance stores its attributes in a values array whose
keys it shares with the other instances of its class, but only up to 29
keys.  The 30th attribute turns the instance into an ordinary dict, and
from then on its attribute reads and writes run ``LOAD_ATTR_WITH_HINT``
and ``STORE_ATTR_WITH_HINT`` and its method loads ``LOAD_METHOD_WITH_DICT``
instead of the specialized instance-value forms: about 1.8x the cost of a
method call in a timeit loop.  ``Kernel`` (50 attributes) and ``Task``
(35) were past the line, on the per-event path.  So a class with that
many attributes declares ``__slots__`` (docs/performance.md, "Instance
dicts past 29 attributes (Python 3.11)").  This test keeps it so: for
every class defined under ``repro`` whose instances have a ``__dict__``,
it counts the ``self.<name>`` assignment targets in the methods of its
MRO, plus any dataclass fields, leaves out the names its MRO's
``__slots__`` hold, and fails, naming the class, at 30 or more.

A frozen dataclass's ``__init__`` sets each field through
``object.__setattr__``: about three times the cost of a slotted
dataclass's.  So no per-request or per-trace-point record is frozen
(docs/performance.md, "The heap entry is the event record");
:func:`test_no_frozen_dataclass_built_inside_engine_run` counts every
frozen dataclass constructed while ``Engine.run`` runs.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib
import inspect
import pkgutil
import textwrap

import repro
from repro.chaos import FaultEvent, InjectionPlan
from repro.chaos.invariants import InvariantChecker
from repro.config import vanilla_config
from repro.kernel.kernel import Kernel
from repro.prog.actions import Compute
from repro.sim.engine import Engine
from repro.sim.trace import TraceRecorder
from repro.workloads.memcached import MemcachedConfig, memcached_run
from repro.workloads.serving import SATURATION_RATE, open_loop_serve

MS = 1_000_000

#: Attributes an instance dict holds before 3.11 stops sharing its keys.
SHARED_KEYS_MAX = 29


def repro_classes() -> dict[str, type]:
    """Qualified name -> class, for every class defined under repro,
    nested classes included."""
    found: dict[str, type] = {}

    def visit(obj: object, module: str) -> None:
        for value in vars(obj).values():
            if (isinstance(value, type) and value.__module__ == module
                    and f"{module}.{value.__qualname__}" not in found):
                found[f"{module}.{value.__qualname__}"] = value
                visit(value, module)

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        visit(importlib.import_module(info.name), info.name)
    return found


def _flatten(target: ast.expr):
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _flatten(elt)
    elif isinstance(target, ast.Starred):
        yield from _flatten(target.value)
    else:
        yield target


def assigned_attributes(cls_node: ast.ClassDef) -> set[str]:
    """Names assigned as ``<first parameter>.<name>`` in the methods of
    one class body.  Static and class methods have no instance."""
    names: set[str] = set()
    for fn in cls_node.body:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not fn.args.args or any(
                isinstance(d, ast.Name) and d.id in ("staticmethod",
                                                     "classmethod")
                for d in fn.decorator_list):
            continue
        me = fn.args.args[0].arg
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for t in _flatten(target):
                    if (isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == me):
                        names.add(t.attr)
    return names


@functools.lru_cache(maxsize=None)
def own_attributes(cls: type) -> frozenset[str]:
    """The attributes one class (not its bases) gives its instances."""
    names: set[str] = set()
    if dataclasses.is_dataclass(cls):
        names.update(f.name for f in dataclasses.fields(cls))
    try:
        source = inspect.getsource(cls)
    except (OSError, TypeError):  # built in, or made at run time
        return frozenset(names)
    node = ast.parse(textwrap.dedent(source)).body[0]
    if isinstance(node, ast.ClassDef):
        names |= assigned_attributes(node)
    return frozenset(names)


def dict_attributes(cls: type) -> set[str]:
    """Attributes an instance of ``cls`` keeps in its ``__dict__``."""
    names: set[str] = set()
    slots: set[str] = set()
    for base in cls.__mro__:
        if base is object:
            continue
        names |= own_attributes(base)
        declared = base.__dict__.get("__slots__", ())
        slots.update((declared,) if isinstance(declared, str) else declared)
    return names - slots


def test_scanner_counts_assignment_targets_only():
    source = '''
class C:
    def __init__(me, x):
        me.a = x
        me.b, (me.c, *me.d) = 1, (2, 3, 4)
        me.e: int = 5
        me.f += 1
        me.a[0] = 6          # mutates a, assigns nothing
        other.g = 7          # not the instance

    def later(self):
        def inner():
            self.h = 8       # the method's instance, via a closure
        inner()

    @staticmethod
    def helper(task):
        task.i = 9

    @classmethod
    def make(cls):
        cls.j = 10
'''
    node = ast.parse(source).body[0]
    assert assigned_attributes(node) == {"a", "b", "c", "d", "e", "f", "h"}


def test_scanner_sees_the_per_event_classes():
    classes = repro_classes()
    kernel = classes["repro.kernel.kernel.Kernel"]
    task = classes["repro.kernel.task.Task"]
    assert len(own_attributes(kernel)) > SHARED_KEYS_MAX
    assert {"deadline", "vruntime", "state"} <= own_attributes(task)
    # Slotted, so nothing of theirs is left for a dict.
    assert dict_attributes(kernel) == set()
    assert dict_attributes(task) == set()


def test_no_instance_dict_past_29_attributes():
    crowded = []
    for name, cls in sorted(repro_classes().items()):
        if not cls.__dictoffset__:
            continue  # no instance dict
        attrs = dict_attributes(cls)
        if len(attrs) > SHARED_KEYS_MAX:
            crowded.append(f"{name}: {len(attrs)} attributes in its "
                           f"instance dict")
    assert not crowded, (
        f"past {SHARED_KEYS_MAX} attributes a 3.11 instance dict stops "
        "sharing its keys and every attribute access misses the "
        "specialized paths; declare __slots__ on:\n" + "\n".join(crowded)
    )


def test_kernel_and_a_spawned_task_have_no_instance_dict():
    def program():
        yield Compute(1_000)

    kernel = Kernel(vanilla_config(cores=1, seed=1))
    task = kernel.spawn(program(), name="t")
    kernel.run_to_completion()
    assert not hasattr(kernel, "__dict__")
    assert not hasattr(task, "__dict__")


def test_no_frozen_dataclass_built_inside_engine_run(monkeypatch):
    frozen = {name: cls for name, cls in repro_classes().items()
              if dataclasses.is_dataclass(cls)
              and cls.__dataclass_params__.frozen
              and "__init__" in vars(cls)}
    assert "repro.config.SimConfig" in frozen  # the scan sees them
    running = [0]
    built: dict[str, int] = {}
    seen = {"emit": 0, "check_now": 0}

    def counting(name: str, init):
        def __init__(self, *args, **kwargs):
            if running[0]:
                built[name] = built.get(name, 0) + 1
            init(self, *args, **kwargs)
        return __init__

    for name, cls in frozen.items():
        monkeypatch.setattr(cls, "__init__", counting(name, cls.__init__))

    run = Engine.run

    def counted_run(engine, *args, **kwargs):
        running[0] += 1
        try:
            return run(engine, *args, **kwargs)
        finally:
            running[0] -= 1

    monkeypatch.setattr(Engine, "run", counted_run)

    def tally(owner, method: str) -> None:
        inner = getattr(owner, method)

        def wrapper(self, *args, **kwargs):
            seen[method] += 1
            return inner(self, *args, **kwargs)
        monkeypatch.setattr(owner, method, wrapper)

    tally(TraceRecorder, "emit")
    tally(InvariantChecker, "check_now")

    # The chaos trace ring, the invariant checker and client retries are
    # all on: a worker dies with requests queued, and their timeouts
    # retry under the retry budget.
    plan = InjectionPlan(seed=7, events=(
        FaultEvent(4 * MS, "worker-crash", {"worker": 0, "dead_ns": 4 * MS}),
    ))
    r = open_loop_serve(
        vanilla_config(cores=4, seed=2021),
        rate=SATURATION_RATE * 0.5, duration_ms=12.0, warmup_ms=1.0,
        resilience="retry-budget", faults=plan,
    )
    stats = r["resilience"]["stats"]
    assert stats["worker_restarts"] == 1 and stats["retries"] > 0
    assert seen["emit"] > 0 and seen["check_now"] > 0
    memcached_run(vanilla_config(cores=4, seed=8),
                  MemcachedConfig(workers=4, connections=16),
                  duration_ms=10, warmup_ms=2)
    assert not built, (
        "a frozen dataclass's __init__ sets every field through "
        "object.__setattr__; give per-event records slots instead. "
        "Built inside Engine.run: " + ", ".join(
            f"{name} x{n}" for name, n in sorted(built.items()))
    )
