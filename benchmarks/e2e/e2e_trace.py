"""Outside-in layer tracing for the end-to-end benchmark.

The tracer attributes host time to the simulator's layers without
changing any file under ``src/``: it wraps public entry points from the
benchmark's side and restores them afterwards.

* ``Engine.schedule_at`` wraps every callback it is given, so each fired
  event is a span named after the callback's owner: an ``HrTimer`` by its
  ``name`` (``bwd.tick``, ``ple.tick``, ``balance.tick``), the kernel's
  per-CPU event as ``kernel.dispatch``, the three wake completions as
  ``kernel.wake_finish.{vanilla,vb,vb_placed}``, and other callbacks by
  module (``workload.clients``, ``resilience``, ...).
* ``Engine.run`` and the public ``Kernel`` methods ``__init__``,
  ``futex_wake``, ``futex_wait``, ``epoll_post`` and ``bwd_deschedule``
  are spans of their own.
* ``Kernel.spawn`` wraps each program in a proxy whose ``send`` is a
  ``workload.program`` span.
* The runner's per-spec entry point is a ``runner.spec`` span, which also
  tags raw spans with the spec id.

Spans are aggregated in memory as (count, inclusive time, child time) per
name; a span's self time is its duration minus the time its child spans
cover.  At most ``MAX_SPANS`` raw spans are kept: when the buffer fills,
every other kept span is dropped and the sampling stride doubles, so the
sample stays spread evenly over the whole run.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator

MAX_SPANS = 100_000

#: Kernel methods run as engine callbacks, by the bucket they report to.
KERNEL_EVENTS = {
    "_cpu_event": "kernel.dispatch",
    "_finish_wake_vanilla": "kernel.wake_finish.vanilla",
    "_finish_wake_vb": "kernel.wake_finish.vb",
    "_finish_wake_vb_placed": "kernel.wake_finish.vb_placed",
}

#: Public kernel methods timed as spans, by span name.
KERNEL_METHODS = {
    "__init__": "kernel.init",
    "futex_wake": "kernel.futex_wake",
    "futex_wait": "kernel.futex_wait",
    "epoll_post": "kernel.epoll_post",
    "bwd_deschedule": "bwd.deschedule",
}

#: Spans whose self time is the wake path.
WAKE_SPANS = (
    "kernel.futex_wake", "kernel.futex_wait", "kernel.epoll_post",
    "kernel.wake_finish.vanilla", "kernel.wake_finish.vb",
    "kernel.wake_finish.vb_placed",
)

_MISSING = object()


class Patches:
    """Attribute replacements that can be undone exactly."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


def _bucket_name(func: Any) -> str:
    module = getattr(func, "__module__", None) or ""
    qualname = getattr(func, "__qualname__", type(func).__name__)
    if module == "repro.kernel.kernel" and qualname.startswith("Kernel."):
        method = qualname.split(".", 1)[1]
        return KERNEL_EVENTS.get(method, "kernel." + method.lstrip("_"))
    package = module.split(".")[1] if module.startswith("repro.") else module
    if package == "workloads":
        return "workload.clients"
    if package == "resilience":
        return "resilience"
    return "event." + (package or "unknown")


class _TimedProgram:
    """A task program whose every ``send`` is a ``workload.program`` span."""

    __slots__ = ("_call", "_send")

    def __init__(self, tracer: "LayerTracer", program: Any) -> None:
        self._call = tracer.call
        self._send = program.send

    def send(self, value: Any) -> Any:
        return self._call("workload.program", self._send, value)


class LayerTracer:
    """Span aggregation plus the wrappers that feed it."""

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        #: span name -> [calls, inclusive ns, child ns]
        self.totals: dict[str, list[int]] = {}
        #: names of spans that are fired engine events
        self.event_names: set[str] = set()
        self.scheduled = 0
        self.spec_id = ""
        self.max_spans = max_spans
        #: kept raw spans: (spec, name, parent, start ns, duration ns, self ns)
        self.spans: list[tuple] = []
        self._seq = 0
        self._stride_mask = 0
        self._stack: list[list] = [["", 0]]  # open spans: [name, child ns]
        self._buckets: dict[Any, str] = {}
        self._hrtimer: type | None = None
        self._patches = Patches()
        self._t0 = perf_counter_ns()

    # -- spans ---------------------------------------------------------
    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` as a span called ``name``."""
        stack = self._stack
        parent = stack[-1]
        frame = [name, 0]
        stack.append(frame)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter_ns() - t0
            stack.pop()
            parent[1] += dur
            tot = self.totals.get(name)
            if tot is None:
                tot = self.totals[name] = [0, 0, 0]
            tot[0] += 1
            tot[1] += dur
            tot[2] += frame[1]
            seq = self._seq
            self._seq = seq + 1
            if not seq & self._stride_mask:
                self._keep(name, parent[0], t0, dur, dur - frame[1])

    def _keep(self, name: str, parent: str, t0: int, dur: int,
              self_ns: int) -> None:
        spans = self.spans
        spans.append((self.spec_id, name, parent, t0 - self._t0, dur, self_ns))
        if len(spans) >= self.max_spans:
            del spans[1::2]
            self._stride_mask = self._stride_mask * 2 + 1

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def inclusive_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, name: str) -> float:
        tot = self.totals.get(name, (0, 0, 0))
        return (tot[1] - tot[2]) / 1e9

    @property
    def events(self) -> int:
        return sum(self.calls(name) for name in self.event_names)

    # -- wrappers ------------------------------------------------------
    def _bucket(self, fn: Any) -> str:
        owner = getattr(fn, "__self__", None)
        # Timers share HrTimer._fire, so a timer is keyed by its name.
        key = (owner.name if type(owner) is self._hrtimer
               else getattr(fn, "__func__", fn))
        name = self._buckets.get(key)
        if name is None:
            name = key + ".tick" if isinstance(key, str) else _bucket_name(key)
            self._buckets[key] = name
            self.event_names.add(name)
        return name

    def _install(self) -> None:
        from repro.kernel.hrtimer import HrTimer
        from repro.kernel.kernel import Kernel
        from repro.runners import parallel
        from repro.sim.engine import Engine

        self._hrtimer = HrTimer
        patch = self._patches.patch
        call = self.call
        tracer = self

        schedule_at = Engine.schedule_at

        def traced_schedule_at(engine, time, fn, *args):
            tracer.scheduled += 1
            return schedule_at(
                engine, time, functools.partial(call, tracer._bucket(fn), fn),
                *args)

        patch(Engine, "schedule_at", traced_schedule_at)

        def span(name: str, fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return call(name, fn, *args, **kwargs)
            return wrapper

        patch(Engine, "run", span("engine.run", Engine.run))
        for method, name in KERNEL_METHODS.items():
            patch(Kernel, method, span(name, getattr(Kernel, method)))

        spawn = Kernel.spawn

        def traced_spawn(kernel, program, *args, **kwargs):
            if hasattr(program, "send"):
                program = _TimedProgram(tracer, program)
            return spawn(kernel, program, *args, **kwargs)

        patch(Kernel, "spawn", traced_spawn)

        execute = parallel.execute_spec_timed

        def traced_execute(payload, *args, **kwargs):
            tracer.spec_id = payload["id"]
            return call("runner.spec", execute, payload, *args, **kwargs)

        patch(parallel, "execute_spec_timed", traced_execute)

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap the entry points for the duration of the block."""
        try:
            self._install()
            yield self
        finally:
            self._patches.restore()

    def write_spans(self, path: str) -> None:
        """Write the kept raw spans as JSON lines (one write, at the end)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        keys = ("spec", "name", "parent", "start_ns", "dur_ns", "self_ns")
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(json.dumps(dict(zip(keys, s))) + "\n"
                         for s in self.spans)


def span_cost_ns(rounds: int = 5, spans: int = 40_000) -> float:
    """Host cost of one span: the median over ``rounds`` tight loops of
    empty spans, less the same loop without the tracer."""
    def noop() -> None:
        return None

    tracer = LayerTracer()
    costs = []
    for _ in range(rounds):
        t0 = perf_counter_ns()
        for _ in range(spans):
            noop()
        bare = perf_counter_ns() - t0
        t0 = perf_counter_ns()
        for _ in range(spans):
            tracer.call("calibrate", noop)
        costs.append((perf_counter_ns() - t0 - bare) / spans)
    return statistics.median(costs)


class CycleCounters:
    """Sums the C kernel cycle's ``counters()`` over every kernel built
    while installed (``--backend fast``); harvested after each spec so no
    kernel outlives its spec."""

    def __init__(self) -> None:
        self.fast_events = 0
        self.bailouts = 0
        self._kernels: list = []
        self._patches = Patches()

    def _harvest(self) -> None:
        for kernel in self._kernels:
            cycle = getattr(kernel, "_cycle", None)
            if cycle is not None:
                c = cycle.counters()
                self.fast_events += c["fast_events"]
                self.bailouts += c["bailouts"]
        self._kernels.clear()

    @contextmanager
    def installed(self) -> Iterator["CycleCounters"]:
        from repro.kernel.kernel import Kernel
        from repro.runners import parallel

        init = Kernel.__init__
        execute = parallel.execute_spec_timed
        kernels = self._kernels

        def counted_init(kernel, *args, **kwargs):
            init(kernel, *args, **kwargs)
            kernels.append(kernel)

        def harvested_execute(*args, **kwargs):
            try:
                return execute(*args, **kwargs)
            finally:
                self._harvest()

        self._patches.patch(Kernel, "__init__", counted_init)
        self._patches.patch(parallel, "execute_spec_timed", harvested_execute)
        try:
            yield self
        finally:
            self._patches.restore()
            self._harvest()
