"""Backend-parity harness: replay identical inputs through both hot
cores and return everything an assertion needs to prove they agree.

Two levels of replay:

* :func:`replay_engine_ops` drives a single engine through a scripted
  sequence of schedule/cancel/run operations — including scheduling and
  cancelling *from inside callbacks* — and records the full observable
  trace: every fired event ``(time, tag)`` plus a clock/pending/
  events_run snapshot after each op.  :func:`engine_parity` runs the
  same script through every available engine implementation (the
  reference heap and, when it compiles, the C core).

* :func:`kernel_trace_parity` builds and runs the same simulated
  scenario once per backend with the trace recorder on, returning each
  backend's complete trace stream (time, kind, cpu, task, detail) for
  structural comparison.

``tests/test_fastpath.py`` feeds both with hypothesis-generated
schedules; any divergence between backends fails with the first
mismatching record.
"""

from __future__ import annotations

from typing import Any, Callable

from . import current_backend, set_backend
from ..sim.trace import TraceRecorder

#: Ops understood by :func:`replay_engine_ops`:
#:   ("schedule", delay, tag)   schedule at now+delay
#:   ("cancel", i)              cancel the i-th issued handle (mod count)
#:   ("run_until", dt)          run(until=now+dt)
#:   ("step",)                  fire exactly one event, if any
EngineOp = tuple


def engine_backends() -> list[tuple[str, Callable[[], Any]]]:
    """Every engine implementation importable in this process."""
    from ..sim.engine import Engine

    backends: list[tuple[str, Callable[[], Any]]] = [("pure", Engine)]
    from .build import load_fastcore

    core = load_fastcore()
    if core is not None:
        backends.append(("fastcore", core.FastEngine))
    return backends


def replay_engine_ops(engine, ops: list[EngineOp]) -> dict:
    """Drive ``engine`` through ``ops``; return the observable trace."""
    log: list[tuple[int, int]] = []
    handles: list[Any] = []
    snapshots: list[tuple] = []

    def fire(tag: int) -> None:
        log.append((engine.now, tag))
        # Deterministic in-callback behavior keyed off the tag so every
        # engine sees identical re-entrant scheduling and cancellation.
        if tag % 3 == 0:
            handles.append(
                engine.schedule(tag % 7 + 1, fire, tag + 10_000)
            )
        if tag % 5 == 0 and handles:
            handles[tag % len(handles)].cancel()

    for op in ops:
        kind = op[0]
        if kind == "schedule":
            handles.append(engine.schedule(op[1], fire, op[2]))
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif kind == "run_until":
            engine.run(until=engine.now + op[1])
        elif kind == "step":
            engine.step()
        else:  # pragma: no cover - script bug
            raise ValueError(f"unknown op {op!r}")
        snapshots.append(
            (engine.now, engine.pending, engine.events_run,
             engine.peek_time())
        )
    # Drain whatever is left so the comparison covers the full stream.
    engine.run()
    snapshots.append((engine.now, engine.pending, engine.events_run))
    return {"log": log, "snapshots": snapshots}


def engine_parity(ops: list[EngineOp]) -> dict[str, dict]:
    """The same op script through every engine; keyed by backend name."""
    return {
        name: replay_engine_ops(factory(), ops)
        for name, factory in engine_backends()
    }


def kernel_trace_parity(
    scenario: Callable[[Any], None],
    horizon_ns: int,
    config=None,
    backends: tuple[str, ...] = ("pure", "fast"),
) -> dict[str, list[tuple]]:
    """Run ``scenario`` under each backend; return full trace streams.

    ``scenario(kernel)`` spawns the workload.  Each run gets a fresh
    kernel built under that backend with tracing on; the returned
    streams are plain tuples so a failed comparison prints the first
    divergent record.
    """
    from ..config import vanilla_config
    from ..kernel.kernel import Kernel

    prev = current_backend()
    streams: dict[str, list[tuple]] = {}
    try:
        for backend in backends:
            set_backend(backend)
            cfg = config if config is not None else vanilla_config(seed=2021)
            trace = TraceRecorder(enabled=True)
            kernel = Kernel(cfg, trace=trace)
            scenario(kernel)
            kernel.run_for(horizon_ns)
            kernel.shutdown()
            streams[backend] = [
                (e.time, e.kind, e.cpu, e.task, tuple(sorted(e.detail.items())))
                for e in trace.events
            ]
    finally:
        set_backend(prev)
    return streams
