"""Bounded, filterable event tracing.

The kernel emits trace points (context switches, wakeups, migrations, BWD
detections, futex contention, ...) through a :class:`TraceRecorder`.
Recording is off by default — the metrics collector consumes counters
instead — but tests, the examples, and the ``trace``/``--trace`` CLI paths
turn it on to capture full scheduling timelines.

The recorder is a ring buffer: a long run records the *last* ``capacity``
events and counts what it dropped, so tracing a multi-minute simulation
cannot exhaust memory.  Raw events can be paired into *spans* (a task's
time on CPU between dispatch and preemption, a park→wake blocked window,
a BWD spin window ending in a deschedule) and exported as JSONL or Chrome
``trace_event`` JSON for Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator

#: Default ring capacity — at ~90 bytes/event this bounds a fully-traced
#: run to low hundreds of MB even in the pathological case.
DEFAULT_CAPACITY = 1_000_000

#: Event kinds that end the current task's occupancy of a CPU.
_RUN_CLOSERS = frozenset(
    {"dispatch", "park", "exit", "preempt", "bwd-deschedule"}
)


@dataclass(slots=True)
class TraceEvent:
    # Treated as immutable; not ``frozen`` because the frozen __init__
    # (object.__setattr__ per field) runs once per emitted trace point.
    time: int
    kind: str
    cpu: int
    task: str | None
    detail: dict[str, Any]


@dataclass(frozen=True)
class Span:
    """A derived interval: ``[start, end)`` of ``task`` doing ``kind``."""

    kind: str  # "run" | "blocked" | "bwd-spin"
    cpu: int
    task: str | None
    start: int
    end: int
    end_kind: str  # the event kind that closed the span
    detail: dict[str, Any]

    @property
    def duration(self) -> int:
        return self.end - self.start


class TraceRecorder:
    """Collects :class:`TraceEvent` records in a bounded ring buffer."""

    def __init__(
        self,
        enabled: bool = False,
        kinds: set[str] | None = None,
        capacity: int = DEFAULT_CAPACITY,
    ):
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self.enabled = enabled
        self.kinds = kinds  # None = record everything
        self.capacity = capacity
        self.events: deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0

    def emit(
        self,
        time: int,
        kind: str,
        cpu: int,
        task: str | None = None,
        **detail: Any,
    ) -> None:
        if not self.enabled:
            return
        if self.kinds is not None and kind not in self.kinds:
            return
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(TraceEvent(time, kind, cpu, task, detail))

    def of_kind(self, kind: str) -> Iterator[TraceEvent]:
        return (e for e in self.events if e.kind == kind)

    def count(self, kind: str | None = None) -> int:
        if kind is None:
            return len(self.events)
        return sum(1 for e in self.events if e.kind == kind)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    # -----------------------------------------------------------------
    # span derivation
    # -----------------------------------------------------------------
    def run_spans(self) -> list[Span]:
        """Per-CPU occupancy intervals: dispatch → next dispatch/park/
        exit/preempt/bwd-deschedule on the same CPU.  Spans still open at
        the end of the buffer are closed at the last recorded time."""
        open_by_cpu: dict[int, TraceEvent] = {}
        spans: list[Span] = []
        last_time = 0
        for e in self.events:
            last_time = e.time
            if e.kind == "dispatch" or (
                e.kind in _RUN_CLOSERS and e.cpu in open_by_cpu
            ):
                prev = open_by_cpu.pop(e.cpu, None)
                if prev is not None and e.time > prev.time:
                    spans.append(
                        Span("run", prev.cpu, prev.task, prev.time,
                             e.time, e.kind, prev.detail)
                    )
            if e.kind == "dispatch":
                open_by_cpu[e.cpu] = e
        for prev in open_by_cpu.values():
            if last_time > prev.time:
                spans.append(
                    Span("run", prev.cpu, prev.task, prev.time,
                         last_time, "eof", prev.detail)
                )
        spans.sort(key=lambda s: (s.start, s.cpu))
        return spans

    def block_spans(self) -> list[Span]:
        """Per-task blocked windows: park → wake of the same task."""
        open_by_task: dict[str, TraceEvent] = {}
        spans: list[Span] = []
        for e in self.events:
            if e.kind == "park" and e.task is not None:
                open_by_task[e.task] = e
            elif e.kind == "wake" and e.task in open_by_task:
                p = open_by_task.pop(e.task)
                spans.append(
                    Span("blocked", p.cpu, e.task, p.time, e.time,
                         "wake", {**p.detail, **e.detail})
                )
        return spans

    def bwd_spans(self) -> list[Span]:
        """Spin windows ending in a BWD deschedule, synthesized from the
        ``spin_ns`` detail of each ``bwd-deschedule`` event."""
        spans = []
        for e in self.events:
            if e.kind == "bwd-deschedule":
                spin = int(e.detail.get("spin_ns", 0))
                if spin > 0:
                    spans.append(
                        Span("bwd-spin", e.cpu, e.task, e.time - spin,
                             e.time, "bwd-deschedule", e.detail)
                    )
        return spans

    # -----------------------------------------------------------------
    # exporters
    # -----------------------------------------------------------------
    def to_csv(self, path: str) -> int:
        """Dump the recorded events as CSV; returns the row count.

        The detail column is a JSON object — values containing ``;`` or
        ``=`` survive round-tripping (the old ``k=v;k=v`` encoding did
        not).
        """
        import csv
        import json

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time_ns", "kind", "cpu", "task", "detail"])
            for e in self.events:
                w.writerow(
                    [e.time, e.kind, e.cpu, e.task or "",
                     json.dumps(e.detail, sort_keys=True,
                                separators=(",", ":"))]
                )
        return len(self.events)

    def to_jsonl(self, path: str, meta: dict[str, Any] | None = None) -> int:
        from ..obs.export import write_jsonl

        return write_jsonl(self, path, meta)

    def to_chrome(self, path: str) -> int:
        from ..obs.export import write_chrome

        return write_chrome(self, path)
