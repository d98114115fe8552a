"""Discrete-event engine with an integer-nanosecond clock.

Events live in one binary heap of ``(time, seq, handle)`` entries, where
``seq`` is a global schedule counter.  Entries are unique, so the heap
pops events in exactly ``(time, schedule order)`` and tuple comparison
never reaches the handle; every simulation is bit-reproducible for a
fixed seed.

Cancellation is lazy: :class:`EventHandle` carries a ``cancelled`` flag,
and a cancelled entry stays in the heap until it surfaces at the top,
where the run loop and ``peek_time`` drop it for good.  A live-event
counter keeps ``pending`` O(1), and the heap is rebuilt without the
cancelled entries once they outnumber the live ones.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from time import monotonic
from typing import Any, Callable

from ..errors import SimulationError, SoftTimeoutError

# ---------------------------------------------------------------------------
# Soft wall-clock deadline (SIGALRM fallback)
# ---------------------------------------------------------------------------
# ``signal.SIGALRM``/``setitimer`` do not exist on every platform and never
# fire in non-main threads, so an in-worker alarm can silently vanish and a
# spec runs unbounded.  As a portable backstop the run loop polls this
# module-level deadline every ``_SOFT_DEADLINE_MASK + 1`` events and raises
# :class:`SoftTimeoutError` once it passes.  The poll only covers simulated
# work (an engine must be running events); host-level sleeps still need a
# real alarm.  Process-global by design: one spec runs per worker process.

_SOFT_DEADLINE: float | None = None
_SOFT_DEADLINE_MASK = 1023  # poll every 1024 events; keeps the hot loop cheap


def set_soft_deadline(timeout_s: float) -> None:
    """Arm a wall-clock deadline ``timeout_s`` seconds from now."""
    global _SOFT_DEADLINE
    _SOFT_DEADLINE = monotonic() + timeout_s


def clear_soft_deadline() -> None:
    """Disarm the soft deadline (idempotent)."""
    global _SOFT_DEADLINE
    _SOFT_DEADLINE = None


class EventHandle:
    """Handle to a scheduled event; ``cancel()`` prevents its callback."""

    __slots__ = ("time", "fn", "args", "cancelled", "_engine")

    def __init__(
        self,
        time: int,
        fn: Callable[..., Any],
        args: tuple,
        engine: "Engine | None" = None,
    ):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        # The owning engine keeps a live-event counter so ``pending`` is
        # O(1); tell it this event will never fire.  ``_engine`` is cleared
        # once the event fires, so a late cancel() cannot double-decrement.
        engine = self._engine
        self._engine = None
        if engine is not None:
            engine._live -= 1
            # Cancel-heavy workloads (slice-expiry churn, torn-down
            # timers) would otherwise grow the heap with entries that
            # only wait to be popped; drop them once they outnumber the
            # live ones.
            n = len(engine._heap)
            if n > 64 and engine._live * 2 < n:
                engine._compact()
        # Drop references so cancelled events do not pin large objects
        # while they wait to be popped from the heap.
        self.fn = _noop
        self.args = ()


def _noop(*_args) -> None:  # pragma: no cover - trivial
    return None


_new_handle = EventHandle.__new__


class Engine:
    """Event loop owning the simulated clock."""

    __slots__ = ("now", "_heap", "_seq", "_live", "_events_run", "on_event")

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[tuple[int, int, EventHandle]] = []
        self._seq = 0  # global schedule counter: the heap's tie-breaker
        self._live = 0  # queued entries not cancelled
        self._events_run = 0
        # Post-event hook: called (no args) after each fired event.  Used
        # by the chaos invariant checker; must be installed before run().
        self.on_event: Callable[[], None] | None = None

    @property
    def events_run(self) -> int:
        return self._events_run

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still in the queue (O(1):
        a live counter maintained on schedule/cancel/fire, so kernels that
        poll it do not go quadratic in long runs)."""
        return self._live

    def recount_live(self) -> int:
        """From-scratch count of not-yet-cancelled queued events.

        O(queue) — used by the invariant checker to cross-check the O(1)
        ``pending`` counter; never called on the hot path.
        """
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def queue_len(self) -> int:
        """Raw heap length, cancelled entries included."""
        return len(self._heap)

    def schedule_at(self, time: int, fn: Callable[..., Any], *args) -> EventHandle:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        # Build the handle without the __init__ call frame — this is the
        # single most-executed allocation in a simulation.
        handle = _new_handle(EventHandle)
        handle.time = time
        handle.fn = fn
        handle.args = args
        handle.cancelled = False
        handle._engine = self
        seq = self._seq = self._seq + 1
        heappush(self._heap, (time, seq, handle))
        self._live += 1
        return handle

    def schedule(self, delay: int, fn: Callable[..., Any], *args) -> EventHandle:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, fn, *args)

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        The surviving entries keep their unique ``(time, seq)`` keys, so
        the pop order cannot change.  In-place on purpose: the ``run()``
        loop holds a local alias to the heap.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapify(heap)

    def peek_time(self) -> int | None:
        """Time of the next live event, or None if the queue is empty.

        Cancelled entries on top of the heap are popped for good, so the
        heap top is the next live event and repeated calls are O(1)."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[2].cancelled:
                return entry[0]
            heappop(heap)
        return None

    def step(self) -> bool:
        """Run the next live event. Returns False if none remain."""
        heap = self._heap
        while heap:
            time, _seq, handle = heappop(heap)
            if not handle.cancelled:
                break
        else:
            return False
        self.now = time
        self._events_run += 1
        self._live -= 1
        # Mark consumed: a late cancel() is a no-op, and owners holding the
        # handle can see it needs no cancellation (one flag test, no call).
        handle.cancelled = True
        handle._engine = None
        handle.fn(*handle.args)
        cb = self.on_event
        if cb is not None:
            cb()
        return True

    def run(
        self,
        until: int | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> None:
        """Run events until the queue drains, ``until`` passes, or
        ``stop_when()`` becomes true (checked between events)."""
        count = 0
        heap = self._heap
        # Hoisted: the hook contract is install-before-run.
        on_event = self.on_event
        while True:
            if stop_when is not None and stop_when():
                return
            if max_events is not None and count >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} at t={self.now}; "
                    "likely a livelock in the simulated system"
                )
            if (count & _SOFT_DEADLINE_MASK) == 0 and _SOFT_DEADLINE is not None:
                if monotonic() > _SOFT_DEADLINE:
                    raise SoftTimeoutError(
                        f"soft deadline expired at t={self.now} "
                        f"after {self._events_run} events"
                    )
            # Inlined step(): pop the next live entry.
            while heap:
                t, seq, handle = heappop(heap)
                if not handle.cancelled:
                    break
            else:
                # Queue empty or fully drained: the run still covers the
                # whole [now, until] window, so advance the clock to the
                # bound — same as the not-yet-due path below.
                if until is not None and until > self.now:
                    self.now = until
                return
            if until is not None and t > until:
                # Not yet due: put it back.  Its key is unique, so it
                # keeps its place in the order.
                heappush(heap, (t, seq, handle))
                if until > self.now:
                    self.now = until
                return
            self.now = t
            self._events_run += 1
            self._live -= 1
            handle.cancelled = True  # consumed (see step())
            handle._engine = None
            handle.fn(*handle.args)
            if on_event is not None:
                on_event()
            count += 1
