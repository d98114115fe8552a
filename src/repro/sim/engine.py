"""Discrete-event engine with an integer-nanosecond clock.

Events live in one binary heap of ``[time, seq, fn, args]`` entries,
where ``seq`` is a global schedule counter.  Keys are unique, so the heap
pops events in exactly ``(time, schedule order)`` and list comparison
never reaches ``fn``; every simulation is bit-reproducible for a fixed
seed.

The heap entry is the event record: ``schedule_at`` and ``schedule``
return the entry itself, and its owner cancels it with
:meth:`Engine.cancel`.  An entry is dead once it has fired or been
cancelled, and a dead entry has ``entry[2] is None``; cancelling a dead
entry is a no-op.  Cancellation is lazy: a cancelled entry stays in the
heap until it surfaces at the top, where the run loop and ``peek_time``
drop it for good.  A live-event counter keeps ``pending`` O(1), and the
heap is rebuilt without the cancelled entries once they outnumber the
live ones.

Run-ahead: a callback that knows its own next event may run it in place
instead of scheduling it, when the event's time ``t`` is strictly earlier
than the heap's top entry and no later than ``ahead_until``.  Such an
event would have been the very next one popped (an entry at the same
time was scheduled earlier and comes first), so the callback sets
``now = t``, counts it in ``events_run``, and carries on.  ``run()`` sets
``ahead_until`` to its ``until`` and clears it to -1 when it returns;
it stays -1 under ``max_events``, which must count every event (the
heap-only path the exactness tests compare against), and once
:meth:`Engine.stop` is pending.  ``on_event`` runs after heap events
only: an inline event has no hook call of its own, and the hook after
the heap event that ran it sees the state the heap-only path reaches
after the same events.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable

from ..errors import SimulationError

# The run-ahead bound of a run() with no ``until``: later than any event.
_FOREVER = 1 << 62


class Engine:
    """Event loop owning the simulated clock."""

    __slots__ = ("now", "heap", "_seq", "_live", "events_run", "on_event",
                 "ahead_until", "_stop")

    def __init__(self) -> None:
        self.now: int = 0
        # Read-only outside the engine: run-ahead callbacks compare with
        # the top entry's time, ``heap[0][0]`` (see the module docstring).
        self.heap: list[list] = []
        self._seq = 0  # global schedule counter: the heap's tie-breaker
        self._live = 0  # queued entries not cancelled
        self.events_run = 0
        # Post-event hook: called (no args) after each event popped from
        # the heap, not after inline ones.  Used by the chaos invariant
        # checker; must be installed before run().
        self.on_event: Callable[[], None] | None = None
        self.ahead_until = -1  # run-ahead bound; -1: run-ahead is off
        self._stop = False

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
        return sum(1 for entry in self.heap if entry[2] is not None)

    def queue_len(self) -> int:
        """Raw heap length, cancelled entries included."""
        return len(self.heap)

    def schedule_at(self, time: int, fn: Callable[..., Any], *args) -> list:
        """Queue ``fn(*args)`` at ``time``; returns the heap entry
        ``[time, seq, fn, args]``, which :meth:`cancel` takes."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        seq = self._seq = self._seq + 1
        # One list is the whole record: the single most-executed
        # allocation in a simulation.
        entry = [time, seq, fn, args]
        heappush(self.heap, entry)
        self._live += 1
        return entry

    def schedule(self, delay: int, fn: Callable[..., Any], *args) -> list:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, fn, *args)

    def cancel(self, entry: list) -> None:
        """Prevent a queued event's callback; a no-op on a dead entry
        (one that has fired or was cancelled)."""
        if entry[2] is None:
            return
        # Drop the references so a cancelled event does not pin large
        # objects while it waits to be popped from the heap.
        entry[2] = None
        entry[3] = ()
        self._live -= 1
        # Cancel-heavy workloads (slice-expiry churn, torn-down timers)
        # would otherwise grow the heap with entries that only wait to
        # be popped; drop them once they outnumber the live ones.
        n = len(self.heap)
        if n > 64 and self._live * 2 < n:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        The surviving entries keep their unique ``(time, seq)`` keys, so
        the pop order cannot change.  In-place on purpose: the ``run()``
        loop and run-ahead callbacks hold local aliases to the heap.
        """
        heap = self.heap
        heap[:] = [entry for entry in heap if entry[2] is not None]
        heapify(heap)

    def peek_time(self) -> int | None:
        """Time of the next live event, or None if the queue is empty.

        Cancelled entries on top of the heap are popped for good, so the
        heap top is the next live event and repeated calls are O(1)."""
        heap = self.heap
        while heap:
            entry = heap[0]
            if entry[2] is not None:
                return entry[0]
            heappop(heap)
        return None

    def stop(self) -> None:
        """Make the running :meth:`run` return once the current event's
        callback has finished; run-ahead is off from here on."""
        self._stop = True
        self.ahead_until = -1

    def step(self) -> bool:
        """Run the next live event. Returns False if none remain."""
        heap = self.heap
        while heap:
            entry = heappop(heap)
            fn = entry[2]
            if fn is not None:
                break
        else:
            return False
        self.now = entry[0]
        self.events_run += 1
        self._live -= 1
        # Mark it dead: a late cancel() is a no-op, and owners holding
        # the entry can see it needs no cancellation.
        entry[2] = None
        fn(*entry[3])
        cb = self.on_event
        if cb is not None:
            cb()
        return True

    def run(
        self, until: int | None = None, max_events: int | None = None
    ) -> None:
        """Run events until the queue drains, ``until`` passes, or a
        callback calls :meth:`stop`."""
        count = 0
        heap = self.heap
        # Hoisted: the hook contract is install-before-run.
        on_event = self.on_event
        self._stop = False
        if max_events is None:
            self.ahead_until = _FOREVER if until is None else until
        try:
            while True:
                if max_events is not None and count >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} at t={self.now}; "
                        "likely a livelock in the simulated system"
                    )
                # Inlined step(): pop the next live entry.
                while heap:
                    entry = heappop(heap)
                    t, _seq, fn, args = entry
                    if fn is not None:
                        break
                else:
                    # Queue empty or fully drained: the run still covers
                    # the whole [now, until] window, so advance the clock
                    # to the bound — same as the not-yet-due path below.
                    if until is not None and until > self.now:
                        self.now = until
                    return
                if until is not None and t > until:
                    # Not yet due: put the same entry back.  Its key is
                    # unique, so it keeps its place in the order.
                    heappush(heap, entry)
                    if until > self.now:
                        self.now = until
                    return
                self.now = t
                self.events_run += 1
                self._live -= 1
                entry[2] = None  # dead (see step())
                fn(*args)
                if on_event is not None:
                    on_event()
                if self._stop:
                    return
                count += 1
        finally:
            self.ahead_until = -1
            self._stop = False
