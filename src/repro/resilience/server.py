"""Server-side guard: admission control and serving-layer chaos hooks.

One :class:`ServerGuard` fronts one epoll worker pool.  It does two jobs:

* **admission control** (:meth:`admit` at submit time, :meth:`serve_ok`
  at dequeue time) implementing the policy's bounded accept queue —
  ``fail-fast`` reject, silent ``tail-drop``, CoDel-style sojourn-time
  shedding — plus priority-aware shedding (low-priority connection
  classes shed first once the queue passes half its bound);
* the **serving-side of chaos faults**: the
  :class:`~repro.chaos.controller.ChaosController` calls
  :meth:`crash_worker` / :meth:`slow_down` / :meth:`drop_connections`
  when a plan's ``worker-crash`` / ``tenant-slowdown`` / ``conn-drop``
  event fires; the worker generators in
  :mod:`repro.workloads.serving` consult the guard's flags.

The guard is only constructed when a resilience policy or a fault plan
is active, so default serving runs carry no guard at all (and stay
byte-identical to the pre-resilience implementation).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable

from .policy import ResiliencePolicy
from .recovery import ResilienceStats

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.epoll import EpollInstance
    from ..kernel.kernel import Kernel

US = 1_000

#: admit() verdicts
ADMIT = "admit"
REJECT = "reject"   #: fail-fast: the client is told immediately
DROP = "drop"       #: tail-drop: silent; the client's timeout finds out


class ServerGuard:
    """Admission control + chaos flags for one epoll worker pool."""

    def __init__(
        self,
        kernel: "Kernel",
        policy: ResiliencePolicy | None,
        epolls: list["EpollInstance"],
        stats: ResilienceStats,
    ):
        self.kernel = kernel
        self.policy = policy
        self.epolls = epolls
        self.stats = stats
        self.workers = len(epolls)
        #: set by the serving driver: respawn(i) re-spawns worker i
        self.respawn: Callable[[int], None] | None = None
        # worker-crash state: a pending crash takes effect at the
        # worker's next epoll dispatch; dead time runs from that moment.
        self._crash_pending: dict[int, int] = {}  # worker -> dead_ns
        # tenant-slowdown windows: (until_ns, factor)
        self._slowdowns: list[tuple[int, float]] = []

    def attach(self, epolls: list) -> None:
        """Late-bind the epoll list (the pool is spawned with the guard
        already in scope, so construction order is circular)."""
        self.epolls = epolls
        self.workers = len(epolls)

    # ==================================================================
    # Admission control
    # ==================================================================
    def admit(self, req: Any, ep: "EpollInstance") -> str:
        """Submit-time verdict for one request against its target queue."""
        p = self.policy
        if p is None or not p.admission_active:
            return ADMIT
        depth = len(ep)
        if (
            p.priority_classes > 1
            and depth * 2 >= p.queue_limit
            and req.conn % p.priority_classes != 0
        ):
            self.stats.shed_priority += 1
            return REJECT
        if p.admission in ("fail-fast", "tail-drop") and depth >= p.queue_limit:
            self.stats.shed_queue += 1
            return REJECT if p.admission == "fail-fast" else DROP
        return ADMIT

    # CoDel state (shared across the worker pool — one server, one queue
    # discipline).  Simplified single-flow CoDel: once the dequeue-time
    # sojourn stays above target for a full interval, enter dropping
    # mode and shed with the classic interval/sqrt(count) cadence until
    # a dequeue comes in under target.
    _first_above_ns: int | None = None
    _dropping = False
    _drop_next_ns = 0
    _drop_count = 0

    def serve_ok(self, req: Any, now: int) -> bool:
        """Dequeue-time verdict: False means shed this request."""
        p = self.policy
        if p is None or p.admission != "codel":
            return True
        target = int(p.codel_target_us * US)
        interval = int(p.codel_interval_us * US)
        enqueued = req.enqueue_ns
        sojourn = now - (req.arrival_ns if enqueued is None else enqueued)
        if sojourn < target:
            self._first_above_ns = None
            self._dropping = False
            return True
        if self._first_above_ns is None:
            self._first_above_ns = now + interval
            return True
        if not self._dropping:
            if now < self._first_above_ns:
                return True
            self._dropping = True
            self._drop_count = 1
            self._drop_next_ns = now + interval
            self.stats.shed_codel += 1
            return False
        if now >= self._drop_next_ns:
            self._drop_count += 1
            self._drop_next_ns = now + int(
                interval / math.sqrt(self._drop_count)
            )
            self.stats.shed_codel += 1
            return False
        return True

    # ==================================================================
    # Serving-layer chaos faults (called by the ChaosController)
    # ==================================================================
    def pick_worker(self, rng) -> int:
        return int(rng.integers(0, self.workers))

    def crash_worker(self, idx: int, dead_ns: int) -> None:
        """Mark worker ``idx`` to crash at its next epoll dispatch."""
        idx %= self.workers
        self._crash_pending[idx] = int(dead_ns)
        # The victim may be parked in epoll_wait; wake it with an empty
        # batch (exactly like an epoll-spurious fault) so the crash
        # takes effect now rather than at the next request.
        k = self.kernel
        ep = self.epolls[idx]
        if k.futex_table.waiter_count(ep) > 0:
            k.futex_wake(None, ep, 1, result=[])

    def worker_crashes_now(self, idx: int) -> bool:
        return idx in self._crash_pending

    def note_crash(self, idx: int, batch: list) -> None:
        """Account a crash taking effect; schedules the restart."""
        dead_ns = self._crash_pending.pop(idx)
        self.stats.crash_lost += len(batch)
        k = self.kernel
        if k.trace.enabled:
            k.trace.emit(k.now, "resil-worker-dead", -1, None,
                         worker=idx, dead_ns=dead_ns, lost=len(batch))
        if self.respawn is not None:
            restart = self.respawn

            def _restart(i: int = idx) -> None:
                self.stats.worker_restarts += 1
                if k.trace.enabled:
                    k.trace.emit(k.now, "resil-worker-restart", -1, None,
                                 worker=i)
                restart(i)

            k.engine.schedule(max(1, dead_ns), _restart)

    def slow_down(self, factor: float, duration_ns: int) -> None:
        now = self.kernel.now
        self._slowdowns.append((now + int(duration_ns), float(factor)))

    def work_scale(self, now: int) -> float:
        """Current tenant-slowdown multiplier (1.0 when none active)."""
        scale = 1.0
        for until, factor in self._slowdowns:
            if now <= until:
                scale *= factor
        return scale

    def drop_connections(self, count: int, rng) -> int:
        """Drop up to ``count`` queued requests (oldest first, random
        epoll among the non-empty ones).  Returns how many were lost."""
        dropped = 0
        for _ in range(count):
            loaded = [ep for ep in self.epolls if len(ep)]
            if not loaded:
                break
            ep = loaded[int(rng.integers(0, len(loaded)))]
            ep.pending.popleft()
            dropped += 1
        self.stats.conn_dropped += dropped
        return dropped
