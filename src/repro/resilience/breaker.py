"""Per-tenant circuit breaker: closed / open / half-open.

The breaker watches a rolling ring of request outcomes.  In CLOSED state
requests flow; once the windowed failure rate crosses the threshold (with
a minimum sample count, so a cold start cannot trip it) the breaker
OPENs: every send is rejected at the client for ``open_ms`` — the fast
failure that lets a collapsing server drain.  After the dead time the
breaker goes HALF_OPEN and admits a fixed number of *probe* requests;
the serving layer marks probes ``degraded`` so the server can answer
them with a cheaper payload variant (the graceful-degradation hook).
All probes succeeding re-CLOSEs the breaker; any probe failing re-OPENs
it for another dead time.

Deterministic by construction: transitions depend only on simulated time
and the outcome sequence — the breaker draws no randomness.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from .policy import ResiliencePolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel

MS = 1_000_000

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: send() verdicts
ALLOW = "allow"
PROBE = "probe"
REJECT = "reject"


class CircuitBreaker:
    """One tenant's breaker state machine."""

    def __init__(self, kernel: "Kernel", policy: ResiliencePolicy,
                 tenant: str = "serve"):
        self.kernel = kernel
        self.policy = policy
        self.tenant = tenant
        self.state = CLOSED
        self._ring: deque[bool] = deque(maxlen=policy.breaker_window)
        self._open_until = 0
        self._probes_in_flight = 0
        self._probes_ok = 0
        # transition counters (exported in the resilience result block)
        self.opened = 0
        self.reclosed = 0
        self.half_opened = 0
        self.rejected = 0

    # -- send-side gate ----------------------------------------------
    def admit(self) -> str:
        """Verdict for one send: ALLOW, PROBE (degraded), or REJECT."""
        now = self.kernel.engine.now
        if self.state == OPEN and now >= self._open_until:
            self._enter_half_open()
        if self.state == CLOSED:
            return ALLOW
        if self.state == HALF_OPEN:
            if self._probes_in_flight < self.policy.breaker_probes:
                self._probes_in_flight += 1
                return PROBE
            self.rejected += 1
            return REJECT
        self.rejected += 1
        return REJECT

    # -- outcome feed -------------------------------------------------
    def record(self, ok: bool, probe: bool = False) -> None:
        now = self.kernel.engine.now
        if probe and self.state == HALF_OPEN:
            if not ok:
                self._trip(now)
                return
            self._probes_ok += 1
            if self._probes_ok >= self.policy.breaker_probes:
                self._close()
            return
        if self.state != CLOSED:
            # Stragglers from before the trip: they must not flap the
            # half-open verdict, only probes decide it.
            return
        self._ring.append(ok)
        p = self.policy
        if len(self._ring) < p.breaker_min_samples:
            return
        failures = sum(1 for o in self._ring if not o)
        if failures * 100.0 >= p.breaker_failure_pct * len(self._ring):
            self._trip(now)

    # -- transitions --------------------------------------------------
    def _trip(self, now: int) -> None:
        self.state = OPEN
        self.opened += 1
        self._open_until = now + int(self.policy.breaker_open_ms * MS)
        self._ring.clear()
        self._probes_in_flight = 0
        self._probes_ok = 0
        self._emit("open")

    def _enter_half_open(self) -> None:
        self.state = HALF_OPEN
        self.half_opened += 1
        self._probes_in_flight = 0
        self._probes_ok = 0
        self._emit("half-open")

    def _close(self) -> None:
        self.state = CLOSED
        self.reclosed += 1
        self._ring.clear()
        self._emit("closed")

    def _emit(self, state: str) -> None:
        trace = self.kernel.trace
        if trace.enabled:
            trace.emit(self.kernel.now, "breaker-" + state, -1, None,
                       tenant=self.tenant)

    # -- results ------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "state": self.state,
            "opened": self.opened,
            "half_opened": self.half_opened,
            "reclosed": self.reclosed,
            "rejected": self.rejected,
        }
