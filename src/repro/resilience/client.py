"""Client-side resilience: timeouts, budgeted retries, breaker gating.

:class:`ResilientClients` sits between the load generator and the
server's ingress.  The generator hands it *original* requests; the layer
dispatches *attempts* (the original, then retries with fresh connection
ids so they re-route around a crashed worker), arms a timeout per
attempt, and settles each logical request exactly once — first
completion wins, later ones count as ``duplicates``.

Retries follow seeded exponential backoff with jitter on a dedicated
RNG substream (``<rng_name>.retry``), created only when the client layer
is active so inactive runs consume no extra randomness.  The per-tenant
retry *budget* is the Finagle rule: every original send deposits
``retry_budget_pct/100`` tokens (capped), every retry withdraws one —
under collapse the budget drains and retries are denied instead of
amplifying the offered load.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..workloads.loadgen import ClientRequest
from .breaker import ALLOW, PROBE, REJECT, CircuitBreaker
from .policy import ResiliencePolicy
from .recovery import ResilienceStats, WindowSeries
from .server import ADMIT

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel

US = 1_000


class _Flight:
    """One logical request and the attempts dispatched for it."""

    __slots__ = ("orig", "attempts", "settled")

    def __init__(self, orig: ClientRequest):
        self.orig = orig
        self.attempts = 0   # dispatched or scheduled, including the original
        self.settled = False


class ResilientClients:
    """Timeout/retry/breaker front for one tenant's load generator.

    ``transport(request)`` is the admission-checked server ingress; it
    returns the admit verdict so fail-fast rejections surface to the
    retry logic synchronously.  ``on_fail(original)`` tells the load
    generator a logical request gave up for good (a closed-loop client
    re-arms the connection; an open-loop client just books the failure).
    """

    def __init__(
        self,
        kernel: "Kernel",
        policy: ResiliencePolicy,
        transport: Callable[[ClientRequest], str],
        stats: ResilienceStats,
        breaker: CircuitBreaker | None = None,
        series: WindowSeries | None = None,
        rng_name: str = "resil",
        workers: int = 1,
    ):
        self.kernel = kernel
        self.policy = policy
        self.transport = transport
        self.stats = stats
        self.breaker = breaker
        self.series = series
        self.on_fail: Callable[[ClientRequest], None] = lambda req: None
        self._timeout_ns = int(policy.timeout_us * US)
        # Retry conn ids step by priority_classes so a retry changes
        # worker (conn % workers) without changing priority class.
        self._stride = policy.priority_classes
        self._rng = kernel.rng_streams.stream(rng_name + ".retry")
        # attempt-id -> (flight, probe, request); the request reference
        # keeps id() unique while the attempt is outstanding.
        self._attempts: dict[int, tuple] = {}
        self._closed = False
        self.originals = 0
        self.attempts_sent = 0
        if policy.retry_budget_pct is not None:
            self._budget_rate = policy.retry_budget_pct / 100.0
            self._budget_cap = max(1.0, policy.retry_budget_pct)
        else:
            self._budget_rate = None
            self._budget_cap = 0.0
        self._tokens = 0.0

    # -- ingress (the load generator's submit) -------------------------
    def send(self, orig: ClientRequest) -> None:
        self.originals += 1
        if self._budget_rate is not None:
            self._tokens = min(self._budget_cap,
                               self._tokens + self._budget_rate)
        if self.series is not None:
            self.series.offer(self.kernel.engine.now)
        flight = _Flight(orig)
        flight.attempts = 1
        self._dispatch(flight, 0)

    # -- attempt lifecycle ---------------------------------------------
    def _dispatch(self, flight: _Flight, n: int) -> None:
        if self._closed or flight.settled:
            return
        probe = False
        if self.breaker is not None:
            verdict = self.breaker.admit()
            if verdict == REJECT:
                self.stats.breaker_rejected += 1
                self._retry_or_fail(flight)
                return
            probe = verdict == PROBE
        orig = flight.orig
        if n == 0:
            req = orig
        else:
            req = ClientRequest(orig.conn + n * self._stride,
                                orig.arrival_ns, orig.payload)
        if probe:
            req.degraded = True
            self.stats.degraded += 1
        ent = (flight, probe, req)
        self._attempts[id(req)] = ent
        self.attempts_sent += 1
        outcome = self.transport(req)
        if outcome != ADMIT and outcome != "drop":
            # Fail-fast rejection: the server said no, synchronously.
            del self._attempts[id(req)]
            self.stats.rejected += 1
            if self.breaker is not None:
                self.breaker.record(False, probe=probe)
            self._retry_or_fail(flight)
            return
        # Admitted (or silently tail-dropped — the timeout finds out).
        # The event carries the entry itself, not the id() key: the key
        # is only unique while the request object is alive, and a settled
        # attempt's slot can be reused by a later allocation.
        self.kernel.engine.schedule(self._timeout_ns, self._on_timeout, ent)

    def _on_timeout(self, ent: tuple) -> None:
        flight, probe, req = ent
        if self._closed or self._attempts.get(id(req)) is not ent:
            return
        if flight.settled:
            return
        self.stats.timeouts += 1
        if self.breaker is not None:
            self.breaker.record(False, probe=probe)
        self._retry_or_fail(flight)

    def _retry_or_fail(self, flight: _Flight) -> None:
        if self._closed or flight.settled:
            return
        p = self.policy
        if flight.attempts <= p.max_retries and self._budget_ok():
            n = flight.attempts
            flight.attempts += 1
            self.stats.retries += 1
            backoff = p.backoff_base_us * p.backoff_mult ** (n - 1)
            backoff *= 1.0 + p.jitter * float(self._rng.random())
            self.kernel.engine.schedule(
                max(1, int(backoff * US)), self._dispatch, flight, n)
            return
        flight.settled = True
        self.stats.failed += 1
        self.on_fail(flight.orig)

    def _budget_ok(self) -> bool:
        if self._budget_rate is None:
            return True
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        self.stats.retries_denied += 1
        return False

    # -- server completion hook ----------------------------------------
    def server_finish(self, req: ClientRequest) -> ClientRequest | None:
        """Settle the attempt's flight.  Returns the original request if
        this completion is the one that counts, None for duplicates and
        stale (already timed-out-and-failed) attempts."""
        ent = self._attempts.pop(id(req), None)
        if ent is None:
            # Not ours (resilience client saw no such attempt) — treat
            # as a duplicate rather than crash the accounting.
            self.stats.duplicates += 1
            return None
        flight, probe, _req = ent
        if flight.settled or self._closed:
            self.stats.duplicates += 1
            return None
        flight.settled = True
        if self.breaker is not None:
            self.breaker.record(True, probe=probe)
        if self.series is not None:
            self.series.complete(self.kernel.engine.now)
        return flight.orig

    # -- end of run -----------------------------------------------------
    def close(self) -> None:
        """Cancel outstanding attempts; unsettled flights are counted as
        ``cancelled_in_flight`` (never as completions or failures)."""
        if self._closed:
            return
        self._closed = True
        flights = {id(f): f for f, _p, _r in self._attempts.values()}
        self.stats.cancelled_in_flight += sum(
            1 for f in flights.values() if not f.settled
        )
        self._attempts.clear()

    def as_dict(self) -> dict:
        amp = (self.attempts_sent / self.originals
               if self.originals else 0.0)
        return {
            "originals": self.originals,
            "attempts": self.attempts_sent,
            "amplification": amp,
        }
