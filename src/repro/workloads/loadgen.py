"""Reusable client load generation (the mutilate role).

The serving scenarios (:mod:`repro.workloads.serving`) drive their epoll
server with these clients; the paper's memcached figure keeps its own,
simpler closed loop in :mod:`repro.workloads.memcached`.
:class:`ClosedLoopClients` is a population of connections, each looping
*send request → wait for the response → think → send again*, with
exponential think times so the offered load is bursty; servers call
:meth:`~_Clients.complete` when a request finishes and the next one is
scheduled automatically.

An open-loop variant (:class:`OpenLoopClients`) fires requests at a
Poisson rate regardless of completions — the configuration that exposes
queueing collapse when the server saturates.  The rate may be a plain
number or a :class:`RateSchedule`: a piecewise profile (bursts, ramps,
diurnal cycles) sampled as a *modulated* Poisson process via
Lewis-Shedler thinning, so arrival times stay deterministic per seed
regardless of how the schedule is shaped.

Measured-window semantics: both client classes discard the first
``warmup_ns`` of the run and count *sends* and *completions* over the
same post-warmup window (``sent_measured`` / ``completed``), so offered
load and goodput are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..kernel.kernel import Kernel
from ..metrics.stats import LatencySummary, summarize_latencies
from ..sim.rng import ScalarDraws

US = 1_000
MS = 1_000_000
SEC = 1_000_000_000


@dataclass(slots=True)
class ClientRequest:
    """What the load generator hands to the server's submit function.

    Treated as immutable by the load generator; not ``frozen`` because
    the frozen ``__init__`` (``object.__setattr__`` per field) is
    measurable at one request per client send.  The resilience layer
    sets the last two fields on an attempt it dispatches.
    """

    conn: int
    arrival_ns: int
    payload: Any
    #: a half-open breaker probe, answered with the cheaper response
    degraded: bool = False
    #: when admission put it on the server queue (CoDel's sojourn start)
    enqueue_ns: int | None = None


# ---------------------------------------------------------------------------
# Arrival-rate schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatePhase:
    """One segment of a rate profile.

    The offered rate over the phase is ``base_rate * multiplier``; when
    ``ramp_to`` is set the multiplier interpolates linearly from
    ``multiplier`` at the phase start to ``ramp_to`` at its end.
    """

    duration_ns: int
    multiplier: float = 1.0
    ramp_to: float | None = None

    def multiplier_at(self, frac: float) -> float:
        if self.ramp_to is None:
            return self.multiplier
        return self.multiplier + (self.ramp_to - self.multiplier) * frac


@dataclass(frozen=True)
class RateSchedule:
    """Piecewise arrival-rate profile for open-loop clients.

    ``phases`` partition time from the generator's start; with
    ``repeat=True`` the profile cycles (a diurnal pattern), otherwise the
    last phase's final rate holds forever.  An empty ``phases`` tuple is a
    constant rate of ``base_rate_per_sec``.
    """

    base_rate_per_sec: float
    phases: tuple[RatePhase, ...] = ()
    repeat: bool = True

    def __post_init__(self):
        if self.base_rate_per_sec <= 0:
            raise ValueError("rate must be positive")
        for ph in self.phases:
            if ph.duration_ns <= 0:
                raise ValueError("phase duration must be positive")
            if ph.multiplier < 0 or (ph.ramp_to is not None and ph.ramp_to < 0):
                raise ValueError("phase multiplier must be >= 0")

    # -- constructors ------------------------------------------------------
    @classmethod
    def constant(cls, rate_per_sec: float) -> "RateSchedule":
        return cls(rate_per_sec)

    @classmethod
    def burst(
        cls,
        base_rate_per_sec: float,
        burst_multiplier: float,
        period_ns: int,
        duty: float = 0.2,
    ) -> "RateSchedule":
        """Square-wave bursts: ``duty`` of each period at the burst rate."""
        if not 0.0 < duty < 1.0:
            raise ValueError("duty must be in (0, 1)")
        on = max(1, int(period_ns * duty))
        off = max(1, period_ns - on)
        return cls(
            base_rate_per_sec,
            phases=(
                RatePhase(on, burst_multiplier),
                RatePhase(off, 1.0),
            ),
        )

    @classmethod
    def ramp(
        cls,
        start_rate_per_sec: float,
        end_multiplier: float,
        ramp_ns: int,
    ) -> "RateSchedule":
        """Linear ramp to ``end_multiplier``x, then hold."""
        return cls(
            start_rate_per_sec,
            phases=(RatePhase(ramp_ns, 1.0, ramp_to=end_multiplier),),
            repeat=False,
        )

    @classmethod
    def diurnal(
        cls,
        base_rate_per_sec: float,
        peak_multiplier: float,
        period_ns: int,
        steps: int = 12,
    ) -> "RateSchedule":
        """Sinusoidal day/night cycle, discretized into ``steps`` plateaus.

        Multipliers swing between 1.0 (trough) and ``peak_multiplier``.
        """
        if steps < 2:
            raise ValueError("need at least two steps")
        amp = (peak_multiplier - 1.0) / 2.0
        mid = 1.0 + amp
        dur = max(1, period_ns // steps)
        phases = tuple(
            RatePhase(dur, mid + amp * math.sin(2 * math.pi * i / steps))
            for i in range(steps)
        )
        return cls(base_rate_per_sec, phases=phases)

    @classmethod
    def for_users(
        cls,
        users: int,
        requests_per_user_per_sec: float,
        **burst_kwargs: Any,
    ) -> "RateSchedule":
        """Aggregate rate for a user population (e.g. 2M users x 0.05 rps).

        With ``burst_kwargs`` (``burst_multiplier``, ``period_ns``,
        ``duty``) the population's load is bursty; otherwise constant.
        """
        rate = users * requests_per_user_per_sec
        if burst_kwargs:
            return cls.burst(rate, **burst_kwargs)
        return cls(rate)

    # -- sampling ----------------------------------------------------------
    @property
    def cycle_ns(self) -> int:
        return sum(ph.duration_ns for ph in self.phases)

    @property
    def peak_rate_per_sec(self) -> float:
        peak = 1.0
        for ph in self.phases:
            peak = max(peak, ph.multiplier)
            if ph.ramp_to is not None:
                peak = max(peak, ph.ramp_to)
        return self.base_rate_per_sec * peak

    @property
    def is_constant(self) -> bool:
        return not self.phases or all(
            ph.multiplier == 1.0 and ph.ramp_to in (None, 1.0)
            for ph in self.phases
        )

    def rate_at(self, t_ns: int) -> float:
        """Instantaneous rate ``t_ns`` after the generator started."""
        if not self.phases:
            return self.base_rate_per_sec
        cycle = self.cycle_ns
        if self.repeat:
            t_ns = t_ns % cycle
        elif t_ns >= cycle:
            last = self.phases[-1]
            return self.base_rate_per_sec * last.multiplier_at(1.0)
        for ph in self.phases:
            if t_ns < ph.duration_ns:
                return self.base_rate_per_sec * ph.multiplier_at(
                    t_ns / ph.duration_ns
                )
            t_ns -= ph.duration_ns
        last = self.phases[-1]  # pragma: no cover - t_ns < cycle above
        return self.base_rate_per_sec * last.multiplier_at(1.0)

    def rate_at_np(self, t_ns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rate_at` over an int64 array of offsets.

        Bit-identical to the scalar walk: integer phase offsets are
        exact, and the interpolation uses the same operations in the
        same order, so ``rate_at_np(t)[i] == rate_at(int(t[i]))`` for
        every element (the thinning accept test relies on this).
        """
        if not self.phases:
            return np.full(len(t_ns), self.base_rate_per_sec)
        cycle = self.cycle_ns
        t = np.asarray(t_ns, dtype=np.int64)
        if self.repeat:
            t = t % cycle
            tail = None
        else:
            tail = t >= cycle
            t = np.minimum(t, cycle - 1)
        durations = np.array(
            [ph.duration_ns for ph in self.phases], dtype=np.int64
        )
        bounds = np.cumsum(durations)
        idx = np.searchsorted(bounds, t, side="right")
        starts = bounds - durations
        mult0 = np.array([ph.multiplier for ph in self.phases])
        ramp = np.array(
            [
                ph.multiplier if ph.ramp_to is None else ph.ramp_to
                for ph in self.phases
            ]
        )
        frac = (t - starts[idx]) / durations[idx]
        mult = mult0[idx] + (ramp[idx] - mult0[idx]) * frac
        if tail is not None and tail.any():
            last = self.phases[-1]
            mult = np.where(
                tail, last.multiplier_at(1.0), mult
            )
        return self.base_rate_per_sec * mult

    def mean_rate_per_sec(self) -> float:
        """Time-averaged rate over one cycle (ramps averaged linearly)."""
        if not self.phases:
            return self.base_rate_per_sec
        weighted = 0.0
        for ph in self.phases:
            mult = (
                ph.multiplier
                if ph.ramp_to is None
                else (ph.multiplier + ph.ramp_to) / 2.0
            )
            weighted += mult * ph.duration_ns
        return self.base_rate_per_sec * weighted / self.cycle_ns


# ---------------------------------------------------------------------------
# The client core shared by both loop shapes
# ---------------------------------------------------------------------------

class _LatencyBook:
    def __init__(self, kernel: Kernel, warmup_ns: int):
        self.kernel = kernel
        # The request path reads ``engine.now``, not the ``Kernel.now``
        # property: 3.11 specializes no property read.
        self.engine = kernel.engine
        self.warmup_ns = warmup_ns
        self.latencies_us: list[float] = []
        self.completed = 0

    def in_measured_window(self) -> bool:
        """True once the warmup window has elapsed (boundary inclusive)."""
        return self.engine.now - self.kernel.start_time >= self.warmup_ns

    def record(self, arrival_ns: int) -> None:
        now = self.engine.now
        # >= so a completion landing exactly at the warmup boundary counts;
        # the same predicate gates sent_measured in the client classes, so
        # offered load and goodput share one measured window.
        if now - self.kernel.start_time >= self.warmup_ns:
            self.latencies_us.append((now - arrival_ns) / 1e3)
            self.completed += 1

    def summary(self) -> LatencySummary:
        return summarize_latencies(self.latencies_us)


class _Clients:
    """What both loop shapes share: the ingress, the payload draw, the
    RNG stream, the latency book and the in-flight discipline.

    ``submit(request)`` is the server's ingress (e.g. an epoll post);
    the server must call :meth:`complete` exactly once per request.
    ``payload_fn`` draws the request payload (request kind, key, ...)
    from the stream's :class:`~repro.sim.rng.ScalarDraws`.
    Subclasses say what a connection does once its request is done
    (:meth:`_after`).
    """

    def __init__(
        self,
        kernel: Kernel,
        submit: Callable[[ClientRequest], None],
        payload_fn: Callable[[ScalarDraws], Any] | None,
        warmup_ns: int,
        rng_name: str,
    ):
        self.kernel = kernel
        self.engine = kernel.engine
        self.submit = submit
        self.payload_fn = payload_fn or (lambda rng: None)
        self.rng = kernel.rng_streams.draws(rng_name)
        self.book = _LatencyBook(kernel, warmup_ns)
        self.sent = 0
        self.sent_measured = 0
        # In-flight requests by identity: completions are only booked for
        # requests actually outstanding, so a duplicate (or a completion
        # arriving after the run was cancelled) cannot re-arm a
        # connection or leak into the latency accounting.
        self._inflight: dict[int, ClientRequest] = {}
        self.failed = 0
        self.duplicate_completions = 0
        self.cancelled = 0

    def _send(self, conn: int) -> None:
        self.sent += 1
        if self.book.in_measured_window():
            self.sent_measured += 1
        req = ClientRequest(conn, self.engine.now, self.payload_fn(self.rng))
        self._inflight[id(req)] = req
        self.submit(req)

    def _after(self, conn: int) -> None:
        """Connection ``conn``'s request is done (completed or failed)."""

    def complete(self, request: ClientRequest) -> bool:
        """Server-side completion hook: record the latency, then
        :meth:`_after`.

        Returns False (and books nothing, re-arms nothing) for a request
        that is not in flight — a duplicate completion or one arriving
        after :meth:`cancel_in_flight`."""
        if self._inflight.pop(id(request), None) is None:
            self.duplicate_completions += 1
            return False
        self.book.record(request.arrival_ns)
        self._after(request.conn)
        return True

    def fail(self, request: ClientRequest) -> None:
        """A logical request gave up for good (resilience layer): nothing
        is booked, but the connection moves on as after a completion."""
        if self._inflight.pop(id(request), None) is None:
            return
        self.failed += 1
        self._after(request.conn)

    def cancel_in_flight(self) -> int:
        """Drop every outstanding request at end of run; late completions
        become counted duplicates instead of phantom samples."""
        n = len(self._inflight)
        self._inflight.clear()
        self.cancelled += n
        return n

    @property
    def in_flight(self) -> int:
        return len(self._inflight)

    # -- results ---------------------------------------------------------
    @property
    def completed(self) -> int:
        return self.book.completed

    def latency_summary(self) -> LatencySummary:
        return self.book.summary()

    def throughput_ops(self, measured_ns: int) -> float:
        """Goodput: post-warmup completions over the measured window."""
        return self.book.completed / (measured_ns / 1e9)

    def offered_ops(self, measured_ns: int) -> float:
        """Offered load: post-warmup sends over the same window."""
        return self.sent_measured / (measured_ns / 1e9)


class ClosedLoopClients(_Clients):
    """``connections`` clients in a think/send loop: a completed or
    failed request's connection thinks, then sends again."""

    # Floor on the initial stagger window: ~1 us of spread per connection,
    # so a tiny think time cannot arm the whole population at t=0 (a
    # thundering herd no real client fleet produces).
    _MIN_STAGGER_PER_CONN_NS = 1_000

    def __init__(
        self,
        kernel: Kernel,
        submit: Callable[[ClientRequest], None],
        connections: int,
        think_ns: int,
        payload_fn: Callable[[ScalarDraws], Any] | None = None,
        warmup_ns: int = 0,
        rng_name: str = "loadgen",
    ):
        if connections < 1:
            raise ValueError("need at least one connection")
        if think_ns < 0:
            raise ValueError("think time must be >= 0")
        super().__init__(kernel, submit, payload_fn, warmup_ns, rng_name)
        self.connections = connections
        self.think_ns = think_ns

    def start(self) -> None:
        """Arm every connection with a staggered first request.

        The stagger window is at least one mean think time *and* at least
        ``_MIN_STAGGER_PER_CONN_NS`` per connection — with a small think
        time the old ``integers(0, think_ns)`` draw armed every connection
        at (nearly) the same instant.  One draw per connection, in
        connection order, exactly as before, so RNG consumption (and
        therefore every downstream draw) is unchanged whenever
        ``think_ns`` already dominates.
        """
        spread = max(
            1,
            self.think_ns,
            self.connections * self._MIN_STAGGER_PER_CONN_NS,
        )
        for conn in range(self.connections):
            self.engine.schedule(self.rng.integers(0, spread), self._send, conn)

    def _after(self, conn: int) -> None:
        self.engine.schedule(
            int(self.rng.exponential(self.think_ns)), self._send, conn
        )


class OpenLoopClients(_Clients):
    """Poisson arrivals, independent of completions.

    ``rate`` is either requests/second (homogeneous Poisson) or a
    :class:`RateSchedule` (modulated Poisson via Lewis-Shedler thinning:
    candidate gaps are drawn at the schedule's peak rate and accepted with
    probability ``rate(t)/peak``, which preserves determinism for any
    profile shape).  A completion or failure only changes the accounting.
    """

    def __init__(
        self,
        kernel: Kernel,
        submit: Callable[[ClientRequest], None],
        rate_per_sec: float | RateSchedule,
        payload_fn: Callable[[ScalarDraws], Any] | None = None,
        warmup_ns: int = 0,
        rng_name: str = "loadgen-open",
    ):
        if isinstance(rate_per_sec, RateSchedule):
            schedule = rate_per_sec
        else:
            if rate_per_sec <= 0:
                raise ValueError("rate must be positive")
            schedule = RateSchedule(float(rate_per_sec))
        super().__init__(kernel, submit, payload_fn, warmup_ns, rng_name)
        self.schedule = schedule
        self._conn = 0
        self._stopped = False
        self._t0 = 0
        # Constant schedules keep the direct single-draw path (identical
        # RNG consumption to the pre-schedule implementation).
        self._constant = schedule.is_constant
        self._peak_gap_ns = 1e9 / schedule.peak_rate_per_sec
        self._peak_rate = schedule.peak_rate_per_sec
        if not self._constant:
            # Lewis-Shedler draws live on two dedicated substreams —
            # candidate gaps and acceptance uniforms — so each can be
            # pregenerated in numpy blocks and drained one value at a
            # time.  Block fills consume the generator exactly like
            # repeated scalar draws (numpy fills arrays element-wise
            # from the same bit stream), so the arrival sequence is
            # independent of the block size; payload draws stay on
            # ``self.rng`` untouched by the batching.
            self._gap_rng = kernel.rng_streams.stream(rng_name + ".gaps")
            self._accept_rng = kernel.rng_streams.stream(
                rng_name + ".accept"
            )
            # Accepted candidate times waiting to be scheduled, and the
            # absolute time of the last candidate drawn (the candidate
            # process is homogeneous Poisson at the peak rate and does
            # not depend on accept outcomes, so whole blocks can be
            # materialized ahead of the simulation).
            self._accepted: list[int] = []
            self._accepted_pos = 0
            self._cand_time = 0

    #: Draws pregenerated per numpy call on the thinning path.
    _BATCH = 512

    @property
    def mean_gap_ns(self) -> float:
        return 1e9 / self.schedule.mean_rate_per_sec()

    def start(self) -> None:
        self._t0 = self.engine.now
        if not self._constant:
            self._cand_time = self._t0
        self._schedule_next()

    def stop(self) -> None:
        """Halt arrivals; idempotent (extra calls are no-ops)."""
        self._stopped = True

    def _fill_accepted(self) -> None:
        """Materialize the next block of accepted arrival times.

        Lewis-Shedler thinning against the peak rate, batched: candidate
        gaps (exponential at the peak rate, floored at 1 ns) and accept
        uniforms each come off a dedicated substream in blocks, the
        candidate clock is a cumulative sum, the schedule is evaluated
        vectorized, and the accept test is one boolean mask.  Element
        order on both substreams matches a draw-per-candidate scalar
        loop exactly (numpy fills arrays element-wise from the same bit
        stream), so results are independent of the block size — the
        equivalence test in ``tests/test_loadgen.py`` replays this
        against a scalar reference implementation.
        """
        accepted = self._accepted
        accepted.clear()
        self._accepted_pos = 0
        t0 = self._t0
        peak = self._peak_rate
        while not accepted:
            gaps = self._gap_rng.exponential(self._peak_gap_ns, self._BATCH)
            steps = np.maximum(1, gaps.astype(np.int64))
            times = self._cand_time + np.cumsum(steps)
            self._cand_time = int(times[-1])
            u = self._accept_rng.random(self._BATCH)
            rates = self.schedule.rate_at_np(times - t0)
            accepted.extend(int(t) for t in times[u * peak <= rates])

    def _schedule_next(self) -> None:
        if self._stopped:
            return
        if self._constant:
            gap = int(self.rng.exponential(self._peak_gap_ns))
            self.engine.schedule(max(1, gap), self._fire)
            return
        if self._accepted_pos >= len(self._accepted):
            self._fill_accepted()
        t = self._accepted[self._accepted_pos]
        self._accepted_pos += 1
        self.engine.schedule_at(max(t, self.engine.now + 1), self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._conn += 1
        self._send(self._conn)
        self._schedule_next()
