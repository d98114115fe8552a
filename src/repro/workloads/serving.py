"""Heavy-traffic serving scenarios: open-loop bursts, SLOs, colocation.

The paper measured oversubscription with closed-loop, single-tenant
workloads only.  This module stresses the same kernels with the
traffic a production serving fleet actually sees:

* **open-loop arrivals** (:class:`~repro.workloads.loadgen.OpenLoopClients`)
  at rates scaled to millions of simulated users, including bursty /
  diurnal :class:`~repro.workloads.loadgen.RateSchedule` profiles — the
  configuration where a saturated server's queue (and p99) grows without
  bound, unlike a closed loop whose in-flight count is capped;
* **per-tenant SLO tracking** (:class:`SloTracker`): p99/p999 latency
  targets evaluated over fixed violation windows, built on the O(1)
  :class:`~repro.obs.hist.Log2Histogram` so tracking stays always-on at
  any request rate, plus the exact p999-capable
  :func:`~repro.metrics.stats.summarize_latencies` path for the final
  summary; and
* **multi-tenant colocation**: a latency-critical epoll server (the
  memcached service model) sharing one oversubscribed kernel
  with a batch NPB/OpenMP tenant, in bare-metal, container, and VM (PLE)
  modes.

Every scenario returns a JSON-pure dict so the runner layer
(``repro serve`` / ``repro all``) can cache, parallelize, and validate
the results like any other figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SimConfig
from ..kernel.epoll import EpollInstance
from ..kernel.kernel import Kernel
from ..kernel.task import ExecProfile
from ..metrics.collector import collect
from ..obs.hist import Log2Histogram
from ..prog.actions import Compute, EpollWait, MutexAcquire, MutexRelease
from ..sync import Mutex
from .loadgen import ClosedLoopClients, OpenLoopClients, RateSchedule
from .npb_omp import NpbOmpConfig, build_npb_omp

US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

#: Measured single-tenant saturation rate of the default service model on
#: four cores.  Service actions sum to ~9 us of CPU per request; epoll
#: dispatch and scheduling overhead push the effective cost higher at low
#: load (~14 us at 140 k/s) but batching amortizes it as load rises, and
#: the served rate stops tracking the offered rate between 340 and
#: 360 k/s.  Scenario rates are expressed as fractions of this.
SATURATION_RATE = 300_000.0


# ---------------------------------------------------------------------------
# Per-tenant SLO tracking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SloPolicy:
    """A tenant's latency SLO: tail targets checked per violation window.

    A window *violates* when its p99 (or p999, when a target is set)
    exceeds the target.  Windows partition post-warmup time; a window
    with no completions is counted separately (``empty_windows``) —
    with requests in flight that usually means the server was too
    starved to finish anything, but an empty window carries no
    percentile to compare.
    """

    p99_target_us: float
    p999_target_us: float | None = None
    window_ms: float = 10.0

    def __post_init__(self):
        if self.p99_target_us <= 0:
            raise ValueError("p99 target must be positive")
        if self.p999_target_us is not None and self.p999_target_us <= 0:
            raise ValueError("p999 target must be positive")
        if self.window_ms <= 0:
            raise ValueError("window must be positive")

    def as_dict(self) -> dict:
        return {"p99_target_us": self.p99_target_us,
                "p999_target_us": self.p999_target_us,
                "window_ms": self.window_ms}

    @classmethod
    def from_dict(cls, d: dict) -> "SloPolicy":
        return cls(p99_target_us=d["p99_target_us"],
                   p999_target_us=d.get("p999_target_us"),
                   window_ms=d.get("window_ms", 10.0))


class SloTracker:
    """Windowed SLO bookkeeping for one tenant.

    ``record(latency_ns)`` files the sample into the current window's
    :class:`Log2Histogram` (O(1) per sample, O(1) memory per window —
    always-on at millions of requests).  When simulated time crosses a
    window boundary the finished window is evaluated against the policy;
    violated windows are coalesced into ``violation_intervals`` and, when
    tracing is enabled, emitted as ``slo-violation`` trace events so
    ``repro analyze`` can report them offline.
    """

    def __init__(self, kernel: Kernel, tenant: str, policy: SloPolicy,
                 warmup_ns: int = 0):
        self.kernel = kernel
        self.tenant = tenant
        self.policy = policy
        self.window_ns = max(1, int(policy.window_ms * MS))
        self.t0 = kernel.start_time + warmup_ns  # first window starts here
        self.windows = 0
        self.empty_windows = 0
        self.violations = 0
        self.worst_p99_us = 0.0
        self.worst_p999_us = 0.0
        self._intervals: list[list[int]] = []  # merged [start_ns, end_ns)
        self._cur_idx: int | None = None
        self._cur_hist = Log2Histogram(f"{tenant}.window")
        self._closed = False
        # (idx, completions, violated) per evaluated window — what the
        # recovery metrics walk; bounded by the run's window count.
        self._window_log: list[tuple[int, int, bool]] = []

    # -- recording -------------------------------------------------------
    def record(self, latency_ns: int) -> None:
        if self._closed:
            return  # the run is over; a straggler can't reopen a window
        now = self.kernel.engine.now  # not the Kernel.now property
        if now < self.t0:
            return  # warmup: not part of any window
        idx = (now - self.t0) // self.window_ns
        if self._cur_idx is None:
            self._cur_idx = idx
        elif idx != self._cur_idx:
            self._close_window(self._cur_idx)
            # Windows the run skipped entirely had no completions at all.
            self.empty_windows += max(0, idx - self._cur_idx - 1)
            self._cur_idx = idx
        self._cur_hist.record(max(0, int(latency_ns)))

    def close(self) -> None:
        """Evaluate the final (partial) window.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._cur_idx is not None and self._cur_hist.count:
            self._close_window(self._cur_idx)

    def _close_window(self, idx: int) -> None:
        hist = self._cur_hist
        self._cur_hist = Log2Histogram(f"{self.tenant}.window")
        if not hist.count:
            self.empty_windows += 1
            return
        self.windows += 1
        p99_us = hist.percentile(99) / 1e3
        p999_us = hist.percentile(99.9) / 1e3
        self.worst_p99_us = max(self.worst_p99_us, p99_us)
        self.worst_p999_us = max(self.worst_p999_us, p999_us)
        violated = p99_us > self.policy.p99_target_us or (
            self.policy.p999_target_us is not None
            and p999_us > self.policy.p999_target_us
        )
        self._window_log.append((idx, hist.count, violated))
        if not violated:
            return
        self.violations += 1
        start = self.t0 + idx * self.window_ns
        end = start + self.window_ns
        if self._intervals and self._intervals[-1][1] == start:
            self._intervals[-1][1] = end  # contiguous: extend
        else:
            self._intervals.append([start, end])
        if self.kernel.trace.enabled:
            self.kernel.trace.emit(
                self.kernel.now, "slo-violation", -1, None,
                tenant=self.tenant, start_ns=start, end_ns=end,
                p99_us=round(p99_us, 3), p999_us=round(p999_us, 3),
                p99_target_us=self.policy.p99_target_us,
            )

    def window_log(self) -> list[tuple[int, int, bool]]:
        """(idx, completions, violated) for every evaluated window.
        Windows with no completions have no entry (they were empty)."""
        return list(self._window_log)

    # -- results ---------------------------------------------------------
    def result(self) -> dict:
        self.close()
        total = self.windows
        compliance = (100.0 * (1.0 - self.violations / total)
                      if total else 100.0)
        return {
            "tenant": self.tenant,
            **self.policy.as_dict(),
            "windows": self.windows,
            "empty_windows": self.empty_windows,
            "violations": self.violations,
            "compliance_pct": compliance,
            "worst_window_p99_us": self.worst_p99_us,
            "worst_window_p999_us": self.worst_p999_us,
            "violation_intervals": [list(iv) for iv in self._intervals],
        }


# ---------------------------------------------------------------------------
# The serving-tenant service model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServingConfig:
    """Per-request service model of the latency-critical tenant.

    The shape is the memcached one (epoll workers, striped hash locks)
    with costs sized so four cores saturate near
    :data:`SATURATION_RATE` — parse + critical section + respond is
    ~9 us of CPU per request.
    """

    workers: int = 8
    parse_ns: int = 2_000
    work_cs_ns: int = 1_500   # striped-lock critical section
    respond_ns: int = 5_500
    lock_stripes: int = 16

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("need at least one worker")


DEFAULT_SLO = SloPolicy(p99_target_us=400.0, p999_target_us=2_000.0,
                        window_ms=10.0)


def _spawn_server(kernel: Kernel, sc: ServingConfig, finish,
                  guard=None) -> list:
    """Spawn the epoll worker pool; returns the per-worker epoll list.

    With a :class:`~repro.resilience.server.ServerGuard` each worker also
    honors crash-and-restart faults, tenant-slowdown scaling, CoDel
    shedding and degraded (half-open probe) responses; without one it
    consults nothing beyond its batch.
    """
    epolls = [EpollInstance(f"srv{i}.ep") for i in range(sc.workers)]
    engine = kernel.engine  # engine.now: no Kernel.now property call
    locks = [Mutex(f"srv.hash{j}") for j in range(sc.lock_stripes)]
    act_parse = Compute(sc.parse_ns)
    act_work = Compute(sc.work_cs_ns)
    act_respond = Compute(sc.respond_ns)
    act_acquire = [MutexAcquire(lk) for lk in locks]
    act_release = [MutexRelease(lk) for lk in locks]
    stripes = sc.lock_stripes
    # The server's connection/table state is cache-heavy, like memcached.
    profile = ExecProfile(migration_weight=4.0)
    if guard is not None:
        policy = guard.policy
        frac = policy.degraded_cost_frac if policy is not None else 0.25
        act_respond_cheap = Compute(max(1, int(sc.respond_ns * frac)))

    def worker(i: int):
        wait = EpollWait(epolls[i])
        act_slow = act_work
        while True:
            batch = yield wait
            if guard is not None:
                if guard.worker_crashes_now(i):
                    guard.note_crash(i, batch)
                    return  # the task dies; guard schedules the respawn
                scale = guard.work_scale(engine.now)
                act_slow = (act_work if scale == 1.0
                            else Compute(max(1, int(sc.work_cs_ns * scale))))
            for req in batch:
                if guard is not None and not guard.serve_ok(req, engine.now):
                    continue  # CoDel shed at dequeue: silently dropped
                yield act_parse
                bucket = req.payload % stripes
                yield act_acquire[bucket]
                yield act_slow
                yield act_release[bucket]
                if guard is not None and req.degraded:
                    yield act_respond_cheap
                else:
                    yield act_respond
                finish(req)

    if guard is not None:
        restarts = [0]

        def respawn(i: int) -> None:
            restarts[0] += 1
            kernel.spawn(worker(i), name=f"srv.worker{i}.r{restarts[0]}",
                         profile=profile)

        guard.respawn = respawn
    for i in range(sc.workers):
        kernel.spawn(worker(i), name=f"srv.worker{i}", profile=profile)
    return epolls


def _serve_result(kernel: Kernel, clients, tracker: SloTracker,
                  measured_ns: int, resilience: dict | None = None) -> dict:
    summary = (clients.latency_summary().as_dict()
               if clients.completed else None)
    stats = collect(kernel)
    result = {
        "sent": clients.sent,
        "sent_measured": clients.sent_measured,
        "completed": clients.completed,
        "offered_ops": clients.offered_ops(measured_ns),
        "goodput_ops": clients.throughput_ops(measured_ns),
        "latency": summary,
        "slo": tracker.result(),
        "utilization_pct": stats.cpu_utilization_pct,
        "context_switches": stats.context_switches,
    }
    if resilience is not None:
        # Only present when a policy or fault plan was active, so
        # default results stay byte-identical.
        result["resilience"] = resilience
    return result


class _ResilienceRig:
    """Everything the resilience layer adds to one serving driver.

    Built only when a policy is active or a fault plan is installed;
    default runs never construct one (``build`` returns None), which is
    what keeps them byte-identical to the pre-resilience code.
    """

    def __init__(self, kernel: Kernel, policy, faults,
                 tracker: SloTracker):
        from ..resilience import (
            ADMIT,
            CircuitBreaker,
            ResilienceStats,
            ResilientClients,
            ServerGuard,
            WindowSeries,
        )

        self._admit = ADMIT  # bound once: _transport runs per request
        self.kernel = kernel
        self.policy = policy
        self.faults = faults
        self.tracker = tracker
        self.stats = ResilienceStats()
        self.series = WindowSeries(tracker.t0, tracker.window_ns)
        self.guard = ServerGuard(kernel, policy, [], self.stats)
        kernel.resilience_stats = self.stats
        chaos = kernel._chaos
        if chaos is not None:
            chaos.serving = self.guard
        self.breaker = None
        self.client = None
        if policy is not None and policy.client_active:
            if policy.breaker:
                self.breaker = CircuitBreaker(kernel, policy)
            self.client = ResilientClients(
                kernel, policy, transport=self._transport,
                stats=self.stats, breaker=self.breaker, series=self.series,
            )
        self._route = None  # set by bind(): req -> epoll

    @staticmethod
    def build(kernel: Kernel, policy, faults, tracker: SloTracker):
        active = (policy is not None and policy.active) or faults is not None
        if not active:
            return None
        return _ResilienceRig(kernel, policy, faults, tracker)

    # -- driver wiring --------------------------------------------------
    def bind(self, route) -> None:
        self._route = route

    def _transport(self, req) -> str:
        ep = self._route(req)
        verdict = self.guard.admit(req, ep)
        if verdict == self._admit:
            # CoDel measures dequeue-time sojourn from here (retries
            # re-enter the queue later than their original arrival).
            req.enqueue_ns = self.kernel.engine.now
            self.kernel.epoll_post(ep, req)
        return verdict

    def submit(self, req) -> None:
        """The load generator's ingress."""
        if self.client is not None:
            self.client.send(req)
            return
        self.series.offer(self.kernel.engine.now)
        self._transport(req)

    def finish(self, req):
        """Map a server completion back to the original request, or None
        when it must not be booked (duplicate / failed / shed)."""
        if self.client is not None:
            return self.client.server_finish(req)
        self.series.complete(self.kernel.engine.now)
        return req

    def close(self) -> None:
        if self.client is not None:
            self.client.close()

    # -- result block ---------------------------------------------------
    def result(self) -> dict:
        from ..resilience import plan_clear_ns, time_to_recovery_ns

        block: dict = {
            "policy": None if self.policy is None else self.policy.as_dict(),
            "stats": self.stats.as_dict(),
            "series": self.series.as_dict(),
        }
        if self.client is not None:
            block["client"] = self.client.as_dict()
        if self.breaker is not None:
            block["breaker"] = self.breaker.as_dict()
        if self.faults is not None:
            clear = plan_clear_ns(self.faults)
            ttr = (None if clear is None
                   else time_to_recovery_ns(self.tracker, clear))
            block["recovery"] = {
                "fault_clear_ns": clear,
                "time_to_recovery_ns": ttr,
                "time_to_recovery_ms": None if ttr is None else ttr / MS,
            }
        return block


def _drive(sim_config: SimConfig, sc: ServingConfig | None, make_clients,
           slo: SloPolicy, duration_ms: float, warmup_ms: float,
           resilience=None, faults=None) -> dict:
    """The one serving driver: build the kernel, spawn the server, let
    ``make_clients(kernel, submit=, payload_fn=, warmup_ns=)`` build the
    load generator (and any other tenant), run the horizon and tear down.
    """
    sc = sc or ServingConfig()
    policy, plan, ctx = _resolve_serving_knobs(resilience, faults)
    with ctx:
        kernel = Kernel(sim_config)
        horizon = int(duration_ms * MS)
        warmup = int(warmup_ms * MS)
        tracker = SloTracker(kernel, "serve", slo, warmup_ns=warmup)
        box: list = [None]
        engine = kernel.engine  # engine.now: no Kernel.now property call
        rig = _ResilienceRig.build(kernel, policy, plan, tracker)

        def finish(req) -> None:
            clients = box[0]
            if rig is not None:
                req = rig.finish(req)
                if req is None:
                    return
            lat = engine.now - req.arrival_ns
            if not clients.complete(req):
                return
            if clients.book.in_measured_window():
                tracker.record(lat)

        epolls = _spawn_server(kernel, sc, finish,
                               guard=None if rig is None else rig.guard)

        if rig is None:
            def submit(req) -> None:
                kernel.epoll_post(epolls[req.conn % sc.workers], req)
        else:
            rig.guard.attach(epolls)
            rig.bind(lambda req: epolls[req.conn % sc.workers])
            submit = rig.submit

        stripes = sc.lock_stripes
        clients = make_clients(
            kernel, submit=submit,
            payload_fn=lambda rng: rng.integers(0, stripes),
            warmup_ns=warmup,
        )
        box[0] = clients
        if rig is not None and rig.client is not None:
            rig.client.on_fail = clients.fail
        clients.start()
        kernel.run_for(horizon)
        if isinstance(clients, OpenLoopClients):
            clients.stop()
        if rig is not None:
            rig.close()
        clients.cancel_in_flight()
        kernel.shutdown()
        tracker.close()  # before rig.result(): recovery walks the window log
        return _serve_result(kernel, clients, tracker, horizon - warmup,
                             resilience=None if rig is None else rig.result())


def _resolve_serving_knobs(resilience, faults):
    """Coerce the runner-facing knobs: a policy (preset name / dict /
    instance / None) and a fault plan (path / plan-JSON dict / instance /
    None).  Returns ``(policy, plan, kernel_ctx)`` where ``kernel_ctx``
    installs the chaos controller on kernels built inside it."""
    from contextlib import nullcontext

    from ..chaos import InjectionPlan, chaos_session
    from ..resilience import resolve_policy

    policy = resolve_policy(resilience)
    if faults is None or isinstance(faults, InjectionPlan):
        plan = faults
    elif isinstance(faults, str):
        plan = InjectionPlan.load(faults)
    elif isinstance(faults, dict):
        plan = InjectionPlan.from_json(faults)
    else:
        from ..errors import ConfigError

        raise ConfigError(
            f"faults must be a plan, plan dict, or plan path "
            f"(got {type(faults).__name__})"
        )
    ctx = nullcontext() if plan is None else chaos_session(plan)
    return policy, plan, ctx


def open_loop_serve(
    sim_config: SimConfig,
    sc: ServingConfig | None = None,
    rate: float | RateSchedule = SATURATION_RATE / 2,
    duration_ms: float = 100.0,
    warmup_ms: float = 10.0,
    slo: SloPolicy = DEFAULT_SLO,
    resilience=None,
    faults=None,
) -> dict:
    """One open-loop serving run: Poisson (or scheduled) arrivals."""
    def make_clients(kernel, **kw):
        return OpenLoopClients(kernel, rate_per_sec=rate, **kw)

    return _drive(sim_config, sc, make_clients, slo, duration_ms,
                  warmup_ms, resilience, faults)


def closed_loop_serve(
    sim_config: SimConfig,
    sc: ServingConfig | None = None,
    connections: int = 32,
    think_us: float = 100.0,
    duration_ms: float = 100.0,
    warmup_ms: float = 10.0,
    slo: SloPolicy = DEFAULT_SLO,
    resilience=None,
    faults=None,
) -> dict:
    """The closed-loop comparison point: in-flight capped at
    ``connections``, so overload self-limits instead of collapsing."""
    def make_clients(kernel, **kw):
        return ClosedLoopClients(kernel, connections=connections,
                                 think_ns=int(think_us * US), **kw)

    return _drive(sim_config, sc, make_clients, slo, duration_ms,
                  warmup_ms, resilience, faults)


# ---------------------------------------------------------------------------
# Colocation: serving tenant + batch NPB/OpenMP tenant, one kernel
# ---------------------------------------------------------------------------

def colocation_run(
    sim_config: SimConfig,
    sc: ServingConfig | None = None,
    rate: float | RateSchedule = SATURATION_RATE / 4,
    batch_kernel: str = "cg",
    batch_threads: int = 16,
    duration_ms: float = 100.0,
    warmup_ms: float = 10.0,
    slo: SloPolicy = DEFAULT_SLO,
    resilience=None,
    faults=None,
) -> dict:
    """A latency-critical tenant and a batch tenant on one kernel.

    The serving tenant is the epoll server under open-loop load; the
    batch tenant is an NPB/OpenMP team (:func:`build_npb_omp`) whose
    threads run barrier-synchronized parallel regions.  Together they
    oversubscribe the cores — the setting where vanilla wake-path
    behavior lets the batch tenant trample the server's tail latency and
    VB/BWD is supposed to protect it.

    Batch progress is the number of program actions its threads retired
    inside the horizon — a deterministic throughput proxy that needs no
    cooperation from the region structure.
    """
    progress = [0, 0]  # actions retired, threads finished

    def counted(gen):
        for action in gen:
            yield action
            progress[0] += 1
        progress[1] += 1

    def make_clients(kernel, **kw):
        clients = OpenLoopClients(kernel, rate_per_sec=rate, **kw)
        # Batch tenant: a small NPB instance so its region structure (and
        # barrier behavior) is the real one, not a stand-in.  Iterations
        # scale with the horizon (one iteration per 4 ms) so the two
        # tenants contend for a comparable fraction of any run length;
        # progress_actions, not completion, is the batch metric.
        programs, _regions = build_npb_omp(
            batch_kernel, batch_threads,
            NpbOmpConfig(iterations=max(3, int(duration_ms / 4.0)),
                         base_rows=64, seed=sim_config.seed),
        )
        for i, gen in enumerate(programs):
            kernel.spawn(counted(gen), name=f"batch.{batch_kernel}{i}")
        return clients

    serve = _drive(sim_config, sc, make_clients, slo, duration_ms,
                   warmup_ms, resilience, faults)
    return {
        "serve": serve,
        "batch": {
            "kernel": batch_kernel,
            "threads": batch_threads,
            "progress_actions": progress[0],
            "threads_finished": progress[1],
        },
    }
