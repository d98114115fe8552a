"""The simulated kernel: CPUs, CFS scheduling, futex/epoll, load balancing.

Execution model
---------------
Each CPU runs at most one task.  A running task has a *current charge* — the
remaining on-CPU nanoseconds of its current action (``None`` while spinning,
which burns CPU until granted or preempted).  Each CPU keeps at most one live
engine event, its running task's next *milestone* (the earlier of action
completion and slice expiry); every reschedule cancels the old one, so no
stale event ever fires.  When a milestone's successor comes before every
queued event, ``_cpu_event`` runs it in place instead of scheduling it
(run-ahead, docs/performance.md).  Interruptions (wakeup preemption, spin
grants, BWD deschedules) synchronize the running task's progress first, then
mutate state.

Blocking follows the paper's two paths:

* **vanilla** (Figure 5): the waiter pays syscall + bucket-lock + dequeue
  costs and leaves the runqueue (``SLEEPING``).  The *waker* serially
  processes the wake queue: per waiter — bucket lock, wake_q move, idlest
  core selection, target runqueue lock (a real serialization timeline shared
  with other wakers), enqueue, and a wakeup-preemption check.  Waking on a
  different CPU than the task last ran on counts as a migration.
* **virtual blocking** (Section 3.1): the waiter sets ``thread_state`` and is
  re-enqueued at the tail of its own runqueue with a sentinel vruntime;
  waking clears the flag and re-keys it in place — no core selection, no
  cross-CPU locking, no load fluctuation.
"""

from __future__ import annotations

import math
import os
from typing import Any, Generator

from ..config import EXEC_VM, SimConfig
from ..core.bwd import BwdMonitor
from ..core.virtual_blocking import VirtualBlockingPolicy
from ..errors import DeadlockError, ProgramError, SimulationError
from ..hw.memmodel import MemoryModel
from ..hw.ple import PauseLoopExiting
from ..hw.topology import Topology
from ..obs.hist import Log2Histogram
from ..obs.session import current_session
from ..prog import actions as A
from ..sim.engine import DEADLINE_POLL_MASK, Engine
from ..sim.rng import RngStreams
from ..sim.trace import TraceRecorder
from .epoll import EpollInstance
from .futex import FutexTable
from .hrtimer import HrTimer
from .locks import SimLockTimeline
from .policy import SchedPolicy, current_policy, get_policy
from .runqueue import CfsRunqueue, QueuedRunnable
from .task import (
    EXITED,
    MODE_COMPUTE,
    MODE_SPIN,
    RUNNABLE,
    RUNNING,
    SLEEPING,
    VBLOCKED,
    ExecProfile,
    Task,
)

class CpuState:
    """Per-CPU scheduler state and accounting."""

    __slots__ = (
        "id",
        "info",
        "rq",
        "rq_lock",
        "sib",
        "event",
        "run_started",
        "run_factor",
        "slice_end",
        "busy_ns",
        "irq_ns",
        "sched_ns",
        "stall_ns",
        "poll_ns",
        "poll_idle_since",
        "last_task",
        "online",
        "nr_switches",
    )

    def __init__(self, cpu_id: int, info,
                 queued_runnable: QueuedRunnable) -> None:
        self.id = cpu_id
        self.info = info
        self.rq = CfsRunqueue(cpu_id, queued_runnable)
        self.rq_lock = SimLockTimeline(f"rq-{cpu_id}")
        self.sib: "CpuState | None" = None  # SMT sibling, wired by Kernel
        self.event = None
        self.run_started = 0
        self.run_factor = 1.0
        self.slice_end = 0
        self.busy_ns = 0
        self.irq_ns = 0
        self.sched_ns = 0
        self.stall_ns = 0  # migration cache-refill stalls (memory-bound)
        self.poll_ns = 0
        self.poll_idle_since: int | None = None
        self.last_task: Task | None = None
        self.online = True
        self.nr_switches = 0  # schedstats: context switches on this CPU


class Kernel:
    """Facade tying the engine, topology, scheduler, and monitors together."""

    # Slots, not a dict: past 29 attributes a CPython 3.11 instance dict
    # stops sharing its keys, and the per-event path's attribute reads,
    # writes and method loads miss the specialized instructions
    # (docs/performance.md, "Instance dicts past 29 attributes").
    __slots__ = (
        # configuration and the machine
        "config", "policy", "engine", "topology", "cpus", "queued_runnable",
        "_online", "_smt_factor", "futex_table", "vb_policy", "memmodel",
        "bwd", "ple", "_ple_timer", "_balance_timer", "epolls",
        # observability, telemetry and checking
        "_obs_session", "trace", "hists", "_h_wakeup", "_h_block",
        "negative_latency_samples", "_obs_sampler", "_obs_reported",
        "rng_streams", "_rng_sched", "_chaos", "invariants",
        "resilience_stats",
        # PSI pressure and the runqueue-depth integral
        "psi_waiting", "psi_running", "_psi_pending", "psi_some_ns",
        "psi_full_ns", "_psi_last", "_psi_bucket_ns", "_psi_next_ckpt",
        "_psi_checkpoints", "rq_depth_integral_ns", "_rqd_total", "_rqd_at",
        # tasks and migrations
        "tasks", "live_tasks", "_stop_at_last_exit", "migrations_in_node",
        "migrations_cross_node", "wake_migrations", "balance_migrations",
        "_spawn_rr", "start_time",
        # engine callbacks, bound once (see __init__)
        "_cpu_event_cb", "_wake_vb_cb", "_wake_vb_placed_cb",
        "_wake_vanilla_cb",
    )

    def __init__(
        self,
        config: SimConfig,
        engine: Engine | None = None,
        trace: TraceRecorder | None = None,
    ):
        self.config = config
        # Scheduling policy (docs/scheduling.md): SimConfig.policy wins,
        # else the process-global default (--policy / REPRO_POLICY).  Every
        # scheduling decision goes through its SchedPolicy hooks; CFS is
        # the base-class hooks.
        pol = config.policy if config.policy is not None else current_policy()
        self.policy = get_policy(pol)
        self.policy.configure(config.scheduler)
        self.engine = engine or Engine()
        # An enclosing observe() session supplies the recorder (and an
        # interval sampler) unless the caller passed an explicit trace.
        self._obs_session = current_session()
        if trace is None and self._obs_session is not None:
            trace = self._obs_session.recorder
        self.trace = trace or TraceRecorder(enabled=False)
        # Always-on latency histograms: O(1) per sample, attached to
        # RunStats.extra by the metrics collector.
        self.hists = {
            name: Log2Histogram(name)
            for name in ("wakeup_latency_ns", "futex_block_ns",
                         "bwd_spin_to_deschedule_ns")
        }
        # Hot-path aliases: skip two dict lookups per latency sample.
        self._h_wakeup = self.hists["wakeup_latency_ns"]
        self._h_block = self.hists["futex_block_ns"]
        # Invariant guard: latency probes must never feed a negative
        # duration to the histograms (chaos clock faults can re-order the
        # timestamps a probe subtracts).  Violations are clamped at the
        # probe site and counted here.
        self.negative_latency_samples = 0
        self._obs_sampler = None
        self._obs_reported = False
        self.rng_streams = RngStreams(config.seed)
        self._rng_sched = self.rng_streams.draws("kernel.sched")
        # A serving run under a resilience policy or fault plan attaches
        # its overload-control counters here (telemetry.schedstats).
        self.resilience_stats = None
        # Callbacks handed to the engine on the per-event path, bound
        # once: 3.11 cannot specialize a method read as a value, so
        # ``self._cpu_event`` would build a new bound method per event.
        self._cpu_event_cb = self._cpu_event
        self._wake_vb_cb = self._finish_wake_vb
        self._wake_vb_placed_cb = self._finish_wake_vb_placed
        self._wake_vanilla_cb = self._finish_wake_vanilla

        hw = config.hardware
        # Topology over the whole machine; ``online`` tracks elastic CPUs.
        self.topology = Topology(hw, online_cpus=None)
        # Queued runnable tasks over all CPUs: _idle_pull's O(1) exit.
        self.queued_runnable = QueuedRunnable()
        self.cpus = [CpuState(c.cpu_id, c, self.queued_runnable)
                     for c in self.topology.cpus]
        initial = config.online_cpus or len(self.cpus)
        if initial > len(self.cpus):
            raise SimulationError(
                f"online_cpus={initial} exceeds machine size {len(self.cpus)}"
            )
        self._online: list[int] = list(range(initial))
        for cpu in self.cpus[initial:]:
            cpu.online = False
        # SMT siblings are static: resolve them once instead of per dispatch.
        for cpu in self.cpus:
            sib = self.topology.smt_sibling(cpu.id)
            if sib is not None and sib < len(self.cpus):
                cpu.sib = self.cpus[sib]
        self._smt_factor = hw.smt_throughput_factor
        if type(self.policy).queue_key is not SchedPolicy.queue_key:
            # A policy that re-keys the queue installs its hook (the VB
            # sentinel still wins inside _key_for).  Vruntime keying leaves
            # key_fn None, which keeps the runqueue's O(1) vruntime floor.
            key_fn = self.policy.queue_key
            for cpu in self.cpus:
                cpu.rq.key_fn = key_fn

        # Schedstats + PSI-style pressure accounting (docs/telemetry.md).
        # ``psi_waiting``/``psi_running`` track runnable-not-running and
        # running task counts; some/full stall time integrates over them.
        # Pure O(1) integer accounting: no RNG draws, no engine events.
        self.psi_waiting = 0
        self.psi_running = 0
        self._psi_pending = False  # deferred +1w/-1r from _put_prev_runnable
        self.psi_some_ns = 0
        self.psi_full_ns = 0
        self._psi_last = self.engine.now
        self._psi_bucket_ns = 10_000_000  # checkpoint cadence (10 ms)
        self._psi_next_ckpt = self.engine.now + self._psi_bucket_ns
        self._psi_checkpoints: list[tuple[int, int, int]] = []
        # Machine-wide runqueue-depth integral (Σ nr_running · dt).  The
        # total only changes at spawn/exit/sleep-park/vanilla-wake —
        # context switches, migrations and VB requeues move tasks between
        # queues but are net-zero — so maintaining it here costs nothing
        # on the switch path, unlike a per-runqueue integral would.
        self.rq_depth_integral_ns = 0
        self._rqd_total = 0
        self._rqd_at = self.engine.now

        self.futex_table = FutexTable()
        self.vb_policy = VirtualBlockingPolicy(config.vb)
        self.memmodel = MemoryModel(hw)
        self.bwd: BwdMonitor | None = None
        if config.bwd.enabled:
            self.bwd = BwdMonitor(
                config.bwd, config.profiling, self.rng_streams.draws("bwd")
            )
            self.bwd.install(self)
        self.ple: PauseLoopExiting | None = None
        self._ple_timer: HrTimer | None = None
        if config.ple.enabled and config.mode is EXEC_VM:
            self.ple = PauseLoopExiting(config.ple, len(self.cpus))
            self._ple_timer = HrTimer(
                self.engine,
                config.ple.window_ns // 2,
                self._ple_tick,
                name="ple",
            )
            self._ple_timer.start()

        self.tasks: list[Task] = []
        self.live_tasks = 0
        # Set while run_to_completion runs: the last exit stops the engine.
        self._stop_at_last_exit = False
        self.migrations_in_node = 0
        self.migrations_cross_node = 0
        self.wake_migrations = 0
        self.balance_migrations = 0
        self._spawn_rr = 0
        self.start_time = self.engine.now

        self._balance_timer = HrTimer(
            self.engine,
            config.scheduler.balance_interval_ns,
            self._balance_tick,
            name="balance",
        )
        self._balance_timer.start()

        # Chaos harness (lazy import: repro.chaos pulls in the runner
        # registry for replay bundles).  A chaos_session() block installs a
        # controller on every kernel built inside it; the invariant checker
        # can also run standalone via REPRO_CHECK_INVARIANTS.
        self.epolls: dict[int, "EpollInstance"] = {}
        self._chaos = None
        self.invariants = None
        from ..chaos import current_chaos

        chaos = current_chaos()
        check = os.environ.get("REPRO_CHECK_INVARIANTS", "") not in ("", "0")
        interval = None
        horizon = None
        if chaos is not None:
            plan = chaos.plan
            if not self.trace.enabled:
                # Replay bundles carry the last trace_tail records; keep
                # a ring of that size even when no observability session
                # is active.
                self.trace = TraceRecorder(enabled=True,
                                           capacity=plan.trace_tail)
            from ..chaos.controller import ChaosController

            self._chaos = ChaosController(self, plan)
            chaos.controllers.append(self._chaos)
            self._chaos.install()
            if plan.check_invariants:
                check = True
            interval = plan.check_interval_events
            horizon = plan.progress_horizon_ns
        if check:
            from ..chaos.invariants import (
                DEFAULT_INTERVAL,
                DEFAULT_PROGRESS_HORIZON_NS,
                InvariantChecker,
            )

            self.invariants = InvariantChecker(
                self,
                interval=DEFAULT_INTERVAL if interval is None else interval,
                progress_horizon_ns=(
                    DEFAULT_PROGRESS_HORIZON_NS if horizon is None else horizon
                ),
            )
            self.engine.on_event = self.invariants.on_event

        # Last: the sampler reads cpus/tasks, which must all exist.
        if self._obs_session is not None:
            self._obs_sampler = self._obs_session.attach(self)

    # ==================================================================
    # Public API
    # ==================================================================
    @property
    def now(self) -> int:
        return self.engine.now

    def online_cpus(self) -> list[int]:
        return list(self._online)

    def current_task(self, cpu_id: int) -> Task | None:
        return self.cpus[cpu_id].rq.curr

    def spawn(
        self,
        program: Generator[A.Action, Any, None],
        name: str = "task",
        profile: ExecProfile | None = None,
        pinned_cpu: int | None = None,
        nice: int = 0,
    ) -> Task:
        """Create a task and enqueue it on an online CPU (round-robin)."""
        if not hasattr(program, "send"):
            raise ProgramError(
                f"spawn() needs a generator (got {type(program).__name__}); "
                "write the program as a function that yields actions"
            )
        task = Task(name, program, profile, nice=nice)
        task.pinned_cpu = pinned_cpu
        task.state_since = self.now
        self.tasks.append(task)
        self.live_tasks += 1
        if pinned_cpu is not None:
            if pinned_cpu not in self._online:
                raise SimulationError(f"pinned CPU {pinned_cpu} is offline")
            target = pinned_cpu
        else:
            target = self._online[self._spawn_rr % len(self._online)]
            self._spawn_rr += 1
        cpu = self.cpus[target]
        task.vruntime = cpu.rq.min_vruntime
        task.set_state(RUNNABLE, self.now)
        self._depth_delta(self.now, 1)
        self._psi_transition(self.now, 1, 0)
        task.last_cpu = target
        cpu.rq.enqueue(task)
        self._check_preempt(cpu, task)
        return task

    def run_for(self, ns: int, max_events: int | None = None) -> None:
        self.engine.run(until=self.engine.now + ns, max_events=max_events)

    def run_to_completion(
        self, max_ns: int = 600_000_000_000, max_events: int | None = None
    ) -> None:
        """Run until every spawned task exits.

        Raises :class:`DeadlockError` if the deadline passes with live tasks.
        """
        deadline = self.engine.now + max_ns
        if self.live_tasks:
            self._stop_at_last_exit = True
            try:
                self.engine.run(until=deadline, max_events=max_events)
            finally:
                self._stop_at_last_exit = False
        if self.live_tasks > 0:
            blocked = tuple(
                f"{t.name}({t.state.value})" for t in self.tasks if t.alive
            )
            raise DeadlockError(
                f"{self.live_tasks} tasks still alive at t={self.engine.now}ns "
                f"(deadline {deadline}ns)",
                blocked_tasks=blocked,
            )
        self.shutdown()

    def shutdown(self) -> None:
        """Cancel periodic timers so the engine can drain."""
        self._balance_timer.cancel()
        if self.bwd is not None:
            self.bwd.uninstall()
        if self._ple_timer is not None:
            self._ple_timer.cancel()
        if self._obs_sampler is not None:
            self._obs_sampler.stop()
        self.obs_report()

    def obs_report(self) -> None:
        """Merge this kernel's histograms into the enclosing observability
        session (idempotent; called from shutdown and the collector so
        runners that stop mid-flight still report)."""
        if self._obs_session is not None and not self._obs_reported:
            self._obs_session.merge_hists(self.hists)
            self._obs_reported = True

    # ------------------------------------------------------------------
    # PSI-style pressure accounting (schedstats)
    # ------------------------------------------------------------------
    def _psi_update(self, now: int) -> None:
        """Integrate some/full stall time up to ``now``, emitting exact
        cumulative checkpoints at every 10 ms bucket boundary crossed."""
        last = self._psi_last
        if now <= last:
            return
        waiting = self.psi_waiting > 0
        if now < self._psi_next_ckpt:
            # Fast path: no bucket boundary crossed (checkpoints are
            # every 10 ms; transitions every few us under load).
            if waiting:
                dt = now - last
                self.psi_some_ns += dt
                if self.psi_running == 0:
                    self.psi_full_ns += dt
            self._psi_last = now
            return
        full = waiting and self.psi_running == 0
        nxt = self._psi_next_ckpt
        while nxt <= now:
            if waiting:
                dt = nxt - last
                self.psi_some_ns += dt
                if full:
                    self.psi_full_ns += dt
            last = nxt
            self._psi_checkpoints.append(
                (nxt, self.psi_some_ns, self.psi_full_ns)
            )
            nxt += self._psi_bucket_ns
        self._psi_next_ckpt = nxt
        if waiting:
            dt = now - last
            self.psi_some_ns += dt
            if full:
                self.psi_full_ns += dt
        self._psi_last = now

    def _psi_transition(self, now: int, d_wait: int, d_run: int) -> None:
        # ``_psi_update`` integrates purely from the predicates
        # ``waiting > 0`` and ``running == 0``; while neither flips, the
        # counters may change freely with no time accounting, and its
        # checkpoint loop handles arbitrarily long constant spans.  So
        # only predicate flips pay for an update — the call per
        # transition is measurable at engine event rates.
        w = self.psi_waiting
        r = self.psi_running
        nw = w + d_wait
        nr = r + d_run
        if (nw > 0) != (w > 0) or (nr == 0) != (r == 0):
            self._psi_update(now)
        self.psi_waiting = nw
        self.psi_running = nr

    def _psi_flush(self, now: int) -> None:
        """Apply a deferred _put_prev_runnable transition when _schedule
        exits without dispatching (offline CPU, failed idle pull, or an
        all-VB-blocked queue polling idle)."""
        if self._psi_pending:
            self._psi_pending = False
            self._psi_transition(now, 1, -1)

    def _depth_delta(self, now: int, delta: int) -> None:
        """Fold the span since the last total-``nr_running`` change into
        the machine-wide depth integral, then apply the change.  Readers
        settle the integral to "now" with ``delta=0``."""
        dt = now - self._rqd_at
        if dt:
            self.rq_depth_integral_ns += dt * self._rqd_total
            self._rqd_at = now
        self._rqd_total += delta

    # ------------------------------------------------------------------
    # Elasticity: runtime CPU reconfiguration
    # ------------------------------------------------------------------
    def set_online_cpus(self, n: int) -> None:
        """Hot-plug CPUs up or down, migrating tasks off offlined CPUs."""
        if n < 1 or n > len(self.cpus):
            raise SimulationError(f"cannot set online cpus to {n}")
        current = len(self._online)
        if n == current:
            return
        if n > current:
            for cpu_id in range(current, n):
                self.cpus[cpu_id].online = True
                self._online.append(cpu_id)
            return
        # Shrink: migrate everything off the victims.
        victims = self._online[n:]
        self._online = self._online[:n]
        for cpu_id in victims:
            cpu = self.cpus[cpu_id]
            cpu.online = False
            self._sync_current(cpu)
            evicted: list[Task] = []
            if cpu.rq.curr is not None:
                task = cpu.rq.curr
                task.set_state(RUNNABLE, self.now)
                task.stats.nr_switches += 1
                task.stats.nr_involuntary += 1
                # Depth integral: net-zero — the task re-enqueues on a
                # surviving CPU via _migrate_into below.
                self._psi_transition(self.now, 1, -1)
                cpu.rq.curr = None
                evicted.append(task)
            while cpu.rq.nr_queued:
                t = cpu.rq.pick_next()
                evicted.append(t)
            self._cancel_cpu_event(cpu)
            cpu.poll_idle_since = None
            for i, task in enumerate(evicted):
                if task.pinned_cpu is not None:
                    raise SimulationError(
                        f"pinned task {task.name} lost its CPU {cpu_id} "
                        "(the paper: pinned programs crash when CPUs shrink)"
                    )
                dest = self.cpus[self._online[i % len(self._online)]]
                self._migrate_into(task, dest, count=True)

    # ==================================================================
    # Core scheduling
    # ==================================================================
    def _cancel_cpu_event(self, cpu: CpuState) -> None:
        if cpu.event is not None:
            self.engine.cancel(cpu.event)
            cpu.event = None

    def _sync_current(self, cpu: CpuState) -> None:
        """Fold the running task's progress up to ``now`` into its state."""
        task = cpu.rq.curr
        if task is None:
            return
        now = self.engine.now
        start = cpu.run_started
        if now <= start:
            return
        elapsed = now - start
        cpu.busy_ns += elapsed
        # CFS: virtual runtime advances inversely to the task's weight.
        if task.weight == 1024:
            task.vruntime += elapsed
        else:
            task.vruntime += elapsed * 1024 // task.weight
        rem = task.action_remaining
        if rem is not None:
            # run_factor is 1.0 except under a busy SMT sibling; skip the
            # float multiply on the common path.
            rf = cpu.run_factor
            rem -= elapsed if rf == 1.0 else int(elapsed * rf)
            task.action_remaining = rem if rem > 0 else 0
        # Inlined task.account_state(now) for the running task (this is
        # the single hottest accounting site).
        if task.state is RUNNING:
            acct = now - task.state_since
            if acct > 0:
                if task.mode is MODE_COMPUTE:
                    task.stats.cpu_ns += acct
                else:
                    task.stats.spin_ns += acct
            task.state_since = now
        else:
            task.account_state(now)
        cpu.run_started = now

    def _schedule(self, cpu: CpuState) -> None:
        """Pick the next task for an idle CPU (rq.curr must be None)."""
        assert cpu.rq.curr is None
        now = self.engine.now
        if not cpu.online:
            self._psi_flush(now)
            return
        head = cpu.rq.peek_next()
        if head is None:
            pulled = self._idle_pull(cpu)
            if pulled is None:
                self._psi_flush(now)
                self._cancel_cpu_event(cpu)
                return
            head = pulled
            cpu.rq.enqueue(head)
        if head.thread_state:
            # Every queued task is virtually blocked: the CPU cycles through
            # them polling thread_state (Section 3.1).  Modeled as poll-idle:
            # the wake path charges the expected poll latency.
            self._psi_flush(now)
            self.vb_policy.stats.all_blocked_polls += 1
            if cpu.poll_idle_since is None:
                cpu.poll_idle_since = now
            self._cancel_cpu_event(cpu)
            return
        task = self.policy.pick_next(cpu.rq)
        cpu.rq.curr = task
        self._dispatch(cpu, task)

    def _dispatch(self, cpu: CpuState, task: Task) -> None:
        now = self.engine.now
        sched = self.config.scheduler
        delay = 0
        if cpu.last_task is not task:
            delay += sched.context_switch_ns
            cpu.sched_ns += sched.context_switch_ns
            task.stats.nr_switches += 1
            cpu.nr_switches += 1
        # _psi_transition, inlined (hot path).
        if self._psi_pending:
            # Cancels the deferred transition from
            # _put_prev_runnable at this same timestamp.
            self._psi_pending = False
        else:
            w = self.psi_waiting
            if w == 1 or self.psi_running == 0:
                self._psi_update(now)
            self.psi_waiting = w - 1
            self.psi_running += 1
        if task.pending_penalty_ns:
            # Cache/TLB refill after a migration: the core stalls on memory
            # (counted separately so utilization reflects lost capacity).
            delay += task.pending_penalty_ns
            cpu.stall_ns += task.pending_penalty_ns
            task.pending_penalty_ns = 0
        task.set_state(RUNNING, now)
        # The switch/stall delay is machine overhead, not task CPU time.
        task.state_since = now + delay
        task.cpu = cpu.id
        task.last_cpu = cpu.id
        task.on_cpu_since = now
        if task.woken_at is not None:
            lat = now - task.woken_at
            if lat < 0:
                self.negative_latency_samples += 1
                lat = 0
            task.stats.wakeup_latency_ns += lat
            self._h_wakeup.record(lat)
            task.woken_at = None
        task.skip_flag = False
        cpu.run_started = now + delay
        # SMT: the task runs slower while its sibling core is busy.
        sib = cpu.sib
        cpu.run_factor = (
            self._smt_factor
            if sib is not None and sib.online and sib.rq.curr is not None
            else 1.0
        )
        nr = cpu.rq.nr_schedulable()
        cpu.slice_end = now + delay + self.policy.slice_ns(nr if nr > 1 else 1)
        cpu.rq.update_min_vruntime()
        if self.trace.enabled:
            self.trace.emit(now, "dispatch", cpu.id, task.name)
        self._continue(cpu)

    def _continue(self, cpu: CpuState) -> None:
        """Arm the engine event for the current task's next milestone."""
        end = self._advance(cpu, cpu.rq.curr)
        if end is None:
            return
        engine = self.engine
        ev = cpu.event
        if ev is not None:
            engine.cancel(ev)
        cpu.event = engine.schedule_at(end, self._cpu_event_cb, cpu)

    def _advance(self, cpu: CpuState, task: Task) -> int | None:
        """Run ``task``'s program up to its next action and return the
        time of its next milestone, or None if the CPU was already
        rescheduled (the task exited, or a satisfied spin re-armed it)."""
        now = self.engine.now
        # Resolve any completed blocking action, then resume the generator
        # and start its next action.  This loop runs once per action,
        # millions of times per simulation, so both steps are inline.
        while True:
            if task.wake_completed:
                task.wake_completed = False
                task.block_kind = None
                if task.mode is MODE_SPIN:
                    # Back from a spin-then-park wait: normal execution.
                    task.set_mode(MODE_COMPUTE, now)
            elif task.action is not None:
                break
            try:
                action = task.program.send(task.pending_result)
            except StopIteration:
                self._exit_task(cpu, task)
                return None
            except Exception as exc:  # a buggy program, not the simulator
                task.exit_error = exc
                self._exit_task(cpu, task)
                raise ProgramError(
                    f"program of task {task.name!r} raised {exc!r}"
                ) from exc
            task.pending_result = None
            task.action = action
            acls = action.__class__
            if acls is _COMPUTE:
                ns = action.ns
                task.action_remaining = ns if ns > 1 else 1
            else:
                handler = _ACTION_DISPATCH.get(acls)
                if handler is not None:
                    handler(self, cpu, task, action)
                else:
                    self._start_action_generic(cpu, task, action)
        rem = task.action_remaining
        if rem is None:
            # Spinning: re-check the condition (it may have been satisfied
            # while this task was off-CPU), else burn until slice expiry.
            if self._spin_recheck_condition(cpu, task):
                return None  # converted into a grab charge and re-armed
            return cpu.slice_end
        rf = cpu.run_factor
        need = rem if rf == 1.0 else math.ceil(rem / rf)
        end = cpu.run_started + need
        slice_end = cpu.slice_end
        if slice_end < end:
            end = slice_end
        return end if end > now else now

    def _cpu_event(self, cpu: CpuState) -> None:
        """The running task reached a milestone.  While each next one
        comes strictly before every queued event, and no later than the
        run's bound, it runs here in place (run-ahead): it would have been
        the very next event popped, so the order is unchanged."""
        engine = self.engine
        heap = engine.heap
        task = cpu.rq.curr
        while True:
            # Inlined _sync_current (the single hottest call site; the
            # method remains for the preempt/sampler paths).
            now = engine.now
            start = cpu.run_started
            if now > start:
                elapsed = now - start
                cpu.busy_ns += elapsed
                if task.weight == 1024:
                    task.vruntime += elapsed
                else:
                    task.vruntime += elapsed * 1024 // task.weight
                rem = task.action_remaining
                if rem is not None:
                    rf = cpu.run_factor
                    rem -= elapsed if rf == 1.0 else int(elapsed * rf)
                    task.action_remaining = rem if rem > 0 else 0
                if task.state is RUNNING:
                    acct = now - task.state_since
                    if acct > 0:
                        if task.mode is MODE_COMPUTE:
                            task.stats.cpu_ns += acct
                        else:
                            task.stats.spin_ns += acct
                    task.state_since = now
                else:
                    task.account_state(now)
                cpu.run_started = now
            if task.action_remaining == 0:
                # Plain completion (no park, no yield/sleep special case)
                # goes straight on to the next action.
                if (task.action.__class__ not in _PLAIN_COMPLETE
                        or task.block_kind is not None):
                    self._complete_action(cpu, task)
                    return
                task.action = None
            elif now >= cpu.slice_end:
                task.stats.nr_slice_expiries += 1
                if self.policy.tick_preempt(cpu.rq, task):
                    # Involuntary preemption at slice expiry.
                    task.stats.nr_involuntary += 1
                    if self.trace.enabled:
                        head = cpu.rq.peek_next()
                        self.trace.emit(now, "slice-expiry", cpu.id,
                                        task.name, preempted=True)
                        self.trace.emit(
                            now, "preempt", cpu.id, task.name,
                            reason="slice-expiry",
                            by=head.name if head is not None else None)
                    self._put_prev_runnable(cpu)
                    self._schedule(cpu)
                    return
                # Nothing else runnable: renew the slice in place.
                if self.trace.enabled:
                    self.trace.emit(now, "slice-expiry", cpu.id, task.name,
                                    preempted=False)
                nr = cpu.rq.nr_schedulable()
                cpu.slice_end = now + self.policy.slice_ns(nr if nr > 1 else 1)
            end = self._advance(cpu, task)
            if end is None:
                return
            if heap and end < heap[0][0] and end <= engine.ahead_until:
                engine.now = end
                n = engine.events_run = engine.events_run + 1
                if not n & DEADLINE_POLL_MASK:
                    engine.poll_deadline()
                continue
            cpu.event = engine.schedule_at(end, self._cpu_event_cb, cpu)
            return

    def _put_prev_runnable(self, cpu: CpuState) -> None:
        task = cpu.rq.curr
        assert task is not None
        now = self.engine.now
        task.set_state(RUNNABLE, now)
        # Defer the (+1 waiting, -1 running) transition: every caller
        # follows with _schedule at this same timestamp, whose dispatch
        # applies the exact inverse — net-zero on the counters, and the
        # transient state lasts zero time.  Only _schedule's no-dispatch
        # exits pay it (_psi_flush).  Depth integral: also net-zero — the
        # task re-enqueues on this same runqueue just below.
        self._psi_pending = True
        cpu.rq.curr = None
        cpu.last_task = task
        cpu.rq.enqueue(task)
        cpu.rq.update_min_vruntime()

    def _exit_task(self, cpu: CpuState, task: Task) -> None:
        now = self.engine.now
        task.set_state(EXITED, now)
        task.exited_at = now
        task.cpu = None
        self.live_tasks -= 1
        if not self.live_tasks and self._stop_at_last_exit:
            self.engine.stop()
        self._depth_delta(now, -1)
        self._psi_transition(now, 0, -1)
        cpu.rq.curr = None
        cpu.last_task = task
        if self.trace.enabled:
            self.trace.emit(now, "exit", cpu.id, task.name)
        self._schedule(cpu)

    # ==================================================================
    # Action semantics
    # ==================================================================
    def _act_compute(self, cpu: CpuState, task: Task, action) -> None:
        ns = action.ns
        task.action_remaining = ns if ns > 1 else 1

    def _act_memtraverse(self, cpu: CpuState, task: Task, action) -> None:
        epoch = self.memmodel.epoch(
            action.pattern,
            action.region_bytes,
            action.total_bytes,
            action.nthreads,
        )
        task.action_remaining = max(1, int(epoch.time_ns * action.epochs))

    def _act_atomic_rmw(self, cpu: CpuState, task: Task, action) -> None:
        user = self.config.user
        ctr = action.counter
        my_core = self.topology.core_of(cpu.id)
        remote = (
            ctr.last_writer_cpu is not None
            and ctr.last_writer_cpu != my_core
        )
        per_op = user.atomic_ns + (
            user.atomic_remote_extra_ns if remote else 0
        )
        ctr.last_writer_cpu = my_core
        ctr.value += action.count
        ctr.updates += action.count
        task.action_remaining = max(1, per_op * action.count)

    def _act_syscall_stub(self, cpu: CpuState, task: Task, action) -> None:
        # Yield / SleepNs: the on-CPU charge is just the syscall entry;
        # the interesting part happens at completion.
        task.action_remaining = self.config.futex.syscall_entry_ns

    def _act_blocking(self, cpu: CpuState, task: Task, action) -> None:
        cost = _BLOCKING_ENTRY[action.__class__](self, task, action)
        task.action_remaining = cost if cost > 1 else 1

    def _act_spin_acquire(self, cpu: CpuState, task: Task, action) -> None:
        lock = action.lock
        if lock.try_acquire(task):
            task.action_remaining = self.config.user.fast_ns
        else:
            lock.add_waiter(task)
            task.spin_target = lock
            task.set_mode(MODE_SPIN, self.engine.now)
            task.action_remaining = None

    def _act_spin_release(self, cpu: CpuState, task: Task, action) -> None:
        candidates = action.lock.release(task)
        self._notify_spinners(candidates, action.lock)
        task.action_remaining = self.config.user.fast_ns

    def _act_spin_until_flag(self, cpu: CpuState, task: Task, action) -> None:
        flag = action.flag
        if flag.value >= action.target:
            task.action_remaining = self.config.user.fast_ns
        else:
            flag.waiters.append(task)
            task.spin_target = action
            task.set_mode(MODE_SPIN, self.engine.now)
            task.action_remaining = None

    def _act_flag_set(self, cpu: CpuState, task: Task, action) -> None:
        flag = action.flag
        flag.value = flag.value + action.value if action.add else action.value
        satisfied = [t for t in flag.waiters]
        self._notify_spinners(satisfied, flag)
        task.action_remaining = self.config.user.flag_write_ns

    def _act_epoll_wait(self, cpu: CpuState, task: Task, action) -> None:
        ep: EpollInstance = action.epoll
        self.epolls.setdefault(id(ep), ep)
        if len(ep):
            task.pending_result = ep.take(action.max_events)
            task.action_remaining = self.config.futex.syscall_entry_ns
        else:
            cost = self.futex_wait(task, ep)
            task.action_remaining = cost if cost > 1 else 1

    def _start_action_generic(
        self, cpu: CpuState, task: Task, action: A.Action
    ) -> None:
        """Fallback for action *subclasses*: resolve by isinstance, then
        cache the winning handler (and, for a blocking action, its entry
        hook) for the concrete type, so later actions are one lookup."""
        for cls, handler in list(_ACTION_DISPATCH.items()):
            if isinstance(action, cls):
                sub = action.__class__
                _ACTION_DISPATCH[sub] = handler
                if cls in _BLOCKING_ENTRY:
                    _BLOCKING_ENTRY[sub] = _BLOCKING_ENTRY[cls]
                handler(self, cpu, task, action)
                return
        raise ProgramError(f"unknown action {action!r} from {task.name}")

    def _complete_action(self, cpu: CpuState, task: Task) -> None:
        """The current action's charge finished; apply completion effects."""
        action = task.action
        now = self.engine.now
        if isinstance(action, A.Yield):
            task.action = None
            task.stats.nr_voluntary += 1
            # Step behind peers at the same vruntime.
            task.vruntime += 1
            self._put_prev_runnable(cpu)
            self._schedule(cpu)
            return
        if isinstance(action, A.SleepNs):
            task.action = None
            task.pending_result = None
            self._park(cpu, task, "sleep")
            self.engine.schedule(action.ns, self._timer_wake, task)
            return
        if task.block_kind is not None:
            # A blocking action whose entry decided to park.
            if task.wake_pending:
                # The wake raced with the pre-park window: consume it.
                task.wake_pending = False
                task.block_kind = None
                task.action = None
                self._continue(cpu)
                return
            task.action = None
            if task.mode is MODE_SPIN:
                task.set_mode(MODE_COMPUTE, now)
            self._park(cpu, task, task.block_kind)
            return
        # Ordinary completion: continue with the next action in-slice.
        task.action = None
        self._continue(cpu)

    # ==================================================================
    # Parking and waking
    # ==================================================================
    def _park(self, cpu: CpuState, task: Task, kind: str) -> None:
        now = self.engine.now
        task.stats.nr_voluntary += 1
        task.stats.nr_switches += 1
        if kind != "vb":  # VB keeps the task queued: depth unchanged
            self._depth_delta(now, -1)
        self._psi_transition(now, 0, -1)
        cpu.rq.curr = None
        cpu.last_task = task
        if kind == "vb":
            task.thread_state = 1
            task.saved_vruntime = task.vruntime
            task.set_state(VBLOCKED, now)
            task.vb_cpu = cpu.id
            cpu.rq.enqueue(task)  # tail position via the sentinel key
        else:
            task.set_state(SLEEPING, now)
            task.cpu = None
        cpu.rq.update_min_vruntime()
        if self.trace.enabled:
            self.trace.emit(now, "park", cpu.id, task.name, how=kind)
        self._schedule(cpu)

    def futex_wait(self, task: Task, obj: Any) -> int:
        """Primitive hook: queue ``task`` on ``obj``'s bucket and arrange the
        park.  Returns the pre-park on-CPU cost (Figure 5 steps 1-4)."""
        fc = self.config.futex
        bucket = self.futex_table.bucket(obj)
        cost = fc.syscall_entry_ns + bucket.lock.acquire(
            self.engine.now, fc.bucket_lock_hold_ns
        )
        if self.vb_policy.config.enabled:
            # VB park: flip thread_state and re-key at the tail of the
            # local runqueue — no sleep-queue shuttling.
            cost += self.config.vb.block_cost_ns
            task.block_kind = "vb"
            self.vb_policy.stats.vb_blocks += 1
        else:
            cost += fc.sleep_dequeue_ns
            task.block_kind = "sleep"
            self.vb_policy.stats.vanilla_blocks += 1
        bucket.waiters.append(task)
        bucket.total_waits += 1
        task.stats.nr_blocks += 1
        task.stats.nr_futex_waits += 1
        if self.trace.enabled:
            self.trace.emit(
                self.engine.now, "futex-wait",
                task.cpu if task.cpu is not None else -1, task.name,
                waiters=len(bucket.waiters), vb=task.block_kind == "vb",
            )
        return cost

    def futex_wait_spin(self, task: Task, obj: Any, spin_ns: int) -> int:
        """Spin-then-park (Mutexee / MCS-TP / SHFLLOCK): the waiter joins
        the futex queue, busy-waits for ``spin_ns`` hoping for a fast
        handoff, then parks.  A wake landing inside the spin window is
        consumed at park time (no sleep happens); the spin itself runs in
        SPIN mode, so it is accounted as burned cycles and is visible to
        BWD when the window exceeds a monitoring period."""
        cost = self.futex_wait(task, obj)
        if spin_ns > 0:
            task.set_mode(MODE_SPIN, self.engine.now)
        return cost + max(0, spin_ns)

    def futex_waiters(self, obj: Any) -> int:
        return self.futex_table.waiter_count(obj)

    def futex_peek(self, obj: Any) -> Task | None:
        """First waiter in FIFO order (the one futex_wake(n=1) would wake)."""
        bucket = self.futex_table.bucket(obj)
        return bucket.waiters[0] if bucket.waiters else None

    def futex_requeue_front(self, obj: Any, task: Task) -> bool:
        """Move ``task`` to the front of the bucket queue (SHFLLOCK's
        shuffler reorders waiters without waking them)."""
        bucket = self.futex_table.bucket(obj)
        try:
            bucket.waiters.remove(task)
        except ValueError:
            return False
        bucket.waiters.appendleft(task)
        return True

    def futex_requeue(
        self,
        waker: Task | None,
        src_obj: Any,
        dst_obj: Any,
        wake_n: int = 1,
    ) -> int:
        """FUTEX_CMP_REQUEUE: wake ``wake_n`` waiters of ``src_obj`` and
        splice the remaining waiters onto ``dst_obj``'s queue unwoken.

        glibc's ``pthread_cond_broadcast`` uses this to avoid the
        thundering herd: one waiter wakes, the rest queue directly on the
        mutex and are woken one at a time as it is handed over.  Returns
        the cost charged to the waker; the splice is a per-waiter queue
        move under the two bucket locks — far cheaper than full wakeups.
        """
        fc = self.config.futex
        src = self.futex_table.bucket(src_obj)
        dst = self.futex_table.bucket(dst_obj)
        cost = self.futex_wake(waker, src_obj, wake_n)
        now = self.engine.now
        moved = 0
        while src.waiters:
            w = src.waiters.popleft()
            dst.waiters.append(w)
            moved += 1
        if moved:
            cost += src.lock.acquire(now + cost, fc.bucket_lock_hold_ns)
            cost += dst.lock.acquire(now + cost, fc.bucket_lock_hold_ns)
            cost += moved * fc.wakeq_move_ns
        return cost

    def futex_wake(
        self,
        waker: Task | None,
        obj: Any,
        n: int = 1,
        result: Any = None,
    ) -> int:
        """Primitive hook: wake up to ``n`` waiters of ``obj``.

        Returns the total cost charged to the waker (it processes the wake
        queue serially, Figure 5 steps 5-7).  ``waker=None`` models an
        interrupt-context wake (timer, network RX): costs land on the target
        CPU's interrupt accounting instead.
        """
        fc = self.config.futex
        vbc = self.config.vb
        bucket = self.futex_table.bucket(obj)
        # VB's under-subscription rule (Section 3.1): when fewer threads
        # wait on this bucket than there are cores, every waiter can get a
        # dedicated core on simultaneous wakeup, so VB's stay-in-place wake
        # is *disabled* and the wake selects a core like a normal wakeup
        # (still without sleep-queue shuttling).  Oversubscribed buckets
        # wake in place.
        n_online = len(self._online)
        in_place = self.vb_policy.wake_in_place(
            len(bucket.waiters), n_online
        )
        total = fc.syscall_entry_ns if waker is not None else 0
        engine = self.engine
        # Chaos interception point: an installed controller may delay or
        # drop individual wake completions (fault model "wake-delay" /
        # "wake-drop"); without one this is engine.schedule_at verbatim.
        chaos = self._chaos
        sched_wake = engine.schedule_at if chaos is None else chaos.schedule_wake
        t = engine.now + total
        woken = 0
        sync_wake = n == 1
        # Loop-invariant: the idlest-core scan cost depends only on the
        # online-CPU count.
        select_cost = fc.select_core_ns(n_online)
        while bucket.waiters and woken < n:
            w = bucket.waiters.popleft()
            bucket.total_wakes += 1
            w.pending_result = result
            w.sync_wake = sync_wake
            if w.block_kind == "vb" and in_place:
                c = vbc.wake_cost_ns
                t += c
                total += c
                sched_wake(t, self._wake_vb_cb, w)
                self.vb_policy.stats.vb_wakes += 1
            elif w.block_kind == "vb":
                c = select_cost
                proxy = w.last_cpu if w.last_cpu is not None else self._online[0]
                c += self.cpus[proxy].rq_lock.acquire(
                    t + c, fc.rq_lock_hold_ns
                )
                c += fc.enqueue_ns
                t += c
                total += c
                sched_wake(t, self._wake_vb_placed_cb, w)
                self.vb_policy.stats.vb_placed_wakes += 1
            else:
                c = bucket.lock.acquire(t, fc.bucket_lock_hold_ns)
                c += fc.wakeq_move_ns
                c += select_cost
                # The runqueue-lock serialization is costed against the
                # waiter's previous CPU; the actual placement is decided at
                # finish time, when earlier wakes of this batch are visible.
                proxy = w.last_cpu if w.last_cpu is not None else self._online[0]
                c += self.cpus[proxy].rq_lock.acquire(
                    t + c, fc.rq_lock_hold_ns
                )
                c += fc.enqueue_ns
                t += c
                total += c
                sched_wake(t, self._wake_vanilla_cb, w)
                self.vb_policy.stats.vanilla_wakes += 1
            woken += 1
        if waker is None and woken:
            # Interrupt-context processing time.
            self.cpus[self._online[0]].irq_ns += total
        if self.trace.enabled and woken:
            wcpu = -1
            if waker is not None and waker.cpu is not None:
                wcpu = waker.cpu
            self.trace.emit(
                engine.now, "futex-wake", wcpu,
                waker.name if waker is not None else None,
                woken=woken, remaining=len(bucket.waiters),
                in_place=in_place, cost_ns=total,
            )
        return total

    def _select_wake_cpu(self, task: Task, sync: bool = False) -> int:
        """select_task_rq at wakeup: the previous CPU if it is idle;
        otherwise the idlest CPU, keeping the previous one on a tie only
        with ``wake_affinity_bias`` probability.  Under bursty group
        wakeups this spreads threads across cores — the migration churn
        the paper measures in Table 1.

        ``sync`` marks 1:1 wakeups (mutex/semaphore handoffs): wake_affine
        keeps those near their cache unless the previous CPU is clearly
        overloaded."""
        if task.pinned_cpu is not None:
            return task.pinned_cpu
        cpus = self.cpus
        # Known double count: the discount below assumes a virtually-blocked
        # task still sits on its home runqueue, but the only VBLOCKED
        # caller, _finish_wake_vb_placed, has already dequeued it there, so
        # the home CPU counts one task light. Dropping the discount changes
        # fig10b/cond/{8c,16c}/opt results: a digest change for the ROADMAP
        # item "Close or explain the three catalogued deviations" (see the
        # xfail test in tests/test_kernel_blocking.py).
        vb_home = task.vb_cpu if task.state is VBLOCKED else None

        prev = task.last_cpu
        prev_ok = prev is not None and cpus[prev].online
        prev_load = 0
        if prev_ok:
            rq = cpus[prev].rq
            # rq.nr_running, spelled out: the property call is measurable
            # in these per-wake loops over every online CPU.
            prev_load = rq.tree.size + (1 if rq.curr is not None else 0)
            if prev == vb_home:
                prev_load -= 1
            if prev_load == 0:
                return prev
            if sync:
                min_load = None
                for c in self._online:
                    rq = cpus[c].rq
                    load = rq.tree.size + (1 if rq.curr is not None else 0)
                    if min_load is None or load < min_load:
                        min_load = load
                if prev_load <= min_load + 1:
                    return prev
        best: list[int] = []
        best_load = None
        for cpu_id in self._online:
            rq = cpus[cpu_id].rq
            load = rq.tree.size + (1 if rq.curr is not None else 0)
            if cpu_id == vb_home:
                load -= 1
            if best_load is None or load < best_load:
                best_load = load
                best = [cpu_id]
            elif load == best_load:
                best.append(cpu_id)
        assert best_load is not None
        bias = self.config.scheduler.wake_affinity_bias
        if best_load >= 1:
            # No idle CPU: wake_affine keeps 1:1 wakeups near their cache
            # unless the previous CPU is clearly overloaded.
            if (
                prev_ok
                and prev_load <= best_load + 1
                and self._rng_sched.random() < 0.8 + 0.2 * bias
            ):
                return prev
        elif len(best) > 1 and prev in best:
            if self._rng_sched.random() < bias:
                return prev
        if len(best) == 1:
            return best[0]
        return best[self._rng_sched.integers(0, len(best))]

    def _count_migration(self, task: Task, dest_cpu: int, wake: bool) -> None:
        src = task.last_cpu
        if src is None or src == dest_cpu:
            return
        sched = self.config.scheduler
        weight = task.profile.migration_weight
        if self.topology.same_node(src, dest_cpu):
            self.migrations_in_node += 1
            task.stats.nr_migrations_in_node += 1
            task.pending_penalty_ns += int(
                sched.migration_cost_in_node_ns * weight
            )
        else:
            self.migrations_cross_node += 1
            task.stats.nr_migrations_cross_node += 1
            task.pending_penalty_ns += int(
                sched.migration_cost_cross_node_ns * weight
            )
        if wake:
            self.wake_migrations += 1
        else:
            self.balance_migrations += 1

    def _finish_wake_vanilla(self, task: Task, target: int | None = None) -> None:
        state = task.state
        if state is RUNNING or state is RUNNABLE:
            # Still in (or preempted during) its pre-park window: flag the
            # wake so the park consumes it instead of sleeping.
            task.wake_pending = True
            return
        if state is not SLEEPING:
            return
        now = self.engine.now
        # Placement decided now, with every earlier wake of the batch
        # already enqueued and visible.
        if target is None or not self.cpus[target].online:
            target = self._select_wake_cpu(task, task.sync_wake)
        cpu = self.cpus[target]
        self._count_migration(task, target, True)
        blocked_ns = now - task.state_since
        if blocked_ns < 0:
            self.negative_latency_samples += 1
            blocked_ns = 0
        self._h_block.record(blocked_ns)
        task.set_state(RUNNABLE, now)
        self._depth_delta(now, 1)  # sleeping -> queued
        self._psi_transition(now, 1, 0)
        task.block_kind = None
        task.wake_completed = True
        task.woken_at = now
        task.stats.nr_wakeups += 1
        self.policy.place_wakeup(cpu.rq, task)
        cpu.rq.enqueue(task)
        if self.trace.enabled:
            self.trace.emit(now, "wake", target, task.name, how="vanilla")
        self._check_preempt(cpu, task)

    def _finish_wake_vb(self, task: Task) -> None:
        state = task.state
        if state is RUNNING or state is RUNNABLE:
            task.wake_pending = True
            return
        if state is not VBLOCKED:
            return
        now = self.engine.now
        cpu = self.cpus[task.vb_cpu]
        task.thread_state = 0
        saved = task.saved_vruntime
        task.vruntime = saved if saved is not None else task.vruntime
        task.saved_vruntime = None
        if self.config.vb.immediate_schedule:
            # Immediate-schedule preference for VB wakers (Section 3.1):
            # at most the queue's min_vruntime, at least half a latency
            # period below it.  Comparisons, not min()/max(): this runs
            # on every in-place VB wake.
            min_vr = cpu.rq.min_vruntime
            vr = task.vruntime
            if vr > min_vr:
                vr = min_vr
            floor = min_vr - self.config.scheduler.sched_latency_ns // 2
            task.vruntime = vr if vr > floor else floor
        blocked_ns = now - task.state_since
        if blocked_ns < 0:
            self.negative_latency_samples += 1
            blocked_ns = 0
        self._h_block.record(blocked_ns)
        task.set_state(RUNNABLE, now)
        self._psi_transition(now, 1, 0)
        task.block_kind = None
        task.wake_completed = True
        task.woken_at = now
        task.stats.nr_wakeups += 1
        if not self.config.vb.immediate_schedule:
            # Ablation: no immediate-schedule preference; the woken task
            # keeps its restored vruntime and waits its fair turn.
            if task.vruntime < cpu.rq.min_vruntime:
                task.vruntime = cpu.rq.min_vruntime
        cpu.rq.requeue(task)  # re-key from the sentinel to the real vruntime
        if cpu.poll_idle_since is not None:
            # The woken task pays the expected flag-poll latency.
            cpu.poll_ns += now - cpu.poll_idle_since
            cpu.poll_idle_since = None
            task.pending_penalty_ns += self.config.vb.all_blocked_poll_ns // 2
        if self.trace.enabled:
            self.trace.emit(now, "wake", cpu.id, task.name, how="vb")
        self._check_preempt(cpu, task)

    def _finish_wake_vb_placed(self, task: Task, target: int | None = None) -> None:
        """VB wake with core selection (the bucket was under-subscribed):
        clear the flag, move the task from its home queue to the chosen
        CPU's queue."""
        state = task.state
        if state is RUNNING or state is RUNNABLE:
            task.wake_pending = True
            return
        if state is not VBLOCKED:
            return
        now = self.engine.now
        home = self.cpus[task.vb_cpu]
        home.rq.dequeue(task)
        if home.poll_idle_since is not None:
            home.poll_ns += now - home.poll_idle_since
            home.poll_idle_since = None
            if home.rq.curr is None and home.online:
                self._schedule(home)
        task.thread_state = 0
        if task.saved_vruntime is not None:
            task.vruntime = task.saved_vruntime
            task.saved_vruntime = None
        # Placement decided now (see _finish_wake_vanilla).
        if target is None or not self.cpus[target].online:
            target = self._select_wake_cpu(task, task.sync_wake)
        cpu = self.cpus[target]
        self._count_migration(task, target, True)
        blocked_ns = now - task.state_since
        if blocked_ns < 0:
            self.negative_latency_samples += 1
            blocked_ns = 0
        self._h_block.record(blocked_ns)
        task.set_state(RUNNABLE, now)
        self._psi_transition(now, 1, 0)
        task.block_kind = None
        task.wake_completed = True
        task.woken_at = now
        task.stats.nr_wakeups += 1
        task.vruntime = (
            task.vruntime - home.rq.min_vruntime + cpu.rq.min_vruntime
        )
        self.policy.place_wakeup(cpu.rq, task)
        cpu.rq.enqueue(task)
        if self.trace.enabled:
            self.trace.emit(now, "wake", target, task.name, how="vb-placed")
        self._check_preempt(cpu, task)

    def _timer_wake(self, task: Task) -> None:
        if task.state is RUNNING:
            task.wake_pending = True
            return
        if task.state is not SLEEPING:
            return
        target = self._select_wake_cpu(task)
        self._finish_wake_vanilla(task, target)

    def _check_preempt(self, cpu: CpuState, woken: Task) -> None:
        curr = cpu.rq.curr
        if curr is None:
            if cpu.online:
                self._schedule(cpu)
            return
        self._sync_current(cpu)
        if self.policy.check_preempt(curr, woken):
            curr.stats.nr_involuntary += 1
            if self.trace.enabled:
                self.trace.emit(self.now, "preempt", cpu.id, curr.name,
                                reason="wakeup", by=woken.name)
            self._cancel_cpu_event(cpu)
            self._put_prev_runnable(cpu)
            self._schedule(cpu)

    # ==================================================================
    # Spinning
    # ==================================================================
    def _notify_spinners(self, candidates: list[Task], target: Any) -> None:
        """A spin release/flag-set may allow waiters to proceed.  Running
        spinners notice after a cacheline-transfer delay; descheduled ones
        re-check when next dispatched."""
        grant = self.config.user.spin_grant_ns
        for c in candidates:
            if c.state is RUNNING and c.mode is MODE_SPIN:
                self.engine.schedule(grant, self._spin_notify, c)

    def _spin_notify(self, task: Task) -> None:
        if task.state is not RUNNING or task.mode is not MODE_SPIN:
            return
        cpu = self.cpus[task.cpu]
        if cpu.rq.curr is not task:
            return
        self._sync_current(cpu)
        if self._spin_recheck_condition(cpu, task):
            return
        # Condition not ours (another spinner won the race): keep spinning.

    def _spin_recheck_condition(self, cpu: CpuState, task: Task) -> bool:
        """If the spin target is now satisfied, convert the spin into a
        short grab charge.  Returns True if converted (and rescheduled)."""
        action = task.action
        satisfied = False
        if isinstance(action, A.SpinAcquire):
            satisfied = action.lock.try_acquire(task)
        elif isinstance(action, A.SpinUntilFlag):
            flag = action.flag
            if flag.value >= action.target:
                satisfied = True
                if task in flag.waiters:
                    flag.waiters.remove(task)
        if not satisfied:
            return False
        task.set_mode(MODE_COMPUTE, self.engine.now)
        task.spin_target = None
        task.action_remaining = self.config.user.spin_grant_ns
        self._continue(cpu)
        return True

    def bwd_deschedule(self, cpu_id: int, task: Task, cost_ns: int) -> None:
        """BWD hook: kick the spinning task off the CPU with a skip flag —
        it runs again only after everyone else on this queue had a turn."""
        cpu = self.cpus[cpu_id]
        if cpu.rq.curr is not task:
            return
        self._sync_current(cpu)
        cpu.irq_ns += cost_ns
        task.stats.nr_involuntary += 1
        task.stats.bwd_deschedules += 1
        if self.config.bwd.skip_flag:
            task.skip_flag = True
            # Skip semantics: place behind every queued runnable task.
            max_vr = cpu.rq.max_runnable_vruntime()
            if max_vr is None or max_vr < task.vruntime:
                max_vr = task.vruntime
            task.vruntime = max_vr + 1
        spin_ns = (
            self.engine.now - max(task.mode_since, task.on_cpu_since)
            if task.mode is MODE_SPIN else 0
        )
        if spin_ns < 0:
            self.negative_latency_samples += 1
            spin_ns = 0
        self.hists["bwd_spin_to_deschedule_ns"].record(spin_ns)
        self._cancel_cpu_event(cpu)
        self._put_prev_runnable(cpu)
        if self.trace.enabled:
            self.trace.emit(self.engine.now, "bwd-deschedule", cpu_id,
                            task.name, spin_ns=spin_ns)
        self._schedule(cpu)

    def _ple_tick(self, now: int) -> None:
        assert self.ple is not None
        cpus = self.cpus
        observe = self.ple.observe
        for cpu_id in self._online:
            task = cpus[cpu_id].rq.curr
            if observe(cpu_id, now, task is not None and task.mode is MODE_SPIN
                       and task.profile.spin_uses_pause):
                # The hypervisor briefly deschedules the *vCPU*; the guest
                # scheduler still runs the spinner afterwards, so thread
                # oversubscription is not relieved (Section 2.4) — the only
                # effect is the lost yield window on this vCPU.
                cpus[cpu_id].irq_ns += self.config.ple.vcpu_yield_ns

    def charge_irq(self, cpu_id: int, ns: int) -> None:
        """Steal ``ns`` from whatever runs on the CPU (monitor overhead)."""
        cpu = self.cpus[cpu_id]
        cpu.irq_ns += ns
        task = cpu.rq.curr
        if task is not None and task.action_remaining is not None:
            self._sync_current(cpu)
            task.action_remaining += ns

    # ==================================================================
    # Load balancing
    # ==================================================================
    def _idle_pull(self, cpu: CpuState) -> Task | None:
        """Newly-idle balance: steal one runnable task from the busiest CPU."""
        if not self.queued_runnable.n:
            return None  # every queue is empty or VB-blocked
        busiest: CpuState | None = None
        busiest_load = 1
        for cpu_id in self._online:
            other = self.cpus[cpu_id]
            if other is cpu:
                continue
            rq = other.rq
            # O(1) existence check: queued runnable == steal candidates
            # modulo pinning/cache-hotness, which _migratable re-filters.
            # (nr_running/nr_queued_runnable spelled out: this loop
            # visits every online CPU on each newly-idle balance.)
            size = rq.tree.size
            load = size + (1 if rq.curr is not None else 0)
            if load > busiest_load and size - rq.nr_blocked > 0:
                busiest = other
                busiest_load = load
        if busiest is None:
            return None
        cands = list(self.policy.steal_order(
            self._migratable(busiest.rq.steal_candidates())))
        if not cands:
            return None
        task = cands[self._rng_sched.integers(0, len(cands))]
        busiest.rq.dequeue(task)
        self._relocate_vruntime(task, busiest.rq, cpu.rq)
        self._count_migration(task, cpu.id, False)
        task.last_cpu = cpu.id
        if self.trace.enabled:
            self.trace.emit(self.engine.now, "idle-pull", cpu.id, task.name)
        return task

    def _migratable(self, candidates: list[Task]) -> list[Task]:
        """can_migrate_task: skip pinned tasks and cache-hot tasks (those
        that only just became runnable — e.g. mid group-wakeup)."""
        cold = self.config.scheduler.migration_cold_delay_ns
        now = self.engine.now
        return [
            t
            for t in candidates
            if t.pinned_cpu is None and now - t.state_since >= cold
        ]

    @staticmethod
    def _relocate_vruntime(task: Task, src: CfsRunqueue, dst: CfsRunqueue) -> None:
        task.vruntime = task.vruntime - src.min_vruntime + dst.min_vruntime

    def _migrate_into(self, task: Task, dest: CpuState, count: bool) -> None:
        if count:
            self._count_migration(task, dest.id, False)
        task.last_cpu = dest.id
        if task.state is RUNNABLE or task.state is VBLOCKED:
            if task.state is VBLOCKED:
                task.vb_cpu = dest.id
            dest.rq.enqueue(task)
            self._check_preempt(dest, task)

    def _balance_tick(self, now: int) -> None:
        """Periodic load balancing across online CPUs."""
        if len(self._online) < 2:
            return
        sched = self.config.scheduler
        if self.trace.enabled:
            self.trace.emit(
                now, "balance-scan", -1, None,
                loads=[self.cpus[c].rq.nr_running for c in self._online],
            )
        for _ in range(4):  # bounded work per tick
            loads = [(self.cpus[c].rq.nr_running, c) for c in self._online]
            busiest_load, busiest_id = max(loads)
            idlest_load, idlest_id = min(loads)
            if busiest_load - idlest_load < 2:
                return
            if (busiest_load - idlest_load) <= sched.imbalance_pct * busiest_load:
                return
            src = self.cpus[busiest_id]
            dst = self.cpus[idlest_id]
            cands = list(self.policy.steal_order(
                self._migratable(src.rq.steal_candidates())))
            if not cands:
                return
            task = cands[self._rng_sched.integers(0, len(cands))]
            src.rq.dequeue(task)
            self._relocate_vruntime(task, src.rq, dst.rq)
            self._count_migration(task, dst.id, False)
            task.last_cpu = dst.id
            dst.rq.enqueue(task)
            if self.trace.enabled:
                self.trace.emit(now, "balance", dst.id, task.name, src=src.id)
            if dst.rq.curr is None:
                self._check_preempt(dst, task)

    # ==================================================================
    # epoll helpers (used by server workloads)
    # ==================================================================
    def epoll_post(self, ep: EpollInstance, payload: Any) -> None:
        """Deliver an event (interrupt context, e.g. network RX)."""
        self.epolls.setdefault(id(ep), ep)
        if self.futex_table.waiter_count(ep) > 0:
            self.futex_wake(None, ep, 1, [payload])
            ep.events_posted += 1
            ep.events_delivered += 1
        else:
            ep.post(payload)

    # ==================================================================
    # Introspection
    # ==================================================================
    def cpu_utilization_percent(self) -> float:
        """Summed per-CPU utilization in percent (800 = 8 fully busy CPUs)."""
        wall = self.now - self.start_time
        if wall <= 0:
            return 0.0
        total = 0
        for c in self._online:
            cpu = self.cpus[c]
            # Poll time can overlap the busy edges by a few events; a CPU
            # can never exceed 100%.
            total += min(
                wall, cpu.busy_ns + cpu.sched_ns + cpu.irq_ns + cpu.poll_ns
            )
        return 100.0 * total / wall


# ======================================================================
# Action dispatch tables (hot path)
# ======================================================================
# Blocking-primitive entry hooks, keyed by concrete action type.  Each
# entry takes (kernel, task, action) and returns the on-CPU entry cost.
_BLOCKING_ENTRY = {
    A.MutexAcquire: lambda k, t, a: a.mutex.acquire(k, t),
    A.MutexRelease: lambda k, t, a: a.mutex.release(k, t),
    A.MutexEnsure: lambda k, t, a: a.mutex.ensure(k, t),
    A.CondWait: lambda k, t, a: a.cond.wait(k, t),
    A.CondWaitRequeue: lambda k, t, a: a.cond.wait_with(k, t, a.mutex),
    A.CondSignal: lambda k, t, a: a.cond.signal(k, t),
    A.CondBroadcast: lambda k, t, a: a.cond.broadcast(k, t),
    A.CondBroadcastRequeue: (
        lambda k, t, a: a.cond.broadcast_requeue(k, t, a.mutex)
    ),
    A.BarrierWait: lambda k, t, a: a.barrier.wait(k, t),
    A.SemWait: lambda k, t, a: a.sem.wait(k, t),
    A.SemPost: lambda k, t, a: a.sem.post(k, t),
    A.RwAcquireRead: lambda k, t, a: a.lock.acquire_read(k, t),
    A.RwReleaseRead: lambda k, t, a: a.lock.release_read(k, t),
    A.RwAcquireWrite: lambda k, t, a: a.lock.acquire_write(k, t),
    A.RwReleaseWrite: lambda k, t, a: a.lock.release_write(k, t),
}

# Concrete action type -> unbound Kernel handler.  ``_continue`` starts an
# action with a single dict lookup; subclasses (none in-tree) take the
# isinstance fallback in ``_start_action_generic`` and are cached here
# (and, if blocking, in ``_BLOCKING_ENTRY``) afterwards.
_ACTION_DISPATCH = {
    A.Compute: Kernel._act_compute,
    A.MemTraverse: Kernel._act_memtraverse,
    A.AtomicRmw: Kernel._act_atomic_rmw,
    A.Yield: Kernel._act_syscall_stub,
    A.SleepNs: Kernel._act_syscall_stub,
    A.SpinAcquire: Kernel._act_spin_acquire,
    A.SpinRelease: Kernel._act_spin_release,
    A.SpinUntilFlag: Kernel._act_spin_until_flag,
    A.FlagSet: Kernel._act_flag_set,
    A.EpollWait: Kernel._act_epoll_wait,
}
for _cls in _BLOCKING_ENTRY:
    _ACTION_DISPATCH[_cls] = Kernel._act_blocking
del _cls

# The most common action class, special-cased before the dict lookup.
_COMPUTE = A.Compute

# Action classes whose completion is just "clear and continue" — i.e.
# everything except Yield/SleepNs (which reschedule or park) — so
# _cpu_event can skip the _complete_action frame when no park is pending.
# Subclasses (none in-tree) miss this set and take the full path.
_PLAIN_COMPLETE = frozenset(
    cls for cls in _ACTION_DISPATCH if cls not in (A.Yield, A.SleepNs)
)
