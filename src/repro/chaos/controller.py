"""Chaos controller: applies an injection plan to one kernel.

The controller schedules one engine event per fault in the plan and
intercepts the kernel's futex-wake completion scheduling (the kernel
routes ``engine.schedule_at`` through :meth:`schedule_wake` while a
controller is installed) to implement wake delay/drop windows.

Determinism: fault times come from the plan, random picks inside a fault
(victim CPU, target epoll, storm candidates) come from the kernel's
``"chaos"`` RNG substream — a named substream that exists only when chaos
is active, so the workload's own streams are never perturbed.  Everything
the controller does lands in the trace as ``chaos-*`` events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from .faults import FaultEvent, InjectionPlan

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel
    from ..kernel.task import Task


@dataclass
class ChaosStats:
    """Counters of what the controller actually did."""

    faults_applied: int = 0
    cpu_removes: int = 0
    cpu_adds: int = 0
    wakes_delayed: int = 0
    wakes_dropped: int = 0
    wakes_redelivered: int = 0
    spurious_epolls: int = 0
    forced_migrations: int = 0
    timer_nudges: int = 0
    worker_crashes: int = 0
    tenant_slowdowns: int = 0
    conns_dropped: int = 0
    serving_skipped: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class _WakeWindow:
    end_ns: int
    delay_ns: int = 0
    remaining_drops: int = 0
    redeliver_ns: int | None = None


@dataclass
class _Applied:
    at_ns: int
    kind: str
    note: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"at_ns": self.at_ns, "kind": self.kind, "note": self.note}


class ChaosController:
    """Schedules and applies one :class:`InjectionPlan` on one kernel."""

    def __init__(self, kernel: "Kernel", plan: InjectionPlan):
        self.kernel = kernel
        self.plan = plan
        self.rng = kernel.rng_streams.stream("chaos")
        self.stats = ChaosStats()
        self.applied: list[_Applied] = []
        self._delay_windows: list[_WakeWindow] = []
        self._drop_windows: list[_WakeWindow] = []
        # Serving workloads register their ServerGuard here; the
        # serving-layer fault kinds are recorded as skipped without one.
        self.serving: Any = None

    def install(self) -> None:
        """Schedule every plan event on the kernel's engine."""
        engine = self.kernel.engine
        for ev in self.plan.events:
            engine.schedule_at(max(engine.now, ev.at_ns), self._apply, ev)

    # ------------------------------------------------------------------
    # Fault application
    # ------------------------------------------------------------------
    def _apply(self, ev: FaultEvent) -> None:
        handler: Callable[[dict], dict] = getattr(
            self, "_apply_" + ev.kind.replace("-", "_")
        )
        note = handler(ev.params)
        self.stats.faults_applied += 1
        now = self.kernel.engine.now
        self.applied.append(_Applied(now, ev.kind, note))
        trace = self.kernel.trace
        if trace.enabled:
            trace.emit(now, "chaos-" + ev.kind, -1, None, **note)

    def _apply_cpu_remove(self, params: dict) -> dict:
        k = self.kernel
        count = int(params.get("count", 1))
        before = len(k.online_cpus())
        target = max(1, before - count)
        # set_online_cpus migrates every task off the victims — including
        # BWD-descheduled spinners and VB-blocked lock holders sitting on
        # the victim's queue — and raises for pinned tasks (Figure 11).
        k.set_online_cpus(target)
        self.stats.cpu_removes += 1
        return {"from": before, "to": target}

    def _apply_cpu_add(self, params: dict) -> dict:
        k = self.kernel
        count = int(params.get("count", 1))
        before = len(k.online_cpus())
        target = min(len(k.cpus), before + count)
        k.set_online_cpus(target)
        self.stats.cpu_adds += 1
        return {"from": before, "to": target}

    def _apply_wake_delay(self, params: dict) -> dict:
        now = self.kernel.engine.now
        duration = int(params.get("duration_ns", 1_000_000))
        delay = int(params.get("delay_ns", 100_000))
        self._delay_windows.append(
            _WakeWindow(end_ns=now + duration, delay_ns=delay)
        )
        return {"until_ns": now + duration, "delay_ns": delay}

    def _apply_wake_drop(self, params: dict) -> dict:
        now = self.kernel.engine.now
        duration = int(params.get("duration_ns", 1_000_000))
        drops = int(params.get("max_drops", 1))
        redeliver = params.get("redeliver_ns")
        self._drop_windows.append(
            _WakeWindow(
                end_ns=now + duration,
                remaining_drops=drops,
                redeliver_ns=None if redeliver is None else int(redeliver),
            )
        )
        return {
            "until_ns": now + duration,
            "max_drops": drops,
            "redeliver_ns": redeliver,
        }

    def _apply_epoll_spurious(self, params: dict) -> dict:
        k = self.kernel
        count = int(params.get("count", 1))
        woken = 0
        for _ in range(count):
            # Only epolls with a blocked waiter can see spurious readiness.
            ready = [
                ep
                for ep in k.epolls.values()
                if k.futex_table.waiter_count(ep) > 0
            ]
            if not ready:
                break
            ep = ready[int(self.rng.integers(0, len(ready)))]
            ep.spurious += 1
            # An empty batch: the waiter wakes, sees nothing, re-waits.
            k.futex_wake(None, ep, 1, result=[])
            woken += 1
        self.stats.spurious_epolls += woken
        return {"requested": count, "woken": woken}

    def _apply_bwd_jitter(self, params: dict) -> dict:
        delta = int(params.get("delta_ns", 50_000))
        bwd = self.kernel.bwd
        if bwd is None:
            return {"delta_ns": delta, "applied": False}
        nudged = bwd.nudge_timer(delta)
        if nudged:
            self.stats.timer_nudges += 1
        return {"delta_ns": delta, "applied": nudged}

    def _apply_migration_storm(self, params: dict) -> dict:
        k = self.kernel
        moves = int(params.get("moves", 8))
        done = 0
        for _ in range(moves):
            online = k.online_cpus()
            if len(online) < 2:
                break
            # CPUs with something stealable (never the current task, never
            # VB-blocked entries — steal_candidates enforces both).
            sources = [
                c
                for c in online
                if k.cpus[c].rq.nr_queued_runnable > 0
            ]
            if not sources:
                break
            src_id = sources[int(self.rng.integers(0, len(sources)))]
            src = k.cpus[src_id]
            cands = [
                t
                for t in src.rq.steal_candidates()
                if t.pinned_cpu is None
            ]
            if not cands:
                continue
            task = cands[int(self.rng.integers(0, len(cands)))]
            others = [c for c in online if c != src_id]
            dst = k.cpus[others[int(self.rng.integers(0, len(others)))]]
            # A forced balance-style migration that ignores cache-hotness.
            src.rq.dequeue(task)
            k._relocate_vruntime(task, src.rq, dst.rq)
            k._count_migration(task, dst.id, wake=False)
            task.last_cpu = dst.id
            dst.rq.enqueue(task)
            k._check_preempt(dst, task)
            done += 1
        self.stats.forced_migrations += done
        return {"requested": moves, "moved": done}

    # ------------------------------------------------------------------
    # Serving-layer faults (need a registered ServerGuard)
    # ------------------------------------------------------------------
    def _apply_worker_crash(self, params: dict) -> dict:
        srv = self.serving
        if srv is None:
            self.stats.serving_skipped += 1
            return {"skipped": "no-serving-target"}
        worker = params.get("worker")
        if worker is None:
            worker = srv.pick_worker(self.rng)
        worker = int(worker) % srv.workers
        dead_ns = int(params.get("dead_ns", 10_000_000))
        srv.crash_worker(worker, dead_ns)
        self.stats.worker_crashes += 1
        return {"worker": worker, "dead_ns": dead_ns}

    def _apply_tenant_slowdown(self, params: dict) -> dict:
        srv = self.serving
        if srv is None:
            self.stats.serving_skipped += 1
            return {"skipped": "no-serving-target"}
        factor = float(params.get("factor", 4.0))
        duration_ns = int(params.get("duration_ns", 10_000_000))
        srv.slow_down(factor, duration_ns)
        self.stats.tenant_slowdowns += 1
        return {"factor": factor, "duration_ns": duration_ns}

    def _apply_conn_drop(self, params: dict) -> dict:
        srv = self.serving
        if srv is None:
            self.stats.serving_skipped += 1
            return {"skipped": "no-serving-target"}
        count = int(params.get("count", 32))
        dropped = srv.drop_connections(count, self.rng)
        self.stats.conns_dropped += dropped
        return {"requested": count, "dropped": dropped}

    # ------------------------------------------------------------------
    # Futex-wake interception (wake delay / drop windows)
    # ------------------------------------------------------------------
    def schedule_wake(
        self, t: int, fn: Callable[..., Any], task: "Task"
    ) -> list | None:
        """Stand-in for ``engine.schedule_at`` on wake completions.

        Outside any active window this is a plain pass-through, so an
        empty plan reproduces the unperturbed run exactly.
        """
        k = self.kernel
        engine = k.engine
        now = engine.now
        for w in self._drop_windows:
            if w.remaining_drops > 0 and now <= w.end_ns:
                w.remaining_drops -= 1
                self.stats.wakes_dropped += 1
                if k.trace.enabled:
                    k.trace.emit(
                        now, "chaos-wake-drop", -1, task.name,
                        redeliver_ns=w.redeliver_ns,
                    )
                if w.redeliver_ns is None:
                    # Permanent lost wakeup: nothing is scheduled.  If no
                    # other wake saves the waiter, the progress invariant
                    # flags the livelock at the horizon.
                    return None
                self.stats.wakes_redelivered += 1
                return engine.schedule_at(t + w.redeliver_ns, fn, task)
        delay = 0
        for w in self._delay_windows:
            if now <= w.end_ns:
                delay += w.delay_ns
        if delay:
            self.stats.wakes_delayed += 1
            if k.trace.enabled:
                k.trace.emit(
                    now, "chaos-wake-delay", -1, task.name, delay_ns=delay
                )
        return engine.schedule_at(t + delay, fn, task)
