"""Micro-benchmarks from Sections 2.3 and 4.2.

* :func:`direct_cost_run` — Figure 2(a): pure computation split across N
  threads on one core, yielding after every minimum time slice; the only
  overhead is the direct context-switch cost.
* :func:`atomic_contention_run` — Figure 2(b): same, plus an atomic
  fetch-and-add on a shared cacheline each iteration.
* :func:`primitive_stress_run` — Figure 10: threads hammer one pthreads
  primitive (mutex / condition variable / barrier) ten thousand times
  (scaled), measuring how VB changes completion time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SimConfig
from ..kernel.kernel import Kernel
from ..metrics.collector import RunStats, collect
from ..prog.actions import (
    AtomicRmw,
    BarrierWait,
    Compute,
    CondBroadcast,
    CondWait,
    MutexAcquire,
    MutexRelease,
    SharedCounter,
    Yield,
)
from ..sync import Barrier, CondVar, Mutex

US = 1_000


@dataclass(frozen=True)
class MicroResult:
    label: str
    nthreads: int
    cores: int
    duration_ns: int
    stats: RunStats

    def normalized_to(self, baseline: "MicroResult") -> float:
        return self.duration_ns / baseline.duration_ns


def direct_cost_run(
    config: SimConfig,
    nthreads: int,
    total_work_ms: float = 60.0,
    atomic: bool = False,
) -> MicroResult:
    """Figure 2: fixed total work split over ``nthreads`` on the online
    CPUs (one core in the paper), yielding every 750 us."""
    kernel = Kernel(config)
    quantum = config.scheduler.min_granularity_ns
    per_thread = int(total_work_ms * 1e6 / nthreads)
    # Actions are immutable descriptors (per-run progress lives on the
    # task), so every step yields shared instances: a dataclass call per
    # step is measurable at these event rates.
    act_quantum = Compute(quantum)
    act_atomic = AtomicRmw(SharedCounter("fig2b")) if atomic else None
    act_yield = Yield()

    def worker(i: int):
        done = 0
        while done < per_thread:
            chunk = min(quantum, per_thread - done)
            yield act_quantum if chunk == quantum else Compute(chunk)
            if act_atomic is not None:
                yield act_atomic
            done += chunk
            yield act_yield

    for i in range(nthreads):
        kernel.spawn(worker(i), name=f"direct.{i}")
    kernel.run_to_completion()
    return MicroResult(
        label="atomic" if atomic else "pure",
        nthreads=nthreads,
        cores=len(kernel.online_cpus()),
        duration_ns=kernel.now - kernel.start_time,
        stats=collect(kernel),
    )


def direct_cost_per_switch_ns(config: SimConfig, nthreads: int = 4) -> float:
    """Back out the per-context-switch cost the way Section 2.3 does:
    (T_n - T_1) / #switches."""
    base = direct_cost_run(config, 1)
    multi = direct_cost_run(config, nthreads)
    switches = multi.stats.context_switches
    if switches == 0:
        return 0.0
    return (multi.duration_ns - base.duration_ns) / switches


def primitive_stress_run(
    config: SimConfig,
    primitive: str,
    nthreads: int = 32,
    iterations: int = 2_000,
    work_ns: int = 10_000,
) -> MicroResult:
    """Figure 10: repeated synchronization through one primitive.

    ``primitive`` is "mutex", "cond", or "barrier".
    """
    kernel = Kernel(config)
    # Shared action instances, as in direct_cost_run.
    act_work = Compute(work_ns)

    if primitive == "barrier":
        act_wait = BarrierWait(Barrier(nthreads, "fig10.bar"))

        def worker(i: int):
            for _ in range(iterations):
                yield act_work
                yield act_wait

        for i in range(nthreads):
            kernel.spawn(worker(i), name=f"bar.{i}")

    elif primitive == "mutex":
        m = Mutex("fig10.m")
        act_acquire = MutexAcquire(m)
        act_cs = Compute(work_ns // 4)
        act_release = MutexRelease(m)

        def worker(i: int):
            for _ in range(iterations):
                yield act_work
                yield act_acquire
                yield act_cs
                yield act_release

        for i in range(nthreads):
            kernel.spawn(worker(i), name=f"mtx.{i}")

    elif primitive == "cond":
        cv = CondVar("fig10.cv")
        act_wait = CondWait(cv)
        act_broadcast = CondBroadcast(cv)
        state = {"exited": 0}
        nwaiters = max(1, nthreads - 1)

        def waiter(i: int):
            for _ in range(iterations):
                yield act_wait
            state["exited"] += 1

        def signaler():
            # Broadcast until every waiter has collected its wakeups;
            # broadcasts that land while nobody waits are simply absorbed
            # by later rounds (no lost-wakeup hazard for the benchmark).
            while state["exited"] < nwaiters:
                yield act_work
                yield act_broadcast

        for i in range(nwaiters):
            kernel.spawn(waiter(i), name=f"cv.{i}")
        kernel.spawn(signaler(), name="cv.sig")

    else:
        raise ValueError(f"unknown primitive {primitive!r}")

    kernel.run_to_completion()
    return MicroResult(
        label=primitive,
        nthreads=nthreads,
        cores=len(kernel.online_cpus()),
        duration_ns=kernel.now - kernel.start_time,
        stats=collect(kernel),
    )
