"""Negative tests for the kernel invariant checker: every invariant in
the catalog (``repro.chaos.invariants``) is triggered by a deliberate
state corruption and must raise :class:`InvariantViolation` with its
name.  A checker that can't catch planted bugs can't catch real ones."""

from __future__ import annotations

import pytest

from repro.chaos.invariants import InvariantChecker
from repro.config import vanilla_config
from repro.errors import InvariantViolation
from repro.kernel import Kernel
from repro.kernel.task import TaskState
from repro.prog.actions import BarrierWait, Compute
from repro.sync import Barrier

MS = 1_000_000


def compute_prog(total_ns, chunk_ns=1 * MS):
    done = 0
    while done < total_ns:
        yield Compute(min(chunk_ns, total_ns - done))
        done += chunk_ns


def busy_kernel():
    """A 2-CPU kernel caught mid-run: both CPUs running, tasks queued.

    Returns ``(kernel, checker)`` with one clean full check already done,
    so every failure a test sees afterwards comes from its own corruption.
    """
    k = Kernel(vanilla_config(cores=2, seed=7))
    for i in range(8):
        k.spawn(compute_prog(50 * MS), name=f"t{i}")
    k.run_for(2 * MS)
    chk = InvariantChecker(k)
    chk.check_now()  # baseline: untouched state passes
    return k, chk


def queued_runnable(k):
    """Some queued, runnable (non-VB) task and its CPU."""
    for cpu in k.cpus:
        for t in cpu.rq.tree.values():
            if t.state is TaskState.RUNNABLE:
                return cpu, t
    raise AssertionError("no queued runnable task in busy kernel")


def expect(chk, invariant):
    with pytest.raises(InvariantViolation) as ei:
        chk.check_now()
    assert ei.value.invariant == invariant
    return ei.value


def blocked_kernel():
    """A 1-CPU kernel with one task asleep on a futex (a never-released
    barrier) — exercises the wait-queue and progress invariants."""
    k = Kernel(vanilla_config(cores=1, seed=7))
    bar = Barrier(2)

    def waiter():
        yield BarrierWait(bar)

    k.spawn(waiter(), name="stuck")
    k.run_for(1 * MS)
    waiters = [t for b in k.futex_table.buckets() for t in b.waiters]
    assert waiters, "barrier waiter never reached the futex table"
    return k, waiters[0]


# ---------------------------------------------------------------------
# one planted corruption per invariant
# ---------------------------------------------------------------------
def test_task_duplicate_detected():
    k, chk = busy_kernel()
    t = k.cpus[0].rq.curr
    assert t is not None
    # The same task surfaces on cpu1's tree while being cpu0's current.
    k.cpus[1].rq.tree.insert((t.vruntime, 1 << 30), t)
    expect(chk, "task-duplicate")


def test_task_lost_detected():
    k, chk = busy_kernel()
    cpu, t = queued_runnable(k)
    cpu.rq.dequeue(t)  # runnable, but now on no runqueue
    expect(chk, "task-lost")


def test_task_placement_detected():
    k, chk = busy_kernel()
    _, t = queued_runnable(k)
    t.state = TaskState.SLEEPING  # queued tasks must be runnable
    v = expect(chk, "task-placement")
    assert v.time_ns == k.engine.now
    assert v.details.get("task") == t.name


def test_vb_sentinel_running_detected():
    k, chk = busy_kernel()
    k.cpus[0].rq.curr.thread_state = 1  # a VB entry selected to run
    expect(chk, "vb-sentinel-running")


def test_rq_key_detected():
    k, chk = busy_kernel()
    _, t = queued_runnable(k)
    t.rq_key = (t.rq_key[0], t.rq_key[1] + 1)  # disagrees with the tree
    # The sorted map still lists the task under its old key.
    expect(chk, "rq-key")


def test_rq_key_running_detected():
    k, chk = busy_kernel()
    t = k.cpus[0].rq.curr
    t.rq_key = (t.vruntime, 1)  # running tasks must never hold a key
    expect(chk, "rq-key")


def test_nr_blocked_detected():
    k, chk = busy_kernel()
    rq = k.cpus[0].rq
    assert rq.recount_blocked() == rq.nr_blocked  # ground truth agrees
    rq.nr_blocked += 1  # drifted incremental counter
    expect(chk, "nr-blocked")


def test_nr_schedulable_detected(monkeypatch):
    k, chk = busy_kernel()
    # Lie at the class level; monkeypatch restores the real method.
    monkeypatch.setattr(
        type(k.cpus[0].rq), "nr_schedulable", lambda self: 999)
    expect(chk, "nr-schedulable")


def test_min_vruntime_monotonic_detected():
    k, chk = busy_kernel()  # baseline check recorded each min_vruntime
    k.cpus[0].rq.min_vruntime -= 1  # below the recorded value: backwards
    expect(chk, "min-vruntime-monotonic")


def test_work_conservation_detected():
    k, chk = busy_kernel()
    cpu, _ = queued_runnable(k)
    cpu.rq.curr = None  # idle CPU, runnable work queued
    expect(chk, "work-conservation")


def test_cpu_event_armed_detected():
    k, chk = busy_kernel()
    assert k.cpus[0].rq.curr is not None
    k.cpus[0].event.cancel()  # running task can now never be preempted
    expect(chk, "cpu-event-armed")


def test_offline_cpu_empty_detected():
    k, chk = busy_kernel()
    assert k.cpus[1].rq.curr is not None
    k.cpus[1].online = False  # offlined without migrating its tasks
    expect(chk, "offline-cpu-empty")


def test_futex_waitqueue_detected():
    k, waiter = blocked_kernel()
    chk = InvariantChecker(k)
    chk.check_now()  # baseline
    assert waiter.state is TaskState.SLEEPING
    waiter.block_kind = "vb"  # disagrees with SLEEPING
    expect(chk, "futex-waitqueue")


def test_live_tasks_detected():
    k, chk = busy_kernel()
    k.live_tasks += 1
    expect(chk, "live-tasks")


def test_engine_pending_detected():
    k, chk = busy_kernel()
    k.engine._live += 1
    expect(chk, "engine-pending")


def test_progress_detected():
    k, _ = blocked_kernel()
    chk = InvariantChecker(k, progress_horizon_ns=100_000)
    chk.check_now()  # records the progress signature
    k.run_for(1 * MS)  # only idle ticks: no task runs, busy time frozen
    v = expect(chk, "progress")
    assert v.details["live"] == 1
    assert v.details["stalled_ns"] >= 100_000


# ---------------------------------------------------------------------
# checker plumbing
# ---------------------------------------------------------------------
def test_clean_kernel_passes_all_checks():
    k, chk = busy_kernel()
    k.run_to_completion()
    chk.check_now()
    assert chk.checks >= 2


def test_on_event_subsamples_at_interval():
    k, _ = busy_kernel()
    chk = InvariantChecker(k, interval=8)
    for _ in range(7):
        chk.on_event()
    assert chk.checks == 0
    chk.on_event()
    assert chk.checks == 1


def test_violation_carries_structured_fields():
    k, chk = busy_kernel()
    k.live_tasks += 3
    with pytest.raises(InvariantViolation) as ei:
        chk.check_now()
    v = ei.value
    assert v.invariant == "live-tasks"
    assert v.time_ns == k.engine.now
    assert v.events_run == k.engine.events_run
    assert v.details["counter"] == v.details["recount"] + 3
    assert "[live-tasks]" in str(v) and f"t={v.time_ns}ns" in str(v)


def test_config_flag_installs_checker():
    import dataclasses as dc

    cfg = dc.replace(vanilla_config(cores=1, seed=7), check_invariants=True)
    k = Kernel(cfg)
    assert k.invariants is not None
    assert k.engine.on_event.__self__ is k.invariants
    # >256 engine events, so the subsampled checker really fires.
    k.spawn(compute_prog(5 * MS, chunk_ns=10_000), name="t")
    k.run_to_completion()
    assert k.invariants.calls > 256
    assert k.invariants.checks > 0  # it really ran along the way


def test_env_var_installs_checker(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
    assert Kernel(vanilla_config(cores=1, seed=7)).invariants is None
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    assert Kernel(vanilla_config(cores=1, seed=7)).invariants is not None
