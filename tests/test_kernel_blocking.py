"""Futex sleep/wake paths: vanilla and virtual blocking."""

from __future__ import annotations

import pytest

from repro.config import optimized_config, vanilla_config
from repro.kernel import Kernel
from repro.kernel.task import TaskState
from repro.prog.actions import (
    BarrierWait,
    Compute,
    CondBroadcast,
    CondWait,
    MutexAcquire,
    MutexRelease,
    SemPost,
    SemWait,
)
from repro.sim.trace import TraceRecorder
from repro.sync import Barrier, CondVar, Mutex, Semaphore

MS = 1_000_000
US = 1_000


def test_mutex_mutual_exclusion(vanilla8):
    """No two tasks are ever inside the critical section simultaneously."""
    k = Kernel(vanilla8)
    m = Mutex()
    inside = {"count": 0, "max": 0, "entries": 0}

    def worker(i):
        for _ in range(30):
            yield Compute(10 * US)
            yield MutexAcquire(m)
            inside["count"] += 1
            inside["entries"] += 1
            inside["max"] = max(inside["max"], inside["count"])
            yield Compute(2 * US)
            inside["count"] -= 1
            yield MutexRelease(m)

    for i in range(16):
        k.spawn(worker(i), name=f"w{i}")
    k.run_to_completion()
    assert inside["max"] == 1
    assert inside["entries"] == 16 * 30


def test_mutex_fifo_handoff(vanilla1):
    k = Kernel(vanilla1)
    m = Mutex()
    order = []

    def holder():
        yield MutexAcquire(m)
        yield Compute(5 * MS)  # everyone queues behind
        yield MutexRelease(m)

    def waiter(i):
        yield Compute((i + 1) * 100 * US)  # stagger arrival order
        yield MutexAcquire(m)
        order.append(i)
        yield MutexRelease(m)

    k.spawn(holder(), name="h")
    for i in range(4):
        k.spawn(waiter(i), name=f"w{i}")
    k.run_to_completion()
    assert order == [0, 1, 2, 3]


def test_barrier_releases_all_parties(vanilla8):
    k = Kernel(vanilla8)
    bar = Barrier(12)
    passed = []

    def worker(i):
        yield Compute((i + 1) * US)
        yield BarrierWait(bar)
        passed.append(i)

    for i in range(12):
        k.spawn(worker(i), name=f"w{i}")
    k.run_to_completion()
    assert sorted(passed) == list(range(12))
    assert bar.generations == 1


def test_barrier_multiple_generations(vanilla8):
    k = Kernel(vanilla8)
    bar = Barrier(8)

    def worker(i):
        for _ in range(5):
            yield Compute(10 * US)
            yield BarrierWait(bar)

    for i in range(8):
        k.spawn(worker(i), name=f"w{i}")
    k.run_to_completion()
    assert bar.generations == 5


def test_semaphore_conservation(vanilla8):
    """Units posted equal units consumed; no unit is lost or duplicated."""
    k = Kernel(vanilla8)
    sem = Semaphore(0)
    consumed = []

    def producer():
        for i in range(40):
            yield Compute(5 * US)
            yield SemPost(sem)

    def consumer(i):
        for _ in range(10):
            yield SemWait(sem)
            consumed.append(i)

    for i in range(4):
        k.spawn(consumer(i), name=f"c{i}")
    k.spawn(producer(), name="p")
    k.run_to_completion()
    assert len(consumed) == 40
    assert sem.value == 0


def test_condvar_broadcast_wakes_current_waiters(vanilla8):
    k = Kernel(vanilla8)
    cv = CondVar()
    woken = []

    def waiter(i):
        yield CondWait(cv)
        woken.append(i)

    def caster():
        yield Compute(1 * MS)  # let all waiters park
        yield CondBroadcast(cv)

    for i in range(10):
        k.spawn(waiter(i), name=f"w{i}")
    k.spawn(caster(), name="b")
    k.run_to_completion()
    assert sorted(woken) == list(range(10))
    assert cv.broadcasts == 1


def test_vanilla_sleep_leaves_runqueue(vanilla1):
    k = Kernel(vanilla1)
    sem = Semaphore(0)

    def waiter():
        yield SemWait(sem)

    def poster():
        yield Compute(2 * MS)
        yield SemPost(sem)

    w = k.spawn(waiter(), name="w")
    k.spawn(poster(), name="p")
    k.run_for(1 * MS)
    assert w.state is TaskState.SLEEPING
    assert not w.on_rq
    k.run_to_completion()
    assert w.state is TaskState.EXITED


def test_vb_block_stays_on_runqueue(vb1):
    k = Kernel(vb1)
    sem = Semaphore(0)

    def waiter():
        yield SemWait(sem)

    def poster():
        yield Compute(2 * MS)
        yield SemPost(sem)

    w = k.spawn(waiter(), name="w")
    k.spawn(poster(), name="p")
    k.run_for(1 * MS)
    assert w.state is TaskState.VBLOCKED
    assert w.thread_state == 1
    assert w.on_rq  # the essence of VB
    k.run_to_completion()
    assert w.state is TaskState.EXITED
    assert k.vb_policy.stats.vb_blocks >= 1


def test_vb_preserves_wakeup_order(vb1):
    """The futex bucket queue preserves sleep/wakeup order under VB."""
    k = Kernel(vb1)
    sem = Semaphore(0)
    order = []

    def waiter(i):
        yield Compute((i + 1) * 50 * US)
        yield SemWait(sem)
        order.append(i)

    def poster():
        yield Compute(2 * MS)
        for _ in range(4):
            yield SemPost(sem)

    for i in range(4):
        k.spawn(waiter(i), name=f"w{i}")
    k.spawn(poster(), name="p")
    k.run_to_completion()
    assert order == [0, 1, 2, 3]


def test_vb_wake_in_place_no_migration():
    """Oversubscribed barrier wakes re-key in place: zero migrations."""
    cfg = optimized_config(cores=2, seed=5, bwd=False)
    k = Kernel(cfg)
    bar = Barrier(8)

    def worker(i):
        for _ in range(10):
            yield Compute(100 * US)
            yield BarrierWait(bar)

    for i in range(8):
        k.spawn(worker(i), name=f"w{i}")
    k.run_to_completion()
    assert k.wake_migrations == 0
    assert k.vb_policy.stats.vb_wakes > 0


def test_vb_disable_rule_uses_placed_wakes():
    """A 1:1 mutex handoff has fewer waiters than cores: VB's in-place
    wake is disabled and the wake selects a core (Section 3.1)."""
    cfg = optimized_config(cores=8, seed=5, bwd=False)
    k = Kernel(cfg)
    m = Mutex()

    def worker(i):
        for _ in range(10):
            yield MutexAcquire(m)
            yield Compute(20 * US)
            yield MutexRelease(m)
            yield Compute(5 * US)

    for i in range(4):
        k.spawn(worker(i), name=f"w{i}")
    k.run_to_completion()
    assert k.vb_policy.stats.vb_placed_wakes > 0
    assert k.vb_policy.stats.vb_wakes == 0
    assert k.vb_policy.stats.disabled_undersubscribed > 0


def test_vanilla_group_wakeup_is_serialized(vanilla8):
    """The waker processes wakeups one at a time: last-woken runs
    measurably later than first-woken."""
    k = Kernel(vanilla8)
    bar = Barrier(32)
    wake_times = {}

    def worker(i):
        yield Compute(10 * US if i < 31 else 3 * MS)  # i=31 arrives last
        yield BarrierWait(bar)
        wake_times[i] = k.now

    for i in range(32):
        k.spawn(worker(i), name=f"w{i}")
    k.run_to_completion()
    woken = [t for i, t in sorted(wake_times.items()) if i != 31]
    spread = max(woken) - min(woken)
    fc = k.config.futex
    assert spread >= 20 * (fc.rq_lock_hold_ns + fc.enqueue_ns)


def test_wake_during_preparking_window_not_lost(vanilla8):
    """A post that races with a waiter's pre-park window must not be lost
    (regression test for the RUNNABLE-pre-park wake drop)."""
    k = Kernel(vanilla8)
    sem = Semaphore(0)
    done = []

    def waiter(i):
        # Block immediately; posts race with the park path.
        yield SemWait(sem)
        done.append(i)

    def poster():
        for _ in range(16):
            yield SemPost(sem)
            yield Compute(200)

    for i in range(16):
        k.spawn(waiter(i), name=f"w{i}")
    k.spawn(poster(), name="p")
    k.run_to_completion(max_ns=500 * MS)
    assert len(done) == 16


def test_trace_records_park_and_wake(vanilla1):
    tr = TraceRecorder(enabled=True)
    k = Kernel(vanilla_config(cores=1, seed=2), trace=tr)
    sem = Semaphore(0)

    def waiter():
        yield SemWait(sem)

    def poster():
        yield Compute(1 * MS)
        yield SemPost(sem)

    k.spawn(waiter(), name="w")
    k.spawn(poster(), name="p")
    k.run_to_completion()
    assert tr.count("park") >= 1
    assert tr.count("wake") >= 1
    wake = next(tr.of_kind("wake"))
    assert wake.detail["how"] == "vanilla"


@pytest.mark.xfail(
    strict=True,
    reason="_select_wake_cpu discounts a VB-placed task from its home CPU "
    "after _finish_wake_vb_placed already dequeued it (ROADMAP item 5)",
)
def test_vb_placed_wake_counts_home_cpu_load_once():
    """A VB-placed wake leaves its busy home CPU for an idle one: the task
    is already off the home runqueue when the wake picks a CPU, so the
    home's load is its running task, not one less."""
    k = Kernel(optimized_config(cores=2, seed=5, bwd=False))
    sem = Semaphore(0)

    def busy():
        yield Compute(50 * MS)

    def waiter():
        yield SemWait(sem)

    k.spawn(busy(), name="busy", pinned_cpu=0)
    w = k.spawn(waiter(), name="w", pinned_cpu=0)
    k.run_for(10 * MS)
    assert w.state is TaskState.VBLOCKED and w.vb_cpu == 0
    assert k.current_task(0) is not None and k.current_task(1) is None
    w.pinned_cpu = None  # free to be placed by the wake
    # n=2 is not a sync wake; one waiter on two CPUs is under-subscribed,
    # so VB selects a CPU instead of waking in place.
    k.futex_wake(None, sem, n=2)
    k.run_for(1 * MS)
    assert k.vb_policy.stats.vb_placed_wakes == 1
    assert w.last_cpu == 1
