"""Synchronization-library unit tests: spinlock algorithms, spin-then-park,
SHFLLOCK (data-structure level, without the kernel loop where possible)."""

from __future__ import annotations

import pytest

from repro.config import HardwareConfig, vanilla_config
from repro.errors import ProgramError
from repro.hw.topology import Topology
from repro.kernel import Kernel
from repro.kernel.task import Task, TaskState
from repro.prog.actions import Compute, MutexAcquire, MutexRelease
from repro.sync import (
    ALL_SPINLOCKS,
    Mutex,
    Mutexee,
    McsTp,
    ShflLock,
    make_spinlock,
)
from repro.sync.spin import MalthusianLock

MS = 1_000_000


def make_task(name="t", last_cpu=0):
    t = Task(name, iter(()))
    t.last_cpu = last_cpu
    return t


def test_factory_covers_all_ten():
    assert len(ALL_SPINLOCKS) == 10
    for name in ALL_SPINLOCKS:
        lock = make_spinlock(name)
        assert lock.algorithm == name


def test_factory_unknown_algorithm():
    with pytest.raises(ProgramError):
        make_spinlock("bogus")


def test_spinlock_basic_acquire_release():
    lock = make_spinlock("ttas")
    a, b = make_task("a"), make_task("b")
    assert lock.try_acquire(a)
    assert not lock.try_acquire(b)
    lock.add_waiter(b)
    assert lock.release(a) == [b]
    assert lock.try_acquire(b)


def test_release_by_non_holder_rejected():
    lock = make_spinlock("mcs")
    a, b = make_task("a"), make_task("b")
    lock.try_acquire(a)
    with pytest.raises(ProgramError):
        lock.release(b)


def test_fifo_head_only_acquires():
    lock = make_spinlock("ticket")
    a, b, c = make_task("a"), make_task("b"), make_task("c")
    lock.try_acquire(a)
    lock.add_waiter(b)
    lock.add_waiter(c)
    lock.release(a)
    assert not lock.try_acquire(c)  # c is behind b
    assert lock.try_acquire(b)


def test_competitive_any_waiter_acquires():
    lock = make_spinlock("ttas")
    a, b, c = make_task("a"), make_task("b"), make_task("c")
    lock.try_acquire(a)
    lock.add_waiter(b)
    lock.add_waiter(c)
    candidates = lock.release(a)
    assert set(candidates) == {b, c}
    assert lock.try_acquire(c)  # barging allowed


def test_pause_usage_flags():
    assert make_spinlock("pthread").uses_pause
    assert not make_spinlock("ttas").uses_pause
    assert not make_spinlock("alock-ls").uses_pause


def test_malthusian_culls_to_passive():
    lock = MalthusianLock()
    holder = make_task("h")
    lock.try_acquire(holder)
    waiters = [make_task(f"w{i}") for i in range(5)]
    for w in waiters:
        lock.add_waiter(w)
    assert len(lock.queue) == lock.active_limit
    assert len(lock.passive) == 5 - lock.active_limit
    # Passive waiters can never acquire directly.
    assert not lock.try_acquire(waiters[-1])
    lock.release(holder)
    # Promotion refills the active set.
    assert len(lock.queue) >= lock.active_limit


def test_numa_aware_reorder_prefers_same_socket():
    hw = HardwareConfig(sockets=2, cores_per_socket=4, smt=1)
    topo = Topology(hw, online_cpus=8)  # spread: even cpus node0, odd node1
    lock = make_spinlock("cna", topology=topo)
    holder = make_task("h", last_cpu=0)  # node 0
    remote = make_task("r", last_cpu=1)  # node 1
    local = make_task("l", last_cpu=2)  # node 0
    lock.try_acquire(holder)
    lock.add_waiter(remote)
    lock.add_waiter(local)
    candidates = lock.release(holder)
    assert candidates == [local]  # same-node waiter promoted to head


def test_mutex_requires_owner_for_release(vanilla1):
    k = Kernel(vanilla1)
    m = Mutex()

    def bad():
        yield MutexRelease(m)

    with pytest.raises(ProgramError):
        k.spawn(bad(), name="bad")
        k.run_to_completion()


@pytest.mark.parametrize("lock_cls", [Mutexee, McsTp, ShflLock])
def test_hybrid_locks_work_as_mutexes(lock_cls, vanilla8):
    k = Kernel(vanilla8)
    m = lock_cls("m")
    inside = {"count": 0, "max": 0}

    def worker(i):
        for _ in range(15):
            yield Compute(5_000)
            yield MutexAcquire(m)
            inside["count"] += 1
            inside["max"] = max(inside["max"], inside["count"])
            yield Compute(1_000)
            inside["count"] -= 1
            yield MutexRelease(m)

    for i in range(12):
        k.spawn(worker(i), name=f"w{i}")
    k.run_to_completion()
    assert inside["max"] == 1
    assert m.acquisitions >= 12 * 15


def test_spin_then_park_charges_spin_window(vanilla1):
    k = Kernel(vanilla1)
    m = Mutexee("m")

    def holder():
        yield MutexAcquire(m)
        yield Compute(5 * MS)  # longer than a slice so the waiter contends
        yield MutexRelease(m)

    def waiter():
        yield Compute(10_000)
        yield MutexAcquire(m)
        yield MutexRelease(m)

    k.spawn(holder(), name="h")
    k.spawn(waiter(), name="w")
    k.run_to_completion()
    assert m.contended == 1
    assert m.spin_ns_total >= m.spin_window_ns


def test_shfllock_shuffles_same_socket_waiter_first():
    cfg = vanilla_config(cores=8, seed=2)
    k = Kernel(cfg)
    lock = ShflLock("l", topology=k.topology)

    def holder():
        yield MutexAcquire(lock)
        yield Compute(3 * MS)
        yield MutexRelease(lock)

    order = []

    def waiter(i):
        yield Compute((i + 1) * 50_000)
        yield MutexAcquire(lock)
        order.append(i)
        yield MutexRelease(lock)

    # Holder on cpu0 (node 0); first waiter remote (cpu1, node 1), second
    # local (cpu2, node 0): the shuffler promotes the local one.
    k.spawn(holder(), name="h", pinned_cpu=0)
    k.spawn(waiter(0), name="remote", pinned_cpu=1)
    k.spawn(waiter(1), name="local", pinned_cpu=2)
    k.run_to_completion()
    assert order[0] == 1
    assert lock.shuffles >= 1
