"""Synchronization primitives over the simulated kernel.

* `blocking` — futex-backed pthread-style primitives (mutex, condition
  variable, barrier, semaphore) — benefit from virtual blocking.
* `spin` — ten spinlock algorithms (Figure 13) — targets of BWD.  The
  kernel sees four disciplines and a PAUSE flag, so the ten names map
  onto four lock classes (`ALL_SPINLOCKS`).
* `spin_then_park` — Mutexee and MCS-TP hybrids (Figure 15 baselines).
* `shfllock` — SHFLLOCK with queue shuffling and NUMA-aware wakeup.
"""

from .blocking import Mutex, CondVar, Barrier, Semaphore
from .rwlock import RwLock
from .spin import (
    SpinLockBase,
    MalthusianLock,
    ALL_SPINLOCKS,
    make_spinlock,
)
from .spin_then_park import Mutexee, McsTp
from .shfllock import ShflLock

__all__ = [
    "Mutex",
    "CondVar",
    "Barrier",
    "Semaphore",
    "RwLock",
    "SpinLockBase",
    "MalthusianLock",
    "ALL_SPINLOCKS",
    "make_spinlock",
    "Mutexee",
    "McsTp",
    "ShflLock",
]
