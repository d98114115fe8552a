"""Ten spinlock algorithms (the set studied in Figure 13 / SHFLLOCK [21]).

The simulated kernel sees a spinlock through two properties only:

* **queue discipline** — FIFO locks (ticket, MCS, CLH, array locks,
  partitioned) hand off to one *specific* successor; if that successor
  is preempted or descheduled, every other spinner waits behind it — the
  lock-holder/waiter-preemption cascade BWD breaks.  Competitive locks
  (TTAS, pthread spin) let any *running* spinner grab a released lock.
  The Malthusian lock culls waiters into a passive set, and CNA/AQS
  reorder the queue to prefer same-socket successors.
* **PAUSE usage** — whether the spin loop executes PAUSE/NOP (visible to
  PLE in VMs) or is a plain load loop (invisible; Figure 6).  Only the
  kernel's PLE tick reads it, so it matters only when PLE is armed.

So the ten algorithms are four classes, one per discipline, and a PAUSE
flag: :data:`ALL_SPINLOCKS` maps each name onto both.  Names with one
class differ on real hardware in details the model does not charge,
such as where their waiters spin (coherence traffic), so the kernel
tells them apart by the PAUSE flag alone, and only under PLE.
:func:`behaviour_twin` names the algorithm whose simulation stands in
for another's.

All of them look identical to BWD: a tight, backward-branching,
miss-free loop.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..errors import ProgramError

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.topology import Topology
    from ..kernel.task import Task


class SpinLockBase:
    """Waiter-queue machinery with FIFO handoff: the queue head is the
    designated successor.  Subclasses set the other disciplines."""

    fifo: bool = True

    def __init__(self, name: str = "", topology: "Topology | None" = None,
                 *, algorithm: str = "", uses_pause: bool = True):
        self.algorithm = algorithm
        self.uses_pause = uses_pause
        self.name = name or algorithm
        self.topology = topology
        self.holder: "Task | None" = None
        self.queue: deque["Task"] = deque()
        self.acquisitions = 0
        self.handoffs = 0

    # -- helpers --------------------------------------------------------
    def _node_of(self, task: "Task") -> int:
        if self.topology is None or task.last_cpu is None:
            return 0
        return self.topology.node_of(task.last_cpu)

    # -- kernel interface ----------------------------------------------
    def try_acquire(self, task: "Task") -> bool:
        if self.holder is not None:
            return False
        if self.queue:
            if self.fifo:
                if self.queue[0] is not task:
                    return False
                self.queue.popleft()
            else:
                try:
                    self.queue.remove(task)
                except ValueError:
                    pass
        self.holder = task
        self.acquisitions += 1
        return True

    def add_waiter(self, task: "Task") -> None:
        if task not in self.queue:
            self.queue.append(task)

    def release(self, task: "Task") -> list["Task"]:
        """Returns the waiters that may now acquire (and should re-check)."""
        if self.holder is not task:
            raise ProgramError(
                f"{task.name} released spinlock {self.name} held by "
                f"{self.holder.name if self.holder else None}"
            )
        self.holder = None
        self.handoffs += 1
        self._reorder(task)
        if not self.queue:
            return []
        if self.fifo:
            return [self.queue[0]]
        return list(self.queue)

    def _reorder(self, releaser: "Task") -> None:
        """Hook for NUMA-aware successor selection."""


class CompetitiveLock(SpinLockBase):
    """Any running spinner may grab a released lock (barging)."""

    fifo = False


class MalthusianLock(SpinLockBase):
    """Malthusian lock [Dice '17]: culls excess waiters into a passive set
    to bound concurrency on the lock; the active head is the successor and
    passive waiters are promoted when the active set drains."""

    active_limit = 2

    def __init__(self, name: str = "", topology: "Topology | None" = None,
                 **kw):
        super().__init__(name, topology, **kw)
        self.passive: deque["Task"] = deque()

    def add_waiter(self, task: "Task") -> None:
        if task in self.queue or task in self.passive:
            return
        if len(self.queue) >= self.active_limit:
            self.passive.append(task)
        else:
            self.queue.append(task)

    def _reorder(self, releaser: "Task") -> None:
        while len(self.queue) < self.active_limit and self.passive:
            self.queue.append(self.passive.popleft())

    def try_acquire(self, task: "Task") -> bool:
        # A passive waiter promoted while we were descheduled may be the
        # head; passive tasks themselves can never acquire directly.
        if task in self.passive:
            return False
        return super().try_acquire(task)


class NumaAwareLock(SpinLockBase):
    """FIFO with same-socket preference on handoff."""

    def _reorder(self, releaser: "Task") -> None:
        if len(self.queue) < 2:
            return
        node = self._node_of(releaser)
        same = [t for t in self.queue if self._node_of(t) == node]
        other = [t for t in self.queue if self._node_of(t) != node]
        if same:
            self.queue = deque(same + other)


#: Name -> (discipline, spins with PAUSE), in the order
#: :func:`behaviour_twin` prefers.
ALL_SPINLOCKS: dict[str, tuple[type[SpinLockBase], bool]] = {
    # Anderson array lock with local spinning: FIFO on array slots.
    "alock-ls": (SpinLockBase, False),
    # CLH queue lock: spins on the predecessor's qnode.
    "clh": (SpinLockBase, True),
    # MCS queue lock: each waiter spins on its own qnode.
    "mcs": (SpinLockBase, True),
    # Partitioned ticket lock: spins on a per-partition slot.
    "partitioned": (SpinLockBase, True),
    # Ticket lock: strict FIFO by ticket number; global spinning.
    "ticket": (SpinLockBase, True),
    # pthread_spin_lock: spins with NOP/PAUSE (Figure 6).
    "pthread": (CompetitiveLock, True),
    # Test-and-test-and-set: a plain load loop.
    "ttas": (CompetitiveLock, False),
    "malth": (MalthusianLock, True),
    # Compact NUMA-aware (CNA) qspinlock: same-socket successors first,
    # remote waiters parked on a secondary queue.
    "cna": (NumaAwareLock, True),
    # AQS: SHFLLOCK's shuffle-based spin-only variant.
    "aqs": (NumaAwareLock, True),
}


def _row(algorithm: str) -> tuple[type[SpinLockBase], bool]:
    try:
        return ALL_SPINLOCKS[algorithm]
    except KeyError:
        raise ProgramError(
            f"unknown spinlock {algorithm!r}; "
            f"choose from {sorted(ALL_SPINLOCKS)}"
        ) from None


def make_spinlock(
    algorithm: str,
    name: str = "",
    topology: "Topology | None" = None,
) -> SpinLockBase:
    """Factory over the ten algorithms of Figure 13."""
    cls, uses_pause = _row(algorithm)
    return cls(name, topology, algorithm=algorithm, uses_pause=uses_pause)


def behaviour_twin(algorithm: str, pause_visible: bool) -> str:
    """The first name in :data:`ALL_SPINLOCKS` that the kernel cannot tell
    from *algorithm*: the same discipline and, when *pause_visible* (PLE
    is armed), the same PAUSE flag.  A run of the twin is a run of
    *algorithm* but for the label in its task names."""
    cls, uses_pause = _row(algorithm)
    return next(name for name, (c, pause) in ALL_SPINLOCKS.items()
                if c is cls and (pause == uses_pause or not pause_visible))
