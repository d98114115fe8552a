"""Spin-then-park hybrid locks: Mutexee [14], MCS-TP [17] and SHFLLOCK.

Figure 15's baselines.  Each spins briefly hoping for a fast handoff and
then parks through futex.  The paper's point: because the *park* still takes
the vanilla futex sleep/wakeup path, these locks inherit its
oversubscription collapse — the spin phase only adds burned CPU on top.

Modeled as blocking primitives whose contended acquire charges the spin
window as on-CPU time before the futex wait, and whose release hands the
lock to the futex queue's FIFO head.  Mutexee and MCS-TP differ only in
their spin window; SHFLLOCK also shuffles the queue before the handoff.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ProgramError
from ..kernel.task import RUNNING

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.topology import Topology
    from ..kernel.kernel import Kernel
    from ..kernel.task import Task


class _SpinThenParkBase:
    """Common structure; subclasses set the spin window, and may reorder
    the queue before a handoff (:meth:`_shuffle`)."""

    algorithm = "stp"
    spin_window_ns = 2_000

    def __init__(self, name: str = ""):
        self.name = name or self.algorithm
        self.owner: "Task | None" = None
        self.acquisitions = 0
        self.contended = 0
        self.spin_ns_total = 0

    def acquire(self, sys: "Kernel", task: "Task") -> int:
        fast = sys.config.user.fast_ns
        if self.owner is None:
            self.owner = task
            self.acquisitions += 1
            return fast
        self.contended += 1
        window = self.spin_window_ns
        # Lock-holder preemption: when the owner is not on a CPU the spin
        # window is pure waste and typically repeats once before parking.
        if self.owner is not None and self.owner.state is not RUNNING:
            window *= 2
        self.spin_ns_total += window
        # Genuinely spin out the window (SPIN mode: burned, BWD-visible),
        # then park through futex.
        return fast + sys.futex_wait_spin(task, self, window)

    def _shuffle(self, sys: "Kernel", task: "Task",
                 head: "Task") -> "tuple[Task, int]":
        """The waiter ``task`` hands the lock to, given the queue's FIFO
        ``head``, and the extra release cost of choosing it."""
        return head, 0

    def release(self, sys: "Kernel", task: "Task") -> int:
        if self.owner is not task:
            raise ProgramError(
                f"{task.name} released {self.name} owned by "
                f"{self.owner.name if self.owner else None}"
            )
        fast = sys.config.user.fast_ns
        nxt = sys.futex_peek(self)
        if nxt is None:
            self.owner = None
            return fast
        nxt, cost = self._shuffle(sys, task, nxt)
        self.owner = nxt
        self.acquisitions += 1
        return fast + cost + sys.futex_wake(task, self, 1)


class Mutexee(_SpinThenParkBase):
    """Mutexee [Falsafi et al., ATC '16]: a short opportunistic spin
    (1.5 us), tuned for energy.  The model hands off to the futex queue's
    FIFO head, so only the spin window sets it apart from MCS-TP."""

    algorithm = "mutexee"
    spin_window_ns = 1_500


class McsTp(_SpinThenParkBase):
    """MCS time-published lock [He/Scherer/Scott, HiPC '05]: queue-based
    with preemption-adaptive timeouts, modeled as a longer published spin
    window (4 us) before parking.  The handoff goes to the futex queue's
    FIFO head, as for Mutexee."""

    algorithm = "mcstp"
    spin_window_ns = 4_000


class ShflLock(_SpinThenParkBase):
    """SHFLLOCK [Kashyap et al., SOSP '19] — Section 4.4's comparison target.

    SHFLLOCK keeps active and passive waiters in one queue and runs a
    *shuffler* that reorders waiters to group same-socket threads, enabling
    NUMA-aware handoff with a small memory footprint; waiters beyond a short
    spin window park through futex.

    The behaviors the paper's comparison exercises (Figure 15):

    * parking still uses the vanilla futex path -> inherits the
      oversubscribed sleep/wakeup collapse;
    * no bulk-wakeup optimization — waiters are woken one at a time through
      the full wake path;
    * NUMA-aware shuffling always prefers same-socket waiters, which under
      oversubscription concentrates wakeups on one socket and amplifies load
      fluctuation (extra migrations), occasionally making it *worse* than
      plain spin-then-park.

    Modeled with a 1 us spin window and a release that shuffles the futex
    queue toward the releaser's socket before the handoff, paying the
    shuffler's queue walk.  Without a ``topology`` every task is on one
    node, so nothing is ever shuffled.
    """

    algorithm = "shfllock"
    spin_window_ns = 1_000
    shuffle_cost_ns = 300  # queue walk per release

    def __init__(self, name: str = "",
                 topology: "Topology | None" = None):
        super().__init__(name)
        self.topology = topology
        self.shuffles = 0

    def _node_of(self, task: "Task") -> int:
        if self.topology is None or task.last_cpu is None:
            return 0
        return self.topology.node_of(task.last_cpu)

    def _shuffle(self, sys: "Kernel", task: "Task",
                 head: "Task") -> "tuple[Task, int]":
        # Shuffling pass: promote the first same-socket waiter to the front.
        my_node = self._node_of(task)
        if self._node_of(head) == my_node:
            return head, 0
        for waiter in list(sys.futex_table.bucket(self).waiters):
            if self._node_of(waiter) == my_node:
                sys.futex_requeue_front(self, waiter)
                self.shuffles += 1
                return waiter, self.shuffle_cost_ns
        return head, self.shuffle_cost_ns
