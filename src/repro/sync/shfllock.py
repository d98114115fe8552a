"""SHFLLOCK [Kashyap et al., SOSP '19] — Section 4.4's comparison target.

SHFLLOCK keeps active and passive waiters in one queue and runs a
*shuffler* that reorders waiters to group same-socket threads, enabling
NUMA-aware handoff with a small memory footprint; waiters beyond a short
spin window park through futex.

The behaviors the paper's comparison exercises (Figure 15):

* parking still uses the vanilla futex path -> inherits the oversubscribed
  sleep/wakeup collapse;
* no bulk-wakeup optimization — waiters are woken one at a time through
  the full wake path;
* NUMA-aware shuffling always prefers same-socket waiters, which under
  oversubscription concentrates wakeups on one socket and amplifies load
  fluctuation (extra migrations), occasionally making it *worse* than
  plain spin-then-park.

Modeled as a blocking primitive that (a) charges a short spin window on
contention, (b) shuffles the futex queue toward the releaser's socket
before handoff, and (c) adds the shuffler's queue-walk cost to releases.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ProgramError
from ..kernel.task import RUNNING

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.topology import Topology
    from ..kernel.kernel import Kernel
    from ..kernel.task import Task


class ShflLock:
    algorithm = "shfllock"
    spin_window_ns = 1_000
    shuffle_cost_ns = 300  # queue walk per release

    def __init__(self, name: str = "shfllock", topology: "Topology | None" = None):
        self.name = name
        self.topology = topology
        self.owner: "Task | None" = None
        self.acquisitions = 0
        self.contended = 0
        self.shuffles = 0

    def _node_of(self, task: "Task") -> int:
        if self.topology is None or task.last_cpu is None:
            return 0
        return self.topology.node_of(task.last_cpu)

    def acquire(self, sys: "Kernel", task: "Task") -> int:
        fast = sys.config.user.fast_ns
        if self.owner is None:
            self.owner = task
            self.acquisitions += 1
            return fast
        self.contended += 1
        window = self.spin_window_ns
        if self.owner is not None and self.owner.state is not RUNNING:
            window *= 2
        return fast + sys.futex_wait_spin(task, self, window)

    def release(self, sys: "Kernel", task: "Task") -> int:
        if self.owner is not task:
            raise ProgramError(
                f"{task.name} released {self.name} owned by "
                f"{self.owner.name if self.owner else None}"
            )
        fast = sys.config.user.fast_ns
        cost = fast
        nxt = sys.futex_peek(self)
        if nxt is None:
            self.owner = None
            return cost
        # Shuffling pass: promote the first same-socket waiter to the front.
        my_node = self._node_of(task)
        if self._node_of(nxt) != my_node:
            bucket = sys.futex_table.bucket(self)
            for waiter in list(bucket.waiters):
                if self._node_of(waiter) == my_node:
                    sys.futex_requeue_front(self, waiter)
                    self.shuffles += 1
                    nxt = waiter
                    break
            cost += self.shuffle_cost_ns
        self.owner = nxt
        self.acquisitions += 1
        return cost + sys.futex_wake(task, self, 1)
