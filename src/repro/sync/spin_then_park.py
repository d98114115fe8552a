"""Spin-then-park hybrid locks: Mutexee [14] and MCS-TP [17].

Figure 15's baselines.  Both spin briefly hoping for a fast handoff and
then park through futex.  The paper's point: because the *park* still takes
the vanilla futex sleep/wakeup path, these locks inherit its
oversubscription collapse — the spin phase only adds burned CPU on top.

Modeled as blocking primitives whose contended acquire charges the spin
window as on-CPU time before the futex wait.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ProgramError
from ..kernel.task import RUNNING

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel
    from ..kernel.task import Task


class _SpinThenParkBase:
    """Common structure; subclasses set the spin window and fairness."""

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

    def release(self, sys: "Kernel", task: "Task") -> int:
        if self.owner is not task:
            raise ProgramError(
                f"{task.name} released {self.name} owned by "
                f"{self.owner.name if self.owner else None}"
            )
        fast = sys.config.user.fast_ns
        nxt = sys.futex_peek(self)
        if nxt is not None:
            self.owner = nxt
            self.acquisitions += 1
            return fast + sys.futex_wake(task, self, 1)
        self.owner = None
        return fast


class Mutexee(_SpinThenParkBase):
    """Mutexee [Falsafi et al., ATC '16]: short opportunistic spin, unfair
    wake (whoever the futex pops), tuned for energy."""

    algorithm = "mutexee"
    spin_window_ns = 1_500


class McsTp(_SpinThenParkBase):
    """MCS time-published lock [He/Scherer/Scott, HiPC '05]: queue-based
    with preemption-adaptive timeouts — a longer published spin window
    before parking, strict FIFO handoff."""

    algorithm = "mcstp"
    spin_window_ns = 4_000
