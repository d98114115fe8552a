"""EEVDF: earliest-eligible-virtual-deadline-first.

The discipline that replaced CFS pick-next in Linux 6.6: each task
carries a *virtual deadline* — its vruntime plus one weighted slice —
renewed whenever its vruntime catches up to it.  The runqueue orders
by deadline; pick-next takes the earliest-deadline task that is
*eligible* (non-negative lag, i.e. its vruntime is at or behind the
queue average), falling back to the earliest deadline outright so the
CPU never idles while work is queued.

VB/BWD interplay: parked tasks sort at the sentinel tail exactly as
under CFS (the runqueue keys them before the policy is consulted), and
a BWD skip-flag push advances vruntime past every queued runnable,
which both delays eligibility and forces a deadline renewal on the
next enqueue — the mechanisms need nothing policy-specific.
"""

from __future__ import annotations

from ..policy import SchedPolicy, register
from ..task import NICE_0_WEIGHT


@register
class EevdfPolicy(SchedPolicy):
    name = "eevdf"
    sched_class = "fair (deadline-ordered)"
    description = "eligible virtual-deadline-first with lag accounting"
    slice_model = ("CFS-style slice; virtual deadline = `vruntime + "
                   "regular_slice * 1024 / weight`, renewed on expiry")
    preempt_rule = ("wakeup: earlier virtual deadline than curr; "
                    "tick: reschedule whenever a runnable is queued")

    def _vslice(self, task) -> int:
        return self.sched.regular_slice_ns * NICE_0_WEIGHT // task.weight

    def _deadline(self, task) -> int:
        """Effective deadline without mutating ``task`` (pure)."""
        dl = task.deadline
        if dl is None or task.vruntime >= dl:
            return task.vruntime + self._vslice(task)
        return dl

    def queue_key(self, task) -> int:
        dl = task.deadline
        if dl is None or task.vruntime >= dl:
            task.deadline = dl = task.vruntime + self._vslice(task)
        return dl

    def expected_key(self, task) -> int | None:
        # queue_key stored the exact key it returned; a queued task's
        # deadline is only ever rewritten by its next enqueue.
        return task.deadline

    def pick_next(self, rq):
        runnable = [t for t in rq.tasks() if not t.thread_state]
        if not runnable:  # pragma: no cover - kernel handles all-parked
            return rq.pick_next()
        # Lag >= 0 means the task has received no more than its fair
        # share: vruntime at or behind the queue average.
        avg = sum(t.vruntime for t in runnable) // len(runnable)
        task = next((t for t in runnable if t.vruntime <= avg), runnable[0])
        rq.dequeue(task)
        return task

    def place_wakeup(self, rq, task) -> None:
        rq.place_vruntime(task, self.sched.sched_latency_ns // 2)
        task.deadline = None  # fresh deadline from the placed vruntime

    def check_preempt(self, curr, woken) -> bool:
        return self._deadline(woken) < self._deadline(curr)

    def tick_preempt(self, rq, curr) -> bool:
        # A full slice ran: hand the decision back to pick_next, which
        # re-sorts curr by its (possibly renewed) deadline.
        return rq.nr_queued_runnable > 0
