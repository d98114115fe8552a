"""CFS: the default policy and the paper's baseline scheduler.

Every hook is the :class:`~repro.kernel.policy.SchedPolicy` default: the
base class *is* CFS, so that a policy overriding nothing is already
valid.  The kernel calls these hooks for every policy, and because CFS
leaves ``queue_key`` alone its runqueues keep their native vruntime
keying.  The class exists to register the name and the descriptive
strings for ``repro list`` and the generated policy table.
"""

from __future__ import annotations

from ..policy import SchedPolicy, register


@register
class CfsPolicy(SchedPolicy):
    name = "cfs"
    sched_class = "fair"
    description = "weighted fair queueing on vruntime (the paper's baseline)"
    slice_model = ("`sched_latency / nr_schedulable` clamped to "
                   "[`min_granularity`, `regular_slice`]")
    preempt_rule = ("wakeup: `curr.vruntime - woken.vruntime > "
                    "wakeup_granularity`; tick: any queued runnable")
