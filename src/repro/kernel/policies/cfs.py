"""CFS: the default policy, bit-identical to the historical kernel.

The hook bodies here restate the expressions that used to be inlined
in ``kernel/kernel.py``; with ``inline_fast_path = True`` the kernel
keeps running those original inlined forms, so the digests cannot move.
The hooks still matter: they are what the invariant checker, the
conformance tests, and the policy-author guide treat as the reference
semantics, and ``tests/test_policy.py`` proves the hook path and the
inlined path produce identical simulations.
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
    inline_fast_path = True

    # Every hook is the SchedPolicy default: the base class *is* CFS so
    # that a policy overriding nothing is already valid.  Listed
    # explicitly anyway so this file reads as the reference policy.

    def queue_key(self, task) -> int:
        return task.vruntime

    def expected_key(self, task) -> int | None:
        return task.vruntime
