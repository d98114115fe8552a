"""Scheduler-policy interface: the policy/mechanism split.

``kernel.Kernel`` owns the *mechanism* — event plumbing, vruntime
accounting, VB sentinel parking, BWD deschedules, migration costing —
and delegates every scheduling *decision* to a :class:`SchedPolicy`:
which task runs next, where a wakeup lands in the queue, whether a
wakeup or an expired slice preempts, how long a slice is, and in what
order the balancer considers steal candidates.

Policies register themselves with :func:`register`; the registry drives
``--policy`` / ``REPRO_POLICY`` selection, the ``repro list`` table, and
the generated comparison table in ``docs/scheduling.md``.  The default
``cfs`` policy reproduces the kernel's historical inlined behavior
bit-for-bit; see ``docs/scheduling.md`` for the full hook contract and
a write-a-policy walkthrough.
"""

from __future__ import annotations

import os

from ..errors import ConfigError


class SchedPolicy:
    """Base class and hook contract for scheduling policies.

    One instance is created per :class:`~repro.kernel.Kernel` and
    ``configure()``-d with the kernel's ``SchedulerConfig``.  Hooks are
    called under simulated time; they must be deterministic (no wall
    clock, no unseeded randomness) and must never touch a task whose
    ``thread_state`` flag is set — VB-parked tasks are re-keyed at the
    sentinel tail by the runqueue itself and are invisible to policy
    decisions by construction.

    The base-class implementations are the CFS behaviors so that a
    subclass overriding nothing is already a valid (CFS-like) policy;
    ``docs/scheduling.md`` documents each hook's invariants.
    """

    #: registry key, CLI value, and desc/cache-key token
    name = "abstract"
    #: scheduling discipline family shown in docs ("fair", "deadline", ...)
    sched_class = "fair"
    #: one-line summary for ``repro list`` / docs
    description = "abstract base policy"
    #: human-readable slice model for the generated comparison table
    slice_model = "sched_latency / nr_schedulable, clamped to " \
        "[min_granularity, regular_slice]"
    #: human-readable preemption rule for the generated comparison table
    preempt_rule = "wakeup: vruntime gap > wakeup_granularity; " \
        "tick: any queued runnable"
    #: when True the kernel keeps its historical inlined CFS fast path
    #: (bit-identical) instead of calling these hooks
    inline_fast_path = False

    def configure(self, sched) -> None:
        """Bind the kernel's ``SchedulerConfig`` (slice/latency knobs)."""
        self.sched = sched

    # -- queue keying -------------------------------------------------
    def queue_key(self, task) -> int:
        """Scalar sort key under which ``task`` is (re-)enqueued.

        Called by the runqueue on every enqueue/requeue of a runnable
        task (never for VB-parked tasks — those get the sentinel key).
        May refresh per-task policy state (e.g. renew an EEVDF
        deadline).  Must return a value far below ``VB_SENTINEL`` so
        parked tasks always sort behind every runnable.
        """
        return task.vruntime

    def expected_key(self, task) -> int | None:
        """Pure predicted key for the invariant checker (no mutation).

        Must equal the primary key ``task`` is currently queued under,
        or ``None`` to skip the check.  Unlike :meth:`queue_key` this
        is called from the read-only invariant checker and must not
        change any state.
        """
        return task.vruntime

    # -- pick / place / preempt ---------------------------------------
    def pick_next(self, rq):
        """Dequeue and return the task to run next (leftmost by default).

        Only called when at least one queued task is runnable; the
        kernel handles the all-parked poll-idle case itself.
        """
        return rq.pick_next()

    def place_wakeup(self, rq, task) -> None:
        """Adjust ``task``'s key state before a fresh-wake enqueue.

        CFS grants half a latency window of sleeper credit, clamped so
        sleepers can never bank runtime.  Not called on VB wakes —
        in-place re-keying is the mechanism VB exists for.
        """
        rq.place_vruntime(task, self.sched.sched_latency_ns // 2)

    def check_preempt(self, curr, woken) -> bool:
        """Should ``woken`` (just enqueued on curr's CPU) preempt now?"""
        return curr.vruntime - woken.vruntime > self.sched.wakeup_granularity_ns

    def tick_preempt(self, rq, curr) -> bool:
        """Slice expired for ``curr``: reschedule, or extend its slice?"""
        head = rq.peek_next()
        return head is not None and not head.thread_state

    def slice_ns(self, nr_schedulable: int) -> int:
        """Length of the next time slice given the schedulable count."""
        sched = self.sched
        sl = sched.sched_latency_ns // (
            nr_schedulable if nr_schedulable > 1 else 1
        )
        if sl > sched.regular_slice_ns:
            sl = sched.regular_slice_ns
        if sl < sched.min_granularity_ns:
            sl = sched.min_granularity_ns
        return sl

    # -- balancing ----------------------------------------------------
    def steal_order(self, candidates):
        """Order migratable candidates before the balancer's seeded pick.

        The kernel draws from this sequence with its scheduler RNG;
        returning it unchanged (default) preserves CFS behavior.
        """
        return candidates


# ----------------------------------------------------------------------
# registry

POLICIES: dict[str, type[SchedPolicy]] = {}


def register(cls: type[SchedPolicy]) -> type[SchedPolicy]:
    """Class decorator: add a policy to the registry under ``cls.name``."""
    if cls.name in POLICIES:
        raise ValueError(f"duplicate policy name {cls.name!r}")
    POLICIES[cls.name] = cls
    return cls


def available() -> tuple[str, ...]:
    """Registered policy names, sorted (drives CLI choices and docs)."""
    return tuple(sorted(POLICIES))


def validate_policy_name(name: str) -> str:
    if name not in POLICIES:
        raise ConfigError(
            f"unknown scheduling policy {name!r}; "
            f"available: {', '.join(available())}"
        )
    return name


def get_policy(name: str) -> SchedPolicy:
    """Instantiate the registered policy ``name`` (ConfigError if unknown)."""
    return POLICIES[validate_policy_name(name)]()


# ----------------------------------------------------------------------
# process-global default + CLI plumbing


def current_policy() -> str:
    """The process-global default policy name."""
    return _policy


def set_default_policy(name: str) -> None:
    """Select the default policy for kernels that don't pin one.

    ``SimConfig.policy`` (and the ``"policy"`` desc key derived from
    it) always wins over this process-global default.
    """
    global _policy
    _policy = validate_policy_name(name)


def add_policy_argument(parser) -> None:
    """Attach the shared ``--policy`` flag to a subcommand parser."""
    parser.add_argument(
        "--policy", choices=list(available()), default=None,
        help="scheduling policy for every kernel this command builds "
             "(default: REPRO_POLICY or cfs); see docs/scheduling.md",
    )


def apply_policy_argument(args) -> None:
    """Honor a parsed ``--policy`` flag (no-op when absent/unset)."""
    policy = getattr(args, "policy", None)
    if policy:
        set_default_policy(policy)


# ----------------------------------------------------------------------
# generated docs

POLICY_TABLE_BEGIN = "<!-- BEGIN GENERATED: policy-table -->"
POLICY_TABLE_END = "<!-- END GENERATED: policy-table -->"


def render_policy_table() -> str:
    """Markdown comparison table of every registered policy.

    Embedded between the ``policy-table`` markers in
    ``docs/scheduling.md`` and drift-gated by ``repro docs --check``
    (same contract as ``docs/cli.md``).
    """
    lines = [
        "| policy | class | sched class | slice model | preemption rule |",
        "|---|---|---|---|---|",
    ]
    for name in available():
        cls = POLICIES[name]
        lines.append(
            f"| `{name}` | `{cls.__name__}` | {cls.sched_class} "
            f"| {cls.slice_model} | {cls.preempt_rule} |"
        )
    return "\n".join(lines) + "\n"


def update_policy_table(text: str) -> str:
    """Replace the generated block in ``docs/scheduling.md``'s text."""
    begin = text.index(POLICY_TABLE_BEGIN) + len(POLICY_TABLE_BEGIN)
    end = text.index(POLICY_TABLE_END)
    return text[:begin] + "\n" + render_policy_table() + text[end:]


# Populate the registry.  This import is at the bottom on purpose:
# policy implementations subclass SchedPolicy and call register(), so
# both must exist before the package import runs.
from . import policies as _policies  # noqa: E402,F401

_policy = os.environ.get("REPRO_POLICY", "cfs").strip() or "cfs"
if _policy not in POLICIES:  # pragma: no cover - import-time guard
    raise ValueError(
        f"REPRO_POLICY={_policy!r} is not a registered policy "
        f"(available: {', '.join(available())})"
    )
