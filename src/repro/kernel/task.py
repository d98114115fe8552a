"""task_struct equivalent: per-thread kernel state and statistics."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Generator, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..prog.actions import Action


class TaskState(enum.Enum):
    NEW = "new"
    RUNNABLE = "runnable"  # on a runqueue, not running
    RUNNING = "running"  # current on some CPU
    SLEEPING = "sleeping"  # off the runqueue (vanilla blocking)
    VBLOCKED = "vblocked"  # virtually blocked: on the runqueue, skipped
    EXITED = "exited"


class RunMode(enum.Enum):
    """What a RUNNING task's cycles are doing (drives LBR/PMC synthesis)."""

    COMPUTE = "compute"
    SPIN = "spin"
    VB_POLL = "vb-poll"  # briefly polling thread_state when all are blocked


# The members the per-event code tests, bound once as module constants.
# On Python 3.10 and 3.11 the enum metaclass defines ``__getattr__``, so
# every ``TaskState.RUNNING`` in a function body takes the slow attribute
# hook (about 170 ns, against 15 ns for a global).  These are the same
# objects, so every ``is`` test gives the same answer
# (docs/performance.md, "Enum member lookups").
NEW = TaskState.NEW
RUNNABLE = TaskState.RUNNABLE
RUNNING = TaskState.RUNNING
SLEEPING = TaskState.SLEEPING
VBLOCKED = TaskState.VBLOCKED
EXITED = TaskState.EXITED
MODE_COMPUTE = RunMode.COMPUTE
MODE_SPIN = RunMode.SPIN


@dataclass
class ExecProfile:
    """Micro-architectural character of a task's compute phases.

    ``tight_loop_prob`` — probability that a 100 us monitoring window of
    compute consists of a tight, cache-resident loop with no L1/TLB misses
    (BWD's false-positive source, Table 3).
    ``miss_rate_scale`` — multiplier on the paper's profiled miss rates.
    ``spin_uses_pause`` — whether this program's spin loops execute PAUSE
    (visible to PLE) or are plain load-compare loops (invisible, e.g. NPB lu).
    """

    tight_loop_prob: float = 0.0
    miss_rate_scale: float = 1.0
    spin_uses_pause: bool = True
    # Multiplier on migration cache-refill penalties: ~1 for cache-light
    # code, larger for multi-MB working sets (Figure 4's refill arithmetic).
    migration_weight: float = 1.0


@dataclass
class TaskStats:
    cpu_ns: int = 0  # time on CPU making progress
    spin_ns: int = 0  # time on CPU spinning
    wait_ns: int = 0  # runnable but not running
    sleep_ns: int = 0  # blocked (real or virtual)
    nr_switches: int = 0
    nr_voluntary: int = 0
    nr_involuntary: int = 0
    nr_migrations_in_node: int = 0
    nr_migrations_cross_node: int = 0
    nr_wakeups: int = 0
    nr_blocks: int = 0
    nr_slice_expiries: int = 0  # timeslice ran out (renewed or preempted)
    nr_futex_waits: int = 0
    bwd_deschedules: int = 0
    wakeup_latency_ns: int = 0  # sum over wakeups: wake -> running

    @property
    def total_migrations(self) -> int:
        return self.nr_migrations_in_node + self.nr_migrations_cross_node


# CFS nice-to-weight table (kernel/sched/core.c sched_prio_to_weight),
# nice -20 .. +19; weight 1024 is nice 0.
NICE_0_WEIGHT = 1024
_PRIO_TO_WEIGHT = [
    88761, 71755, 56483, 46273, 36291,
    29154, 23254, 18705, 14949, 11916,
    9548, 7620, 6100, 4904, 3906,
    3121, 2501, 1991, 1586, 1277,
    1024, 820, 655, 526, 423,
    335, 272, 215, 172, 137,
    110, 87, 70, 56, 45,
    36, 29, 23, 18, 15,
]


def nice_to_weight(nice: int) -> int:
    if not -20 <= nice <= 19:
        raise ValueError(f"nice value {nice} out of [-20, 19]")
    return _PRIO_TO_WEIGHT[nice + 20]


class Task:
    """A simulated kernel thread bound to a generator program."""

    # Past 29 attributes a CPython 3.11 instance dict stops sharing its
    # keys, and every attribute read, write and method load on the
    # per-event path falls off the specialized instructions; slots keep
    # them on (docs/performance.md, "Instance dicts past 29 attributes").
    # A policy that keeps per-task state needs a slot here, as EEVDF's
    # ``deadline`` has.
    __slots__ = (
        "tid", "name", "program", "profile", "nice", "weight",
        "state", "mode", "cpu", "last_cpu", "vruntime", "saved_vruntime",
        "rq_key", "thread_state", "skip_flag", "action",
        "action_remaining", "pending_result", "wake_completed",
        "block_kind", "wake_pending", "sync_wake", "pinned_cpu", "vb_cpu",
        "pending_penalty_ns", "state_since", "mode_since", "on_cpu_since",
        "woken_at", "spin_target", "spin_signature", "stats", "exited_at",
        "exit_error", "deadline",
    )

    _next_tid = [1]

    def __init__(
        self,
        name: str,
        program: Generator["Action", Any, None],
        profile: ExecProfile | None = None,
        nice: int = 0,
    ):
        self.tid = Task._next_tid[0]
        Task._next_tid[0] += 1
        self.name = name
        self.program = program
        self.profile = profile or ExecProfile()

        self.nice = nice
        self.weight = nice_to_weight(nice)
        self.state = NEW
        self.mode = MODE_COMPUTE
        self.cpu: int | None = None  # CPU currently running on
        self.last_cpu: int | None = None  # last CPU it ran on
        self.vruntime: int = 0
        self.saved_vruntime: int | None = None  # stashed during VB
        self.rq_key: tuple | None = None  # key in the runqueue tree, if queued

        # Virtual blocking flag (the paper's thread_state) and BWD skip flag.
        self.thread_state: int = 0
        self.skip_flag: bool = False

        # Current action being executed and its remaining on-CPU time.
        self.action: "Action | None" = None
        self.action_remaining: int = 0
        # Result to feed into the generator when the action completes.
        self.pending_result: Any = None
        # Set when a blocking action's outcome arrived while parked.
        self.wake_completed: bool = False

        # How the task parked ("sleep" vanilla / "vb" virtual), if blocking.
        self.block_kind: str | None = None
        # A wake arrived while the task was still in its pre-park window.
        self.wake_pending: bool = False
        # The pending wake is a 1:1 handoff (wake_affine sync hint).
        self.sync_wake: bool = False
        # CPU affinity (Figure 11's pinning baseline) and VB home queue.
        self.pinned_cpu: int | None = None
        self.vb_cpu: int = 0

        # Penalty charged on next dispatch (migration cache refill).
        self.pending_penalty_ns: int = 0
        # Timestamps for state accounting.
        self.state_since: int = 0
        self.mode_since: int = 0
        self.on_cpu_since: int = 0
        self.woken_at: int | None = None

        # What the task is spinning on, if mode is SPIN.
        self.spin_target: Any = None
        self.spin_signature: int = self.tid * 0x1000 + 0x400000

        self.stats = TaskStats()
        self.exited_at: int | None = None
        self.exit_error: BaseException | None = None
        # EEVDF's virtual deadline (repro.kernel.policies.eevdf); None
        # until the policy first keys the task.
        self.deadline: int | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.tid} {self.name!r} {self.state.value}>"

    @property
    def alive(self) -> bool:
        return self.state is not EXITED

    @property
    def on_rq(self) -> bool:
        return self.rq_key is not None

    def account_state(self, now: int) -> None:
        """Fold the time since the last state change into the stats."""
        elapsed = now - self.state_since
        if elapsed <= 0:
            self.state_since = now
            return
        state = self.state
        if state is RUNNING:
            if self.mode is MODE_COMPUTE:
                self.stats.cpu_ns += elapsed
            else:
                self.stats.spin_ns += elapsed
        elif state is RUNNABLE:
            self.stats.wait_ns += elapsed
        elif state is SLEEPING or state is VBLOCKED:
            self.stats.sleep_ns += elapsed
        self.state_since = now

    def set_state(self, state: TaskState, now: int) -> None:
        # account_state, inlined: this runs on every state change.
        elapsed = now - self.state_since
        if elapsed > 0:
            old = self.state
            if old is RUNNING:
                if self.mode is MODE_COMPUTE:
                    self.stats.cpu_ns += elapsed
                else:
                    self.stats.spin_ns += elapsed
            elif old is RUNNABLE:
                self.stats.wait_ns += elapsed
            elif old is SLEEPING or old is VBLOCKED:
                self.stats.sleep_ns += elapsed
        self.state_since = now
        self.state = state

    def set_mode(self, mode: RunMode, now: int) -> None:
        self.account_state(now)
        self.mode = mode
        self.mode_since = now
