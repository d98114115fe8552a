"""Kernel invariant checking (the chaos harness's correctness oracle).

The checker validates a :class:`~repro.kernel.kernel.Kernel`'s entire
scheduling state after engine events (every ``interval`` events; the full
pass is O(cpus + tasks + waiters), so it is subsampled on long runs).  It
is strictly read-only — it draws no RNG and mutates nothing — so enabling
it can never change simulation results, only catch corruption.

The interval counts ``engine.events_run``, so milestones the kernel runs
in place (run-ahead, :mod:`repro.sim.engine`) count toward it too.  The
engine calls the hook after heap events only, so a check that falls due
inside a run of inline milestones runs at the next heap-event boundary.
Run-ahead is exact, so the state there is the one the heap-only path
reaches after the same events, and every invariant must hold.

Invariant catalog (names appear in :class:`InvariantViolation.invariant`
and in ``docs/robustness.md``):

``task-duplicate``          a task is on two runqueues, or queued while
                            also being some CPU's current task
``task-lost``               a RUNNABLE/VBLOCKED task is on no runqueue
``task-placement``          task state disagrees with where it physically
                            is (EXITED but queued, queued while SLEEPING,
                            VBLOCKED on a queue other than ``vb_cpu``, ...)
``vb-sentinel-running``     a CPU's current task has ``thread_state`` set
                            (a VB-sentinel entry was selected to run)
``rq-key``                  a task's ``rq_key`` disagrees with the tree,
                            its key class disagrees with ``thread_state``,
                            or a real-keyed entry's key is stale vs. the
                            policy's ``expected_key`` (the vruntime under
                            CFS)
``nr-blocked``              a queue's incremental VB-blocked counter
                            disagrees with a from-scratch recount
``nr-runnable``             the machine-wide count of queued runnable
                            tasks disagrees with a from-scratch recount
``nr-schedulable``          ``nr_schedulable()`` disagrees with a recount
``min-vruntime-monotonic``  a queue's ``min_vruntime`` went backwards
``work-conservation``       an online CPU is idle while runnable
                            (non-VB) tasks sit in its queue
``cpu-event-armed``         a CPU is running a task but has no live
                            engine event to ever preempt/complete it
``offline-cpu-empty``       an offlined CPU still holds tasks
``futex-waitqueue``         a futex/epoll waiter is EXITED, queued twice,
                            or its ``block_kind`` disagrees with its state
``live-tasks``              ``kernel.live_tasks`` disagrees with a recount
``engine-pending``          the engine's O(1) live-event counter disagrees
                            with a from-scratch recount
``progress``                no forward progress (live-task count and total
                            busy time both frozen) for longer than the
                            horizon while tasks are alive — an undetected
                            deadlock or lost-wakeup livelock.  Spin-style
                            livelocks burn CPU and are *not* flagged here
                            (they look busy); ``run_to_completion``'s
                            deadline still bounds them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..config import SEC
from ..errors import InvariantViolation
from ..kernel.runqueue import VB_SENTINEL
from ..kernel.task import EXITED, RUNNABLE, RUNNING, SLEEPING, VBLOCKED

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel

#: Default full-check subsampling interval, in engine events.
DEFAULT_INTERVAL = 256

#: Default no-progress horizon, in simulated nanoseconds.  Generous: the
#: longest legitimate single quiet stretch in the suite (one big compute
#: chunk with no other event advancing ``busy_ns``) is well under this.
DEFAULT_PROGRESS_HORIZON_NS = 10 * SEC


class InvariantChecker:
    """Validates kernel state after engine events.

    Installed as ``engine.on_event`` by :class:`Kernel` when
    ``REPRO_CHECK_INVARIANTS=1`` is in the environment or a chaos session
    whose plan checks invariants is active.
    """

    def __init__(
        self,
        kernel: "Kernel",
        interval: int = DEFAULT_INTERVAL,
        progress_horizon_ns: int | None = DEFAULT_PROGRESS_HORIZON_NS,
        deep: bool = False,
    ):
        self.kernel = kernel
        self.interval = max(1, interval)
        self.progress_horizon_ns = progress_horizon_ns
        self.deep = deep
        self.checks = 0
        self._engine = kernel.engine
        run = kernel.engine.events_run
        self._next_check = run - run % self.interval + self.interval
        self._min_vr: dict[int, int] = {}
        self._progress_sig: tuple[int, int] | None = None
        self._progress_at = kernel.engine.now

    # ------------------------------------------------------------------
    def on_event(self) -> None:
        """Engine hook: one full check at the first heap-event boundary at
        or past each multiple of ``interval`` engine events, and the
        progress check alone at the first one past its horizon, so a
        stall is reported within one heap event of the horizon however
        sparse the events are."""
        engine = self._engine
        run = engine.events_run
        if run >= self._next_check:
            self._next_check = run - run % self.interval + self.interval
            self.check_now()
        elif (self.progress_horizon_ns is not None
              and engine.now - self._progress_at > self.progress_horizon_ns):
            self._check_progress(self.kernel.live_tasks)

    def _fail(self, invariant: str, message: str, **details) -> None:
        k = self.kernel
        raise InvariantViolation(
            f"[{invariant}] {message} (t={k.engine.now}ns, "
            f"event #{k.engine.events_run})",
            invariant=invariant,
            time_ns=k.engine.now,
            events_run=k.engine.events_run,
            details=details,
        )

    # ------------------------------------------------------------------
    def check_now(self) -> None:
        """One full validation pass; raises :class:`InvariantViolation`."""
        self.checks += 1
        k = self.kernel
        fail = self._fail
        seen: dict = {}  # task -> ("curr"|"queued", cpu_id)
        runnable = 0  # queued, not VB-blocked, over every CPU

        for cpu in k.cpus:
            rq = cpu.rq
            curr = rq.curr
            if not cpu.online and (curr is not None or rq.tree.size):
                fail(
                    "offline-cpu-empty",
                    f"offline cpu{cpu.id} still holds tasks",
                    cpu=cpu.id,
                    queued=rq.tree.size,
                    curr=curr.name if curr is not None else None,
                )
            if curr is not None:
                if curr in seen:
                    fail(
                        "task-duplicate",
                        f"{curr.name} is cpu{cpu.id}'s current task but "
                        f"also {seen[curr][0]} on cpu{seen[curr][1]}",
                        task=curr.name,
                    )
                seen[curr] = ("curr", cpu.id)
                if curr.state is not RUNNING:
                    fail(
                        "task-placement",
                        f"cpu{cpu.id} current task {curr.name} is "
                        f"{curr.state.value}, not running",
                        task=curr.name,
                        state=curr.state.value,
                    )
                if curr.thread_state:
                    fail(
                        "vb-sentinel-running",
                        f"virtually-blocked task {curr.name} is running "
                        f"on cpu{cpu.id}",
                        task=curr.name,
                        cpu=cpu.id,
                    )
                if curr.rq_key is not None:
                    fail(
                        "rq-key",
                        f"running task {curr.name} still has rq_key "
                        f"{curr.rq_key}",
                        task=curr.name,
                    )
                if curr.cpu != cpu.id:
                    fail(
                        "task-placement",
                        f"cpu{cpu.id} runs {curr.name} but task.cpu is "
                        f"{curr.cpu}",
                        task=curr.name,
                    )
                ev = cpu.event
                if ev is None or ev[2] is None:
                    fail(
                        "cpu-event-armed",
                        f"cpu{cpu.id} runs {curr.name} with no live "
                        "engine event armed",
                        task=curr.name,
                        cpu=cpu.id,
                    )
            blocked = 0
            for key, t in rq.tree.items():
                if t in seen:
                    fail(
                        "task-duplicate",
                        f"{t.name} queued on cpu{cpu.id} but also "
                        f"{seen[t][0]} on cpu{seen[t][1]}",
                        task=t.name,
                    )
                seen[t] = ("queued", cpu.id)
                if t.rq_key != key:
                    fail(
                        "rq-key",
                        f"{t.name} queued under key {key} but rq_key is "
                        f"{t.rq_key}",
                        task=t.name,
                    )
                sentinel = key[0] >= VB_SENTINEL
                if sentinel:
                    blocked += 1
                if sentinel != (t.thread_state != 0):
                    fail(
                        "rq-key",
                        f"{t.name} key class (sentinel={sentinel}) "
                        f"disagrees with thread_state={t.thread_state}",
                        task=t.name,
                    )
                if not sentinel:
                    expected = k.policy.expected_key(t)
                    if expected is not None and key[0] != expected:
                        fail(
                            "rq-key",
                            f"{t.name} queued under stale "
                            f"{k.policy.name} key {key[0]} != {expected}",
                            task=t.name,
                        )
                if sentinel:
                    if t.state is not VBLOCKED:
                        fail(
                            "task-placement",
                            f"sentinel-keyed {t.name} is "
                            f"{t.state.value}, not vblocked",
                            task=t.name,
                            state=t.state.value,
                        )
                elif t.state is not RUNNABLE:
                    fail(
                        "task-placement",
                        f"queued task {t.name} is {t.state.value}, "
                        "not runnable",
                        task=t.name,
                        state=t.state.value,
                    )
            if blocked != rq.nr_blocked:
                fail(
                    "nr-blocked",
                    f"cpu{cpu.id} nr_blocked={rq.nr_blocked} but recount "
                    f"finds {blocked}",
                    cpu=cpu.id,
                    counter=rq.nr_blocked,
                    recount=blocked,
                )
            runnable += rq.tree.size - blocked
            expect_sched = rq.tree.size - blocked + (
                1 if curr is not None and curr.thread_state == 0 else 0
            )
            if expect_sched != rq.nr_schedulable():
                fail(
                    "nr-schedulable",
                    f"cpu{cpu.id} nr_schedulable()={rq.nr_schedulable()} "
                    f"but recount finds {expect_sched}",
                    cpu=cpu.id,
                    counter=rq.nr_schedulable(),
                    recount=expect_sched,
                )
            if cpu.online and curr is None and rq.tree.size - blocked > 0:
                fail(
                    "work-conservation",
                    f"cpu{cpu.id} is idle with "
                    f"{rq.tree.size - blocked} runnable task(s) queued",
                    cpu=cpu.id,
                    runnable=rq.tree.size - blocked,
                )
            mv = rq.min_vruntime
            last = self._min_vr.get(cpu.id)
            if last is not None and mv < last:
                fail(
                    "min-vruntime-monotonic",
                    f"cpu{cpu.id} min_vruntime went backwards "
                    f"{last} -> {mv}",
                    cpu=cpu.id,
                    before=last,
                    after=mv,
                )
            self._min_vr[cpu.id] = mv
            if self.deep:
                rq.tree.validate()
        if runnable != k.queued_runnable.n:
            fail(
                "nr-runnable",
                f"queued_runnable={k.queued_runnable.n} but recount finds "
                f"{runnable}",
                counter=k.queued_runnable.n,
                recount=runnable,
            )

        live = 0
        for t in k.tasks:
            st = t.state
            if st is EXITED:
                if t in seen:
                    fail(
                        "task-placement",
                        f"exited task {t.name} is still "
                        f"{seen[t][0]} on cpu{seen[t][1]}",
                        task=t.name,
                    )
                continue
            live += 1
            where = seen.get(t)
            if st is RUNNING:
                if where is None or where[0] != "curr":
                    fail(
                        "task-placement",
                        f"running task {t.name} is not any CPU's "
                        "current task",
                        task=t.name,
                    )
            elif st is RUNNABLE:
                if where is None or where[0] != "queued":
                    fail(
                        "task-lost",
                        f"runnable task {t.name} is on no runqueue",
                        task=t.name,
                    )
            elif st is VBLOCKED:
                if where is None or where[0] != "queued":
                    fail(
                        "task-lost",
                        f"virtually-blocked task {t.name} is on no "
                        "runqueue",
                        task=t.name,
                    )
                elif where[1] != t.vb_cpu:
                    fail(
                        "task-placement",
                        f"virtually-blocked task {t.name} queued on "
                        f"cpu{where[1]} but vb_cpu={t.vb_cpu}",
                        task=t.name,
                    )
            elif st is SLEEPING:
                if where is not None:
                    fail(
                        "task-placement",
                        f"sleeping task {t.name} is {where[0]} on "
                        f"cpu{where[1]}",
                        task=t.name,
                    )
                if t.rq_key is not None:
                    fail(
                        "rq-key",
                        f"sleeping task {t.name} still has rq_key "
                        f"{t.rq_key}",
                        task=t.name,
                    )
            else:  # NEW: spawn() transitions to RUNNABLE synchronously
                fail(
                    "task-placement",
                    f"task {t.name} is {st.value} after events ran",
                    task=t.name,
                    state=st.value,
                )
        if live != k.live_tasks:
            fail(
                "live-tasks",
                f"kernel.live_tasks={k.live_tasks} but recount finds "
                f"{live}",
                counter=k.live_tasks,
                recount=live,
            )

        wseen: set = set()
        for bucket in k.futex_table.buckets():
            for t in bucket.waiters:
                tid = id(t)
                if tid in wseen:
                    fail(
                        "futex-waitqueue",
                        f"{t.name} waits on two futex buckets",
                        task=t.name,
                    )
                wseen.add(tid)
                st = t.state
                if st is EXITED:
                    fail(
                        "futex-waitqueue",
                        f"exited task {t.name} still queued on a futex "
                        "bucket",
                        task=t.name,
                    )
                elif st is SLEEPING and t.block_kind != "sleep":
                    fail(
                        "futex-waitqueue",
                        f"sleeping waiter {t.name} has "
                        f"block_kind={t.block_kind!r}",
                        task=t.name,
                    )
                elif st is VBLOCKED and t.block_kind != "vb":
                    fail(
                        "futex-waitqueue",
                        f"virtually-blocked waiter {t.name} has "
                        f"block_kind={t.block_kind!r}",
                        task=t.name,
                    )

        engine = k.engine
        recount = engine.recount_live()
        if recount != engine.pending:
            fail(
                "engine-pending",
                f"engine pending={engine.pending} but recount finds "
                f"{recount}",
                counter=engine.pending,
                recount=recount,
            )

        self._check_progress(live)

    # ------------------------------------------------------------------
    def _check_progress(self, live: int) -> None:
        k = self.kernel
        busy = 0
        for cpu in k.cpus:
            busy += cpu.busy_ns
        sig = (live, busy)
        now = k.engine.now
        if sig != self._progress_sig:
            self._progress_sig = sig
            self._progress_at = now
            return
        horizon = self.progress_horizon_ns
        if live and horizon is not None and now - self._progress_at > horizon:
            stuck = [
                f"{t.name}({t.state.value})" for t in k.tasks if t.alive
            ][:16]
            self._fail(
                "progress",
                f"no forward progress for {now - self._progress_at}ns "
                f"with {live} live task(s) — undetected deadlock or "
                "lost wakeup",
                stalled_ns=now - self._progress_at,
                live=live,
                tasks=stuck,
            )
