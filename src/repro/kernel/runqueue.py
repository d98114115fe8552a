"""Per-CPU CFS runqueue: queued tasks ordered by virtual runtime.

Mirrors ``cfs_rq``: the currently running task is *not* queued; the
queue (``tree``, a :class:`~repro.util.sortedmap.SortedMap`) is keyed by
``(vruntime, enqueue_seq)``; ``min_vruntime`` advances monotonically and
places newly woken tasks.

Virtual blocking inserts blocked tasks at the tail using a sentinel key
component far above any real vruntime (the paper's "arbitrarily large
virtual runtime"), so ``pick_next`` naturally prefers every runnable task
and only reaches blocked ones when the whole queue is blocked.

Hot-path accounting is incremental: the queue counts its VB-blocked
(sentinel-keyed) entries on enqueue/dequeue, so ``nr_schedulable()`` is
O(1) instead of a per-call scan, and the map's first slot makes
``peek_next``/``update_min_vruntime`` O(1).  The same updates keep a
machine-wide :class:`QueuedRunnable` count that a kernel's runqueues
share, so an idle CPU knows in O(1) when no queue has a task to steal.
This relies on an invariant the kernel maintains: a queued task's key
class (sentinel vs real vruntime) always matches its ``thread_state`` at
every point where the queue is observed — VB wake paths re-key the task
in the same uninterruptible step that clears the flag.
"""

from __future__ import annotations

from typing import Iterator

from ..util.sortedmap import SortedMap
from .task import RUNNABLE, Task

# An hour of virtual runtime: far beyond anything a real task accumulates.
VB_SENTINEL = 3_600_000_000_000
# Sorts above every real ``(vruntime, seq)`` key and below every sentinel one.
_SENTINEL_FLOOR = (VB_SENTINEL,)


class QueuedRunnable:
    """Queued runnable (not VB-blocked) tasks over every runqueue of one
    machine: real-keyed entries, counted where ``nr_blocked`` counts the
    sentinel-keyed ones."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0


class CfsRunqueue:
    """One CPU's runqueue."""

    def __init__(self, cpu_id: int,
                 queued_runnable: QueuedRunnable | None = None):
        self.cpu_id = cpu_id
        self.tree = SortedMap()
        self.curr: Task | None = None
        self.min_vruntime: int = 0
        self._seq = 0
        self.nr_blocked = 0  # sentinel-keyed (VB-blocked) entries in tree
        self.queued_runnable = (queued_runnable if queued_runnable is not None
                                else QueuedRunnable())
        self.nr_enqueues = 0
        # A policy that overrides queue_key installs the hook here; None
        # keeps vruntime keying (and its O(1) min path).
        self.key_fn = None

    # ------------------------------------------------------------------
    # Size / load
    # ------------------------------------------------------------------
    @property
    def nr_queued(self) -> int:
        """Tasks waiting in the tree (including virtually blocked ones)."""
        return self.tree.size

    @property
    def nr_running(self) -> int:
        """Linux's ``rq->nr_running``: queued + current.

        Virtually blocked tasks count — that stability is what kills the
        load fluctuation that triggers migration storms under vanilla
        blocking (Section 3.1 / Table 1).
        """
        return self.tree.size + (1 if self.curr is not None else 0)

    @property
    def nr_queued_runnable(self) -> int:
        """Queued tasks pick_next may actually run (excludes VB-blocked).
        O(1): the blocked population is counted on enqueue/dequeue."""
        return self.tree.size - self.nr_blocked

    def nr_schedulable(self) -> int:
        """Tasks that pick_next may actually run (excludes VB-blocked)."""
        n = self.tree.size - self.nr_blocked
        curr = self.curr
        if curr is not None and curr.thread_state == 0:
            n += 1
        return n

    def recount_blocked(self) -> int:
        """From-scratch count of sentinel-keyed entries — the ground truth
        behind the incremental ``nr_blocked`` counter.  O(n); used by the
        invariant checker and tests, never by the scheduler hot path."""
        return sum(1 for key in self.tree.keys() if key[0] >= VB_SENTINEL)

    # ------------------------------------------------------------------
    # Enqueue / dequeue
    # ------------------------------------------------------------------
    def _key_for(self, task: Task) -> tuple[int, int]:
        self._seq += 1
        if task.thread_state:
            return (VB_SENTINEL + self._seq, self._seq)
        kf = self.key_fn
        if kf is not None:
            return (kf(task), self._seq)
        return (task.vruntime, self._seq)

    def enqueue(self, task: Task) -> None:
        assert task.rq_key is None, f"{task} already queued"
        key = self._key_for(task)
        self.tree.insert(key, task)
        task.rq_key = key
        if key[0] >= VB_SENTINEL:
            self.nr_blocked += 1
        else:
            self.queued_runnable.n += 1
        self.nr_enqueues += 1

    def dequeue(self, task: Task) -> None:
        key = task.rq_key
        assert key is not None, f"{task} not queued"
        self.tree.remove(key)
        task.rq_key = None
        if key[0] >= VB_SENTINEL:
            self.nr_blocked -= 1
        else:
            self.queued_runnable.n -= 1

    def requeue(self, task: Task) -> None:
        """Re-insert with a key reflecting the task's current state."""
        self.dequeue(task)
        self.enqueue(task)

    # ------------------------------------------------------------------
    # Picking
    # ------------------------------------------------------------------
    def peek_next(self) -> Task | None:
        """Leftmost task; may be VB-blocked if every queued task is."""
        tree = self.tree
        if tree.size == 0:
            return None
        return tree.min_value()

    def pick_next(self) -> Task | None:
        """Remove and return the leftmost task."""
        tree = self.tree
        if tree.size == 0:
            return None
        key, task = tree.pop_min()
        if key[0] >= VB_SENTINEL:
            self.nr_blocked -= 1
        else:
            self.queued_runnable.n -= 1
        task.rq_key = None
        return task

    def update_min_vruntime(self) -> None:
        """Advance ``min_vruntime`` monotonically toward the smallest
        runnable vruntime.  O(1): reads the smallest key and ignores it
        when it is a VB sentinel (every queued task blocked) — no scan."""
        curr = self.curr
        vr = None
        if curr is not None and curr.thread_state == 0:
            vr = curr.vruntime
        tree = self.tree
        if self.key_fn is None:
            if tree.size:
                key = tree.min_item()[0]
                k0 = key[0]
                if k0 < VB_SENTINEL and (vr is None or k0 < vr):
                    vr = k0
        else:
            # Policy keys are not vruntimes, so the leftmost key says
            # nothing about the vruntime floor — scan the live entries
            # (cold: only non-CFS policies take this branch).
            for t in tree.values():
                if t.thread_state == 0 and (vr is None or t.vruntime < vr):
                    vr = t.vruntime
        if vr is not None and vr > self.min_vruntime:
            self.min_vruntime = vr

    def max_runnable_vruntime(self) -> int | None:
        """Largest vruntime among queued runnable (not VB-blocked) tasks,
        or None.  Under CFS keying a queued task's key is its vruntime
        (the chaos rq-key invariant), so this is one binary search for
        the greatest key below the VB sentinel."""
        if self.key_fn is None:
            item = self.tree.max_item_below(_SENTINEL_FLOOR)
            return None if item is None else item[0][0]
        vr = None
        for t in self.tree.values():
            if t.thread_state == 0 and (vr is None or t.vruntime > vr):
                vr = t.vruntime
        return vr

    def place_vruntime(self, task: Task, sleeper_bonus_ns: int = 0) -> None:
        """CFS ``place_entity``: cap a sleeper's vruntime near the queue's
        min so it gets scheduled soon without starving the queue."""
        target = self.min_vruntime - sleeper_bonus_ns
        if task.vruntime < target:  # max(), spelled out: once per wake
            task.vruntime = target

    def tasks(self) -> Iterator[Task]:
        """Queued tasks in key order — a lazy iterator; callers that need
        a snapshot (e.g. to mutate while iterating) must list() it."""
        return self.tree.values()

    def steal_candidates(self) -> Iterator[Task]:
        """Queued tasks eligible for migration (never the current task;
        VB-blocked tasks are skipped in migration, per Section 3.1).
        Lazy: balance scans probe many queues and often need none or one
        item; use ``nr_queued_runnable`` for a pure existence check."""
        return (
            t
            for t in self.tree.values()
            if t.thread_state == 0 and t.state is RUNNABLE
        )
