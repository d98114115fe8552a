"""Heap-backed CFS runqueue: the fast backend's runqueue implementation.

Drop-in replacement for :class:`repro.kernel.runqueue.CfsRunqueue` with
the identical pick order.  The red-black tree is replaced by a binary
heap of ``(k0, seq, key, task)`` entries; keys are the exact tuples the
rbtree uses — ``(vruntime, enqueue_seq)`` or the VB-sentinel form — and
``seq`` is unique, so the heap's pop order *is* the tree's in-order
walk.  Dequeue is a lazy tombstone (``task.rq_key`` no longer matches
the entry's key object), amortised away by compaction; enqueue/pick are
pure C-speed ``heapq`` operations instead of rbtree rotations.

External consumers (the chaos invariant checker reads ``rq.tree.size``
and walks ``rq.tree.items()``) see the same interface through a small
shim object whose ``size`` attribute is kept in sync on every mutation;
hot kernel paths read it with one attribute load exactly as they read
the rbtree's.

When a :class:`repro.fastpath.soa.CpuLoadBoard` is attached, every
mutation write-throughs the queue's size/blocked counts into that
board's ``array('q')`` columns so machine-wide balance scans can run as
numpy reductions instead of per-CPU Python loops.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterator

from ..kernel.runqueue import VB_SENTINEL
from ..kernel.task import Task, TaskState


class _HeapTreeView:
    """The slice of the rbtree interface external code touches, backed
    by the fast runqueue's heap.  ``size`` is a plain attribute (hot
    paths read it constantly); the iteration methods build sorted
    snapshots (cold paths: invariants, debugging)."""

    __slots__ = ("_rq", "size", "_injected")

    def __init__(self, rq: "FastCfsRunqueue"):
        self._rq = rq
        self.size = 0
        self._injected: list[tuple[tuple[int, int], Task]] = []

    def insert(self, key: tuple[int, int], task: Task) -> None:
        """Plant a raw entry, mirroring ``rbtree.insert``: the entry
        becomes visible to iteration with *no* runqueue bookkeeping
        (no ``rq_key``, no counters).  Exists for chaos/fault-injection
        tests that corrupt the tree directly and expect the invariant
        checker to notice; nothing on a hot path calls this."""
        self._injected.append((key, task))
        self.size += 1

    def _entries(self) -> list[tuple[tuple[int, int], Task]]:
        live = self._rq._sorted_live()
        if self._injected:
            live = sorted(live + self._injected, key=lambda kv: kv[0])
        return live

    def items(self) -> Iterator[tuple[tuple[int, int], Task]]:
        return iter(self._entries())

    def keys(self) -> Iterator[tuple[int, int]]:
        return (k for k, _t in self._entries())

    def values(self) -> Iterator[Task]:
        return (t for _k, t in self._entries())

    def min_item(self):
        rq = self._rq
        key = rq._min_live_key()
        if key is None:
            raise KeyError("empty tree")
        return key, rq._heap[0][3]

    def min_value(self):
        return self.min_item()[1]

    def validate(self) -> None:
        """Raise AssertionError if the heap/tombstone invariants broke."""
        rq = self._rq
        live = [(e[0], e[1]) for e in rq._heap if e[3].rq_key is e[2]]
        assert len(live) + len(self._injected) == self.size, (
            f"tree.size={self.size} but {len(live)} live entries"
        )
        assert len(rq._heap) == self.size + rq._n_stale, (
            f"stale counter drifted: heap={len(rq._heap)} "
            f"live={self.size} stale={rq._n_stale}"
        )
        heap = rq._heap
        for i in range(1, len(heap)):
            parent = heap[(i - 1) >> 1]
            assert (parent[0], parent[1]) <= (heap[i][0], heap[i][1]), (
                "heap property violated"
            )


class FastCfsRunqueue:
    """One CPU's runqueue (fast backend)."""

    # Rebuild once tombstones outnumber live entries (and the heap is
    # big enough for the dead weight to matter).
    _COMPACT_MIN = 64

    __slots__ = (
        "cpu_id",
        "tree",
        "curr",
        "min_vruntime",
        "_seq",
        "nr_blocked",
        "nr_enqueues",
        "_heap",
        "_n_stale",
        "_board",
        "key_fn",
    )

    def __init__(self, cpu_id: int):
        self.cpu_id = cpu_id
        self.curr: Task | None = None
        self.min_vruntime: int = 0
        self._seq = 0
        self.nr_blocked = 0
        self.nr_enqueues = 0
        # Non-CFS policies install their queue_key hook here (same
        # contract as the pure runqueue); None = inlined CFS keying.
        self.key_fn = None
        # Entries are (k0, seq, key, task): comparison never reaches
        # `key`/`task` because `seq` is unique.  An entry is live iff
        # `task.rq_key is key` (the exact tuple object, so a task
        # re-enqueued under a new key does not resurrect old entries).
        self._heap: list[tuple[int, int, tuple[int, int], Task]] = []
        self._n_stale = 0
        self.tree = _HeapTreeView(self)
        self._board = None  # CpuLoadBoard, attached by the kernel

    # ------------------------------------------------------------------
    # Size / load (same formulas as the pure runqueue)
    # ------------------------------------------------------------------
    @property
    def nr_queued(self) -> int:
        return self.tree.size

    @property
    def nr_running(self) -> int:
        return self.tree.size + (1 if self.curr is not None else 0)

    @property
    def nr_queued_runnable(self) -> int:
        return self.tree.size - self.nr_blocked

    def nr_schedulable(self) -> int:
        n = self.tree.size - self.nr_blocked
        curr = self.curr
        if curr is not None and curr.thread_state == 0:
            n += 1
        return n

    def recount_blocked(self) -> int:
        return sum(
            1 for e in self._heap
            if e[3].rq_key is e[2] and e[0] >= VB_SENTINEL
        )

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
        heappush(self._heap, (key[0], key[1], key, task))
        task.rq_key = key
        if key[0] >= VB_SENTINEL:
            self.nr_blocked += 1
        self.nr_enqueues += 1
        tv = self.tree
        tv.size += 1
        board = self._board
        if board is not None:
            board.put(self.cpu_id, tv.size, self.nr_blocked)

    def dequeue(self, task: Task) -> None:
        key = task.rq_key
        assert key is not None, f"{task} not queued"
        task.rq_key = None  # tombstone: the heap entry is now stale
        if key[0] >= VB_SENTINEL:
            self.nr_blocked -= 1
        tv = self.tree
        tv.size -= 1
        self._n_stale += 1
        if self._n_stale > self._COMPACT_MIN and self._n_stale > tv.size:
            self._compact()
        board = self._board
        if board is not None:
            board.put(self.cpu_id, tv.size, self.nr_blocked)

    def requeue(self, task: Task) -> None:
        self.dequeue(task)
        self.enqueue(task)

    def _compact(self) -> None:
        heap = self._heap
        heap[:] = [e for e in heap if e[3].rq_key is e[2]]
        heapify(heap)
        self._n_stale = 0

    # ------------------------------------------------------------------
    # Picking
    # ------------------------------------------------------------------
    def _settle(self) -> bool:
        """Pop stale entries off the heap top; True iff a live entry
        remains at the root."""
        heap = self._heap
        while heap:
            e = heap[0]
            if e[3].rq_key is e[2]:
                return True
            heappop(heap)
            self._n_stale -= 1
        return False

    def _min_live_key(self) -> tuple[int, int] | None:
        if not self._settle():
            return None
        return self._heap[0][2]

    def peek_next(self) -> Task | None:
        if not self._settle():
            return None
        return self._heap[0][3]

    def pick_next(self) -> Task | None:
        if not self._settle():
            return None
        k0, _seq, _key, task = heappop(self._heap)
        if k0 >= VB_SENTINEL:
            self.nr_blocked -= 1
        task.rq_key = None
        tv = self.tree
        tv.size -= 1
        board = self._board
        if board is not None:
            board.put(self.cpu_id, tv.size, self.nr_blocked)
        return task

    def update_min_vruntime(self) -> None:
        curr = self.curr
        vr = None
        if curr is not None and curr.thread_state == 0:
            vr = curr.vruntime
        if self.key_fn is None:
            if self._settle():
                k0 = self._heap[0][0]
                if k0 < VB_SENTINEL and (vr is None or k0 < vr):
                    vr = k0
        else:
            # Policy keys are not vruntimes: scan the live entries for
            # the true vruntime floor (non-CFS policies only).
            for e in self._heap:
                t = e[3]
                if (t.rq_key is e[2] and t.thread_state == 0
                        and (vr is None or t.vruntime < vr)):
                    vr = t.vruntime
        if vr is not None and vr > self.min_vruntime:
            self.min_vruntime = vr

    def max_runnable_vruntime(self) -> int | None:
        # A heap has no cheap maximum: scan the live entries.
        vr = None
        for e in self._heap:
            t = e[3]
            if (t.rq_key is e[2] and t.thread_state == 0
                    and (vr is None or t.vruntime > vr)):
                vr = t.vruntime
        return vr

    def place_vruntime(self, task: Task, sleeper_bonus_ns: int = 0) -> None:
        target = self.min_vruntime - sleeper_bonus_ns
        task.vruntime = max(task.vruntime, target)

    # ------------------------------------------------------------------
    # Iteration (cold paths: balance candidate lists, invariants)
    # ------------------------------------------------------------------
    def _sorted_live(self) -> list[tuple[tuple[int, int], Task]]:
        live = [(e[2], e[3]) for e in self._heap if e[3].rq_key is e[2]]
        live.sort(key=lambda kv: kv[0])
        return live

    def tasks(self) -> Iterator[Task]:
        return (t for _k, t in self._sorted_live())

    def steal_candidates(self) -> Iterator[Task]:
        live = self._sorted_live()
        if len(live) >= 128:
            # Wide queues: numpy boolean mask over the state columns
            # (same tasks, same key order — see soa.py).
            from .soa import steal_candidates_vector

            return iter(steal_candidates_vector(live))
        return (
            t
            for _k, t in live
            if t.thread_state == 0 and t.state is TaskState.RUNNABLE
        )
