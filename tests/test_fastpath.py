"""Backend parity: the fast hot core must be bit-identical to pure.

Three layers of evidence, mirroring the determinism contract in
docs/performance.md:

* engine parity — hypothesis drives randomized schedule/cancel/run-until
  scripts (including re-entrant scheduling and cancellation from inside
  callbacks) through the pure wheel, the slab fallback, and the compiled
  C core, asserting identical event order, clock, pending count, and
  peek time at every step;
* runqueue/scan parity — the heap runqueue must reproduce the rbtree's
  pick order op for op, and the numpy balance-scan kernels must pick the
  same CPUs as the scalar loops, ties included;
* kernel trace parity — the same scenario run under ``pure`` and
  ``fast`` must produce byte-identical trace streams.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.config import vanilla_config
from repro.fastpath import (
    BACKENDS,
    backend_info,
    current_backend,
    engine_class,
    make_engine,
    make_runqueue,
    set_backend,
)
from repro.fastpath import soa
from repro.fastpath.parity import (
    engine_backends,
    engine_parity,
    kernel_trace_parity,
)
from repro.fastpath.runqueue import FastCfsRunqueue
from repro.kernel.kernel import Kernel
from repro.kernel.runqueue import CfsRunqueue
from repro.kernel.task import Task, TaskState
from repro.prog.actions import Compute, SleepNs, Yield

MS = 1_000_000
US = 1_000


# ---------------------------------------------------------------------------
# Engine parity (hypothesis property: schedule/cancel/run-until scripts)
# ---------------------------------------------------------------------------

_op = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=400),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1000)),
    st.tuples(st.just("run_until"), st.integers(min_value=0, max_value=300)),
    st.tuples(st.just("step")),
)


def _assert_same(results: dict) -> None:
    names = list(results)
    ref = results[names[0]]
    for name in names[1:]:
        got = results[name]
        assert got["log"] == ref["log"], f"{name} vs {names[0]}"
        assert got["snapshots"] == ref["snapshots"], f"{name} vs {names[0]}"


@settings(max_examples=60, deadline=None)
@given(st.lists(_op, min_size=1, max_size=60))
def test_engine_parity_randomized_scripts(ops):
    _assert_same(engine_parity(ops))


def test_engine_parity_cancel_heavy():
    # Deterministic cancel-storm: most events die before firing, which
    # exercises lazy tombstones + compaction in every implementation.
    ops = []
    for i in range(300):
        ops.append(("schedule", (i * 37) % 900, i))
    for i in range(280):
        ops.append(("cancel", i))
    ops.append(("run_until", 1_000))
    _assert_same(engine_parity(ops))


def test_engine_backends_present():
    names = [n for n, _f in engine_backends()]
    assert names[0] == "pure" and "slab" in names


# ---------------------------------------------------------------------------
# Engine compaction (the cancel-heavy pollution fix)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,factory", engine_backends())
def test_engine_compacts_under_cancel_storm(name, factory):
    e = factory()
    handles = [e.schedule(1000 + i, lambda: None) for i in range(4096)]
    for h in handles[:-8]:
        h.cancel()
    assert e.pending == 8
    # Compaction must have dropped the dead entries instead of letting
    # the queue hold 4088 tombstones until t=1000.
    if hasattr(e, "queue_len"):
        assert e.queue_len() <= 2 * e.pending + 64
    else:
        assert sum(len(b) for b in e._buckets.values()) <= 2 * e.pending + 64
    fired = []
    e.on_event = lambda: fired.append(e.now)
    e.run()
    assert e.events_run == 8


# ---------------------------------------------------------------------------
# Runqueue parity (heap + tombstones vs red-black tree)
# ---------------------------------------------------------------------------

def _dummy_program():
    while True:
        yield Yield()


def _mirrored_tasks(n):
    pure = [Task(f"t{i}", _dummy_program()) for i in range(n)]
    fast = [Task(f"t{i}", _dummy_program()) for i in range(n)]
    return pure, fast


_rq_op = st.one_of(
    st.tuples(
        st.just("enqueue"),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    ),
    st.tuples(st.just("dequeue"), st.integers(min_value=0, max_value=15)),
    st.tuples(st.just("pick")),
    st.tuples(st.just("peek")),
    st.tuples(st.just("update_min")),
    st.tuples(
        st.just("place"),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=2_000),
    ),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_rq_op, min_size=1, max_size=80))
def test_runqueue_parity_randomized_ops(ops):
    pure_rq, fast_rq = CfsRunqueue(0), FastCfsRunqueue(0)
    pure_tasks, fast_tasks = _mirrored_tasks(16)

    def snap(rq, tasks):
        return (
            rq.nr_queued,
            rq.nr_running,
            rq.nr_queued_runnable,
            rq.nr_schedulable(),
            rq.nr_blocked,
            rq.min_vruntime,
            [t.name for t in rq.tasks()],
            [t.name for t in rq.steal_candidates()],
            [t.vruntime for t in tasks],
        )

    for op in ops:
        kind = op[0]
        if kind == "enqueue":
            i, vr, blocked = op[1], op[2], op[3]
            for tasks, rq in ((pure_tasks, pure_rq), (fast_tasks, fast_rq)):
                t = tasks[i]
                if t.rq_key is not None or rq.curr is t:
                    continue
                t.vruntime = vr
                t.thread_state = 1 if blocked else 0
                t.state = TaskState.RUNNABLE
                rq.enqueue(t)
        elif kind == "dequeue":
            i = op[1]
            for tasks, rq in ((pure_tasks, pure_rq), (fast_tasks, fast_rq)):
                t = tasks[i]
                if t.rq_key is not None:
                    rq.dequeue(t)
        elif kind == "pick":
            a = pure_rq.pick_next()
            b = fast_rq.pick_next()
            assert (a and a.name) == (b and b.name)
            # Put any previous current back out of the way.
            pure_rq.curr, fast_rq.curr = a, b
        elif kind == "peek":
            a = pure_rq.peek_next()
            b = fast_rq.peek_next()
            assert (a and a.name) == (b and b.name)
        elif kind == "update_min":
            pure_rq.update_min_vruntime()
            fast_rq.update_min_vruntime()
        elif kind == "place":
            i, bonus = op[1], op[2]
            pure_rq.place_vruntime(pure_tasks[i], bonus)
            fast_rq.place_vruntime(fast_tasks[i], bonus)
        assert snap(pure_rq, pure_tasks) == snap(fast_rq, fast_tasks), op

    assert pure_rq.recount_blocked() == fast_rq.recount_blocked()
    fast_rq.tree.validate()


_max_vr_op = st.one_of(
    st.tuples(
        st.just("enqueue"),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    ),
    st.tuples(st.just("dequeue"), st.integers(min_value=0, max_value=15)),
    st.tuples(st.just("pick")),
)


@pytest.mark.parametrize("policy_keyed", [False, True])
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_max_vr_op, min_size=1, max_size=60))
def test_max_runnable_vruntime_parity(policy_keyed, ops):
    """BWD's skip-flag placement reads the largest queued runnable
    vruntime: the rbtree's max-below-sentinel descent (or its scan under
    a policy key_fn) and the heap's scan agree with a brute-force
    answer while VB-sentinel entries are queued."""
    pure_rq, fast_rq = CfsRunqueue(0), FastCfsRunqueue(0)
    if policy_keyed:
        pure_rq.key_fn = fast_rq.key_fn = lambda t: -t.vruntime
    pure_tasks, fast_tasks = _mirrored_tasks(16)
    for op in ops:
        for tasks, rq in ((pure_tasks, pure_rq), (fast_tasks, fast_rq)):
            if op[0] == "enqueue":
                t = tasks[op[1]]
                if t.rq_key is None:
                    t.vruntime = op[2]
                    t.thread_state = 1 if op[3] else 0
                    t.state = TaskState.RUNNABLE
                    rq.enqueue(t)
            elif op[0] == "dequeue":
                t = tasks[op[1]]
                if t.rq_key is not None:
                    rq.dequeue(t)
            else:
                rq.pick_next()
        want = max(
            (t.vruntime for t in pure_tasks
             if t.rq_key is not None and t.thread_state == 0),
            default=None,
        )
        assert pure_rq.max_runnable_vruntime() == want, op
        assert fast_rq.max_runnable_vruntime() == want, op


def test_runqueue_tree_view_matches():
    rq = FastCfsRunqueue(3)
    _pure, tasks = _mirrored_tasks(6)
    for i, t in enumerate(tasks):
        t.vruntime = (i * 7) % 4
        rq.enqueue(t)
    rq.dequeue(tasks[2])
    items = list(rq.tree.items())
    assert [t.name for _k, t in items] == [t.name for t in rq.tasks()]
    assert sorted(k for k, _t in items) == [k for k, _t in items]
    assert rq.tree.min_item()[1] is items[0][1]
    assert rq.tree.size == 5
    rq.tree.validate()


# ---------------------------------------------------------------------------
# Vectorized balance scans vs the scalar loops
# ---------------------------------------------------------------------------

class _StubRq:
    def __init__(self, curr):
        self.curr = curr


class _StubCpu:
    def __init__(self, cpu_id, occupied):
        self.id = cpu_id
        self.rq = _StubRq(object() if occupied else None)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=2, max_value=24).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=5),   # size
                    st.integers(min_value=0, max_value=5),   # blocked (clamped)
                    st.booleans(),                           # occupied
                ),
                min_size=n,
                max_size=n,
            ),
            st.integers(min_value=0, max_value=n - 1),       # self cpu
        )
    )
)
def test_vector_scans_match_scalar(args):
    n, rows, self_idx = args
    board = soa.CpuLoadBoard(n)
    cpus = []
    for cpu_id, (size, blocked, occupied) in enumerate(rows):
        blocked = min(blocked, size)
        board.put(cpu_id, size, blocked)
        cpus.append(_StubCpu(cpu_id, occupied))
    ids = np.arange(n, dtype=np.int64)
    self_cpu = int(ids[self_idx])

    # Scalar _idle_pull source selection (kernel.py reference loop).
    busiest, busiest_load = None, 1
    for cpu_id in range(n):
        if cpu_id == self_cpu:
            continue
        size = int(board.size_np[cpu_id])
        blocked = int(board.blocked_np[cpu_id])
        load = size + (1 if cpus[cpu_id].rq.curr is not None else 0)
        if load > busiest_load and size - blocked > 0:
            busiest, busiest_load = cpu_id, load
    assert soa.pick_busiest_eligible(board, cpus, ids, self_cpu) == busiest

    # Scalar _balance_tick extremes (max/min over (load, cpu_id)).
    loads = [
        (
            int(board.size_np[c])
            + (1 if cpus[c].rq.curr is not None else 0),
            c,
        )
        for c in range(n)
    ]
    expect = (*max(loads), *min(loads))
    got = soa.balance_extremes(board, cpus, ids)
    assert (got[0], got[1], got[2], got[3]) == (
        expect[0], expect[1], expect[2], expect[3],
    )


def test_steal_candidates_vector_matches_filter():
    _pure, tasks = _mirrored_tasks(12)
    for i, t in enumerate(tasks):
        t.thread_state = i % 3 == 0
        t.state = TaskState.RUNNABLE if i % 4 else TaskState.SLEEPING
    live = [((t.vruntime, i), t) for i, t in enumerate(tasks)]
    expect = [
        t for _k, t in live
        if t.thread_state == 0 and t.state is TaskState.RUNNABLE
    ]
    assert soa.steal_candidates_vector(live) == expect


# ---------------------------------------------------------------------------
# Kernel trace parity across backends
# ---------------------------------------------------------------------------

def _mixed_scenario(kernel: Kernel) -> None:
    def worker(i):
        for r in range(6):
            yield Compute(50 * US + i * 7 * US)
            if (i + r) % 3 == 0:
                yield SleepNs(30 * US)
            else:
                yield Yield()

    for i in range(10):
        kernel.spawn(worker(i), name=f"w{i}")


def test_kernel_trace_parity_mixed_workload():
    streams = kernel_trace_parity(_mixed_scenario, horizon_ns=20 * MS)
    assert streams["pure"], "scenario produced no trace events"
    assert streams["pure"] == streams["fast"]


def test_kernel_results_identical_across_backends():
    def run():
        k = Kernel(vanilla_config(cores=4, seed=2021))
        _mixed_scenario(k)
        k.run_for(20 * MS)
        stats = [
            (t.name, t.stats.cpu_ns, t.stats.wait_ns, t.vruntime,
             t.stats.nr_switches)
            for t in k.tasks
        ]
        k.shutdown()
        return k.now, k.engine.events_run, stats

    prev = current_backend()
    try:
        set_backend("pure")
        pure = run()
        set_backend("fast")
        fast = run()
    finally:
        set_backend(prev)
    assert pure == fast


# ---------------------------------------------------------------------------
# Backend selection plumbing
# ---------------------------------------------------------------------------

def test_backend_selection_roundtrip():
    prev = current_backend()
    try:
        set_backend("fast")
        assert current_backend() == "fast"
        info = backend_info()
        assert info["backend"] == "fast" and "fastcore" in info
        assert engine_class().__name__ in ("FastEngine", "SlabEngine")
        assert isinstance(make_runqueue(0), FastCfsRunqueue)
        set_backend("pure")
        assert backend_info() == {"backend": "pure"}
        assert engine_class().__name__ == "Engine"
        assert isinstance(make_runqueue(0), CfsRunqueue)
        assert type(make_engine()).__name__ == "Engine"
    finally:
        set_backend(prev)
    with pytest.raises(ValueError):
        set_backend("warp")
    assert BACKENDS == ("pure", "fast")


def test_kernel_uses_backend_engine_and_runqueue():
    prev = current_backend()
    try:
        set_backend("fast")
        k = Kernel(vanilla_config(cores=2, seed=1))
        assert type(k.engine).__name__ in ("FastEngine", "SlabEngine")
        assert isinstance(k.cpus[0].rq, FastCfsRunqueue)
        k.shutdown()
    finally:
        set_backend(prev)
