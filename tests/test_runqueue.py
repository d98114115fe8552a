"""CFS runqueue: ordering, VB sentinel keys, min_vruntime."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.runqueue import VB_SENTINEL, CfsRunqueue
from repro.kernel.task import Task, TaskState


def make_task(name="t", vruntime=0, thread_state=0):
    t = Task(name, iter(()))
    t.vruntime = vruntime
    t.thread_state = thread_state
    t.state = TaskState.RUNNABLE
    return t


def test_enqueue_orders_by_vruntime():
    rq = CfsRunqueue(0)
    a, b, c = make_task("a", 300), make_task("b", 100), make_task("c", 200)
    for t in (a, b, c):
        rq.enqueue(t)
    assert rq.pick_next() is b
    assert rq.pick_next() is c
    assert rq.pick_next() is a


def test_equal_vruntime_fifo():
    rq = CfsRunqueue(0)
    tasks = [make_task(f"t{i}", 50) for i in range(4)]
    for t in tasks:
        rq.enqueue(t)
    assert [rq.pick_next() for _ in tasks] == tasks


def test_vb_blocked_sorts_last():
    rq = CfsRunqueue(0)
    blocked = make_task("blocked", 0, thread_state=1)
    runnable = make_task("runnable", 10**9)
    rq.enqueue(blocked)
    rq.enqueue(runnable)
    assert rq.peek_next() is runnable
    assert blocked.rq_key[0] >= VB_SENTINEL


def test_all_blocked_head_is_blocked():
    rq = CfsRunqueue(0)
    b1 = make_task("b1", 5, thread_state=1)
    b2 = make_task("b2", 1, thread_state=1)
    rq.enqueue(b1)
    rq.enqueue(b2)
    head = rq.peek_next()
    assert head is b1  # FIFO among blocked (enqueue order), not vruntime
    assert head.thread_state == 1


def test_requeue_rekeys_after_flag_clear():
    rq = CfsRunqueue(0)
    blocked = make_task("b", 7, thread_state=1)
    other = make_task("o", 100)
    rq.enqueue(blocked)
    rq.enqueue(other)
    blocked.thread_state = 0
    rq.requeue(blocked)
    assert rq.peek_next() is blocked  # real vruntime 7 < 100


def test_nr_running_counts_blocked_and_current():
    rq = CfsRunqueue(0)
    rq.enqueue(make_task("a", 1))
    rq.enqueue(make_task("b", 2, thread_state=1))
    assert rq.nr_running == 2
    rq.curr = make_task("curr")
    assert rq.nr_running == 3
    assert rq.nr_schedulable() == 2  # blocked one excluded


def test_steal_candidates_skip_blocked():
    rq = CfsRunqueue(0)
    a = make_task("a", 1)
    b = make_task("b", 2, thread_state=1)
    rq.enqueue(a)
    rq.enqueue(b)
    assert list(rq.steal_candidates()) == [a]
    assert rq.nr_queued_runnable == 1


def test_min_vruntime_monotonic():
    rq = CfsRunqueue(0)
    a = make_task("a", 1000)
    rq.enqueue(a)
    rq.update_min_vruntime()
    assert rq.min_vruntime == 1000
    rq.dequeue(a)
    b = make_task("b", 10)  # placed behind: min must not go backwards
    rq.enqueue(b)
    rq.update_min_vruntime()
    assert rq.min_vruntime == 1000


def test_min_vruntime_ignores_blocked():
    rq = CfsRunqueue(0)
    rq.enqueue(make_task("b", 0, thread_state=1))
    rq.update_min_vruntime()
    assert rq.min_vruntime == 0
    rq.enqueue(make_task("a", 77))
    rq.update_min_vruntime()
    assert rq.min_vruntime == 77


def test_place_vruntime_caps_sleeper_bonus():
    rq = CfsRunqueue(0)
    rq.min_vruntime = 1_000_000
    fresh = make_task("fresh", 0)
    rq.place_vruntime(fresh, sleeper_bonus_ns=300)
    assert fresh.vruntime == 1_000_000 - 300
    hot = make_task("hot", 2_000_000)
    rq.place_vruntime(hot, sleeper_bonus_ns=300)
    assert hot.vruntime == 2_000_000  # never lowered... never raised either


def test_double_enqueue_asserts():
    rq = CfsRunqueue(0)
    a = make_task("a")
    rq.enqueue(a)
    with pytest.raises(AssertionError):
        rq.enqueue(a)


def test_dequeue_unqueued_asserts():
    rq = CfsRunqueue(0)
    with pytest.raises(AssertionError):
        rq.dequeue(make_task("x"))


def test_nr_queued_runnable_counter_incremental():
    rq = CfsRunqueue(0)
    a = make_task("a", 1)
    b = make_task("b", 2, thread_state=1)
    c = make_task("c", 3, thread_state=1)
    rq.enqueue(a)
    rq.enqueue(b)
    rq.enqueue(c)
    assert rq.nr_queued == 3
    assert rq.nr_queued_runnable == 1
    assert rq.nr_schedulable() == 1
    # VB wake path: flag cleared and re-keyed in one step via requeue.
    b.thread_state = 0
    rq.requeue(b)
    assert rq.nr_queued_runnable == 2
    # pick_next removes the leftmost runnable, keeping the count in sync.
    got = rq.pick_next()
    assert got is a
    assert rq.nr_queued_runnable == 1
    # Dequeue of a blocked (sentinel-keyed) task decrements only blocked.
    rq.dequeue(c)
    assert rq.nr_queued == 1
    assert rq.nr_queued_runnable == 1
    # Drain to the end: picking a blocked task must also stay consistent.
    rq.dequeue(b)
    d = make_task("d", 4, thread_state=1)
    rq.enqueue(d)
    assert rq.nr_queued_runnable == 0
    assert rq.pick_next() is d
    assert rq.nr_queued == 0 and rq.nr_queued_runnable == 0


def test_update_min_vruntime_ignores_sentinel_keys():
    rq = CfsRunqueue(0)
    blocked = make_task("b", 50, thread_state=1)
    rq.enqueue(blocked)
    rq.update_min_vruntime()
    # Only a VB sentinel is queued: min_vruntime must not jump to it.
    assert rq.min_vruntime == 0
    runnable = make_task("a", 700)
    rq.enqueue(runnable)
    rq.update_min_vruntime()
    assert rq.min_vruntime == 700


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
    vruntime: the sorted map's max-below-sentinel search (or its scan
    under a policy key_fn) agrees with a brute-force answer while
    VB-sentinel entries are queued."""
    rq = CfsRunqueue(0)
    if policy_keyed:
        rq.key_fn = lambda t: -t.vruntime
    tasks = [Task(f"t{i}", iter(())) for i in range(16)]
    for op in ops:
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
            (t.vruntime for t in tasks
             if t.rq_key is not None and t.thread_state == 0),
            default=None,
        )
        assert rq.max_runnable_vruntime() == want, op
