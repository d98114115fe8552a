"""Discrete-event engine tests."""

from __future__ import annotations

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine


def test_events_fire_in_time_order():
    e = Engine()
    order = []
    e.schedule_at(30, order.append, "c")
    e.schedule_at(10, order.append, "a")
    e.schedule_at(20, order.append, "b")
    e.run()
    assert order == ["a", "b", "c"]
    assert e.now == 30


def test_simultaneous_events_fifo():
    e = Engine()
    order = []
    for i in range(5):
        e.schedule_at(100, order.append, i)
    e.run()
    assert order == [0, 1, 2, 3, 4]


def test_schedule_relative_delay():
    e = Engine()
    seen = []
    e.schedule(5, lambda: e.schedule(7, lambda: seen.append(e.now)))
    e.run()
    assert seen == [12]


def test_cannot_schedule_in_the_past():
    e = Engine()
    e.schedule_at(10, lambda: None)
    e.run()
    with pytest.raises(SimulationError):
        e.schedule_at(5, lambda: None)
    with pytest.raises(SimulationError):
        e.schedule(-1, lambda: None)


def test_cancellation():
    e = Engine()
    fired = []
    h = e.schedule_at(10, fired.append, "x")
    e.schedule_at(20, fired.append, "y")
    e.cancel(h)
    e.run()
    assert fired == ["y"]


def test_cancelled_events_not_counted_pending():
    e = Engine()
    h1 = e.schedule_at(10, lambda: None)
    e.schedule_at(20, lambda: None)
    e.cancel(h1)
    assert e.pending == 1


def test_run_until_stops_clock_at_bound():
    e = Engine()
    fired = []
    e.schedule_at(10, fired.append, 1)
    e.schedule_at(100, fired.append, 2)
    e.run(until=50)
    assert fired == [1]
    assert e.now == 50
    e.run()
    assert fired == [1, 2]


def test_stop_request():
    e = Engine()
    count = [0]

    def bump():
        count[0] += 1
        e.schedule(1, bump)
        if count[0] == 5:
            e.stop()

    e.schedule(1, bump)
    e.run()
    assert count[0] == 5 and e.now == 5
    assert e.ahead_until == -1  # run-ahead is off outside run()
    e.stop()  # outside run(): the next run() is not cut short
    e.run(until=8)
    assert count[0] == 8 and e.now == 8


def test_max_events_guard():
    e = Engine()

    def forever():
        e.schedule(1, forever)

    e.schedule(1, forever)
    with pytest.raises(SimulationError):
        e.run(max_events=100)


def test_step_returns_false_when_drained():
    e = Engine()
    assert e.step() is False
    e.schedule_at(1, lambda: None)
    assert e.step() is True
    assert e.step() is False


def test_peek_time_skips_cancelled():
    e = Engine()
    h = e.schedule_at(5, lambda: None)
    e.schedule_at(9, lambda: None)
    e.cancel(h)
    assert e.peek_time() == 9


def test_run_until_on_empty_queue_advances_clock():
    e = Engine()
    e.run(until=100)
    assert e.now == 100


def test_run_until_after_queue_drains_mid_run_advances_clock():
    # Drain order 1: the queue empties *during* the run.
    e = Engine()
    fired = []
    e.schedule_at(10, fired.append, 1)
    e.run(until=50)
    assert fired == [1]
    assert e.now == 50


def test_run_until_on_predrained_queue_advances_clock():
    # Drain order 2: the queue was already emptied by a previous run.
    e = Engine()
    e.schedule_at(10, lambda: None)
    e.run()
    assert e.now == 10
    e.run(until=50)
    assert e.now == 50


def test_run_until_with_only_cancelled_events_advances_clock():
    e = Engine()
    h = e.schedule_at(10, lambda: None)
    e.cancel(h)
    e.run(until=25)
    assert e.now == 25


def test_run_until_never_moves_clock_backwards():
    e = Engine()
    e.schedule_at(10, lambda: None)
    e.run()
    assert e.now == 10
    e.run(until=5)
    assert e.now == 10


def test_run_until_repeated_calls_are_monotonic():
    e = Engine()
    ticks = []
    e.schedule_at(30, ticks.append, "late")
    e.run(until=10)
    assert e.now == 10
    e.run(until=20)
    assert e.now == 20
    e.run(until=40)
    assert ticks == ["late"]
    assert e.now == 40


def test_pending_counter_tracks_schedule_cancel_fire():
    e = Engine()
    assert e.pending == 0
    h1 = e.schedule_at(10, lambda: None)
    h2 = e.schedule_at(20, lambda: None)
    h3 = e.schedule_at(30, lambda: None)
    assert e.pending == 3
    e.cancel(h2)
    assert e.pending == 2
    e.cancel(h2)  # double-cancel must not double-decrement
    assert e.pending == 2
    assert e.step() is True  # fires h1
    assert e.pending == 1
    e.cancel(h1)  # cancel after fire must not decrement
    assert e.pending == 1
    e.cancel(h3)
    assert e.pending == 0
    e.run()
    assert e.pending == 0


def test_fired_and_cancelled_entries_read_dead():
    e = Engine()
    fired = []
    a = e.schedule_at(10, fired.append, "a")
    b = e.schedule_at(20, fired.append, "b")
    c = e.schedule_at(30, fired.append, "c")
    assert a == [10, 1, fired.append, ("a",)]
    assert e.pending == e.recount_live() == 3
    e.cancel(b)
    assert b[2] is None and b[3] == ()
    assert e.pending == e.recount_live() == 2
    assert e.step() is True
    assert fired == ["a"] and a[2] is None
    assert e.pending == e.recount_live() == 1
    for dead in (a, b, a, b):  # a no-op on either kind of dead entry
        e.cancel(dead)
        assert e.pending == e.recount_live() == 1
    # A not-yet-due entry goes back onto the heap as the same list.
    e.run(until=25)
    assert e.heap == [c] and e.heap[0] is c and c[2] is not None
    e.run()
    assert fired == ["a", "c"] and c[2] is None
    e.cancel(c)
    assert e.pending == e.recount_live() == 0


def test_pending_matches_heap_scan():
    import random

    rng = random.Random(7)
    e = Engine()
    handles = []
    for _ in range(200):
        op = rng.random()
        if op < 0.6:
            handles.append(e.schedule(rng.randrange(1, 50), lambda: None))
        elif op < 0.8 and handles:
            e.cancel(handles.pop(rng.randrange(len(handles))))
        else:
            e.step()
        assert e.pending == e.recount_live()


def test_events_run_counter():
    e = Engine()
    for i in range(7):
        e.schedule_at(i + 1, lambda: None)
    e.run()
    assert e.events_run == 7


def test_schedule_earlier_than_drain_cursor_fires_in_order():
    # Regression: peek_time() (or a run(until) exit) pulls the earliest
    # bucket into the drain cursor; scheduling an even earlier event
    # afterwards must not let the cursor's bucket fire first (events
    # came out of order and the clock ran backwards).
    e = Engine()
    log = []
    e.schedule(100, lambda: log.append(("late", e.now)))
    e.schedule(100, lambda: log.append(("late2", e.now)))
    assert e.peek_time() == 100  # pulls t=100 into the cursor
    e.schedule(5, lambda: log.append(("early", e.now)))
    # Re-bucketed cursor entries keep FIFO order, also against events
    # scheduled at the same deadline afterwards.
    e.schedule(100, lambda: log.append(("late3", e.now)))
    e.run()
    assert log == [
        ("early", 5), ("late", 100), ("late2", 100), ("late3", 100)
    ]
    assert e.pending == 0 and e.events_run == 4


def test_schedule_earlier_after_run_until_window():
    e = Engine()
    log = []
    e.schedule(5000, lambda: log.append(("a", e.now)))
    e.run(until=10)  # leaves t=5000 parked in the cursor
    assert e.now == 10
    e.schedule(90, lambda: log.append(("b", e.now)))
    e.run()
    assert log == [("b", 100), ("a", 5000)]


def test_engine_compacts_under_cancel_storm():
    e = Engine()
    handles = [e.schedule(1000 + i, lambda: None) for i in range(4096)]
    for h in handles[:-8]:
        e.cancel(h)
    assert e.pending == 8
    # Compaction must have dropped the dead entries instead of letting
    # the queue hold 4088 tombstones until t=1000.
    assert e.queue_len() <= 2 * e.pending + 64
    fired = []
    e.on_event = lambda: fired.append(e.now)
    e.run()
    assert e.events_run == 8


# ---------------------------------------------------------------------------
# Engine vs a brute-force reference (schedule/cancel/run-until scripts)
# ---------------------------------------------------------------------------

#: Ops understood by :func:`replay_engine_ops`:
#:   ("schedule", delay, tag)   schedule at now+delay
#:   ("cancel", i)              cancel the i-th issued entry (mod count)
#:   ("run_until", dt)          run(until=now+dt)
#:   ("step",)                  fire exactly one event, if any
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


class _ListEngine:
    """Brute-force reference engine: one list kept sorted by
    ``(time, seq)``; a cancel removes its entry outright."""

    def __init__(self):
        self.now = self.events_run = self._seq = 0
        self._q: list[tuple] = []

    @property
    def pending(self) -> int:
        return len(self._q)

    def peek_time(self):
        return self._q[0][0] if self._q else None

    def schedule(self, delay, fn, *args):
        self._seq += 1
        entry = (self.now + delay, self._seq, fn, args)
        bisect.insort(self._q, entry)
        return entry

    def cancel(self, entry) -> None:
        if entry in self._q:
            self._q.remove(entry)

    def step(self) -> bool:
        if not self._q:
            return False
        self.now, _seq, fn, args = self._q.pop(0)
        self.events_run += 1
        fn(*args)
        return True

    def run(self, until=None):
        while self._q and (until is None or self._q[0][0] <= until):
            self.step()
        if until is not None and until > self.now:
            self.now = until


def replay_engine_ops(engine, ops: list[tuple]) -> dict:
    """Drive ``engine`` through ``ops``, including scheduling and
    cancelling from inside callbacks; return every fired event
    ``(time, tag)`` and a clock/pending/events_run snapshot per op."""
    log: list[tuple[int, int]] = []
    handles: list = []
    snapshots: list[tuple] = []

    def fire(tag: int) -> None:
        log.append((engine.now, tag))
        # Deterministic in-callback behavior keyed off the tag so every
        # engine sees identical re-entrant scheduling and cancellation.
        if tag % 3 == 0:
            handles.append(engine.schedule(tag % 7 + 1, fire, tag + 10_000))
        if tag % 5 == 0 and handles:
            engine.cancel(handles[tag % len(handles)])

    for op in ops:
        kind = op[0]
        if kind == "schedule":
            handles.append(engine.schedule(op[1], fire, op[2]))
        elif kind == "cancel":
            if handles:
                engine.cancel(handles[op[1] % len(handles)])
        elif kind == "run_until":
            engine.run(until=engine.now + op[1])
        else:
            engine.step()
        snapshots.append(
            (engine.now, engine.pending, engine.events_run,
             engine.peek_time())
        )
    # Drain whatever is left so the comparison covers the full stream.
    engine.run()
    snapshots.append((engine.now, engine.pending, engine.events_run))
    return {"log": log, "snapshots": snapshots}


def _assert_matches_reference(ops) -> None:
    got = replay_engine_ops(Engine(), ops)
    want = replay_engine_ops(_ListEngine(), ops)
    assert got["log"] == want["log"]
    assert got["snapshots"] == want["snapshots"]


@settings(max_examples=60, deadline=None)
@given(st.lists(_op, min_size=1, max_size=60))
def test_engine_parity_randomized_scripts(ops):
    _assert_matches_reference(ops)


def test_engine_parity_cancel_heavy():
    # Deterministic cancel-storm: most events die before firing, which
    # exercises lazy tombstones and compaction.
    ops = []
    for i in range(300):
        ops.append(("schedule", (i * 37) % 900, i))
    for i in range(280):
        ops.append(("cancel", i))
    ops.append(("run_until", 1_000))
    _assert_matches_reference(ops)
    # Two of every three cancelled, and the 100 survivors share 30
    # deadlines with distinct tags, so the tie order is compared too.
    ops = [("schedule", (i * 37) % 90, i) for i in range(300)]
    ops += [("cancel", i) for i in range(300) if i % 3]
    ops.append(("run_until", 1_000))
    _assert_matches_reference(ops)
