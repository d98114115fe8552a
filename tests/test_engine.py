"""Discrete-event engine tests."""

from __future__ import annotations

import pytest

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
    h.cancel()
    e.run()
    assert fired == ["y"]


def test_cancelled_events_not_counted_pending():
    e = Engine()
    h1 = e.schedule_at(10, lambda: None)
    e.schedule_at(20, lambda: None)
    h1.cancel()
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


def test_stop_when_predicate():
    e = Engine()
    count = [0]

    def bump():
        count[0] += 1
        e.schedule(1, bump)

    e.schedule(1, bump)
    e.run(stop_when=lambda: count[0] >= 5)
    assert count[0] == 5


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
    h.cancel()
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
    h.cancel()
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
    h2.cancel()
    assert e.pending == 2
    h2.cancel()  # double-cancel must not double-decrement
    assert e.pending == 2
    assert e.step() is True  # fires h1
    assert e.pending == 1
    h1.cancel()  # cancel after fire must not decrement
    assert e.pending == 1
    h3.cancel()
    assert e.pending == 0
    e.run()
    assert e.pending == 0


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
            handles.pop(rng.randrange(len(handles))).cancel()
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
