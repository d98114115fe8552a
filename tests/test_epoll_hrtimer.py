"""epoll instances and hrtimers."""

from __future__ import annotations

import pytest

from repro.config import optimized_config, vanilla_config
from repro.kernel import Kernel
from repro.kernel.epoll import EpollInstance
from repro.kernel.hrtimer import HrTimer
from repro.kernel.task import TaskState
from repro.prog.actions import Compute, EpollWait
from repro.sim.engine import Engine

MS = 1_000_000
US = 1_000


def test_epoll_post_take_fifo():
    ep = EpollInstance("ep")
    for i in range(5):
        ep.post(i)
    assert ep.take(3) == [0, 1, 2]
    assert ep.take(10) == [3, 4]
    assert len(ep) == 0
    assert ep.events_posted == 5
    assert ep.events_delivered == 5


def test_epoll_wait_returns_pending_immediately(vanilla1):
    k = Kernel(vanilla1)
    ep = EpollInstance("ep")
    ep.post("a")
    ep.post("b")
    got = []

    def worker():
        batch = yield EpollWait(ep, max_events=8)
        got.extend(batch)

    k.spawn(worker(), name="w")
    k.run_to_completion()
    assert got == ["a", "b"]


def test_epoll_wait_blocks_until_post(vanilla1):
    k = Kernel(vanilla1)
    ep = EpollInstance("ep")
    got = []

    def worker():
        batch = yield EpollWait(ep)
        got.append((k.now, batch))

    w = k.spawn(worker(), name="w")
    k.run_for(1 * MS)
    assert w.state is TaskState.SLEEPING
    k.engine.schedule(0, lambda: k.epoll_post(ep, "req"))
    k.run_to_completion()
    assert got and got[0][1] == ["req"]
    assert got[0][0] >= 1 * MS


def test_epoll_vb_blocking(vb1):
    """Under VB, an epoll waiter stays on its runqueue."""
    k = Kernel(vb1)
    ep = EpollInstance("ep")

    def worker():
        batch = yield EpollWait(ep)

    w = k.spawn(worker(), name="w")
    k.run_for(100 * US)
    assert w.state is TaskState.VBLOCKED
    assert w.on_rq
    k.engine.schedule(0, lambda: k.epoll_post(ep, "x"))
    k.run_to_completion()
    assert w.state is TaskState.EXITED


def test_epoll_multiple_posts_batch(vanilla1):
    k = Kernel(vanilla1)
    ep = EpollInstance("ep")
    batches = []

    def worker():
        while True:
            batch = yield EpollWait(ep, max_events=4)
            batches.append(list(batch))
            yield Compute(50 * US)
            if sum(len(b) for b in batches) >= 6:
                return

    k.spawn(worker(), name="w")

    def burst():
        for i in range(6):
            k.epoll_post(ep, i)

    k.engine.schedule(1 * MS, burst)
    k.run_to_completion()
    assert sum(len(b) for b in batches) == 6
    # First wake carries one payload; the rest are drained in batches.
    assert len(batches[0]) == 1


def test_hrtimer_periodic_fires():
    e = Engine()
    fired = []
    t = HrTimer(e, 100, lambda now: fired.append(now))
    t.start()
    e.run(until=1000)
    assert fired == [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]
    assert t.fires == 10


def test_hrtimer_cancel():
    e = Engine()
    fired = []
    t = HrTimer(e, 100, lambda now: fired.append(now))
    t.start()
    e.run(until=250)
    t.cancel()
    e.run(until=1000)
    assert fired == [100, 200]


def test_hrtimer_cancel_from_callback():
    e = Engine()
    t = HrTimer(e, 100, lambda now: t.cancel() if now >= 300 else None)
    t.start()
    e.run(until=10_000)
    assert t.fires == 3


def test_hrtimer_nudge_moves_only_the_next_fire():
    e = Engine()
    fired = []
    t = HrTimer(e, 100, lambda now: fired.append(now))
    assert t.nudge(10) is False  # not armed yet
    t.start()
    e.run(until=150)
    assert t.nudge(30) is True  # 200 -> 230
    assert e.pending == e.recount_live() == 1  # the old entry is dead
    e.run(until=500)
    assert fired == [100, 230, 330, 430]  # later periods keep spacing
    assert t.nudge(-1_000) is True  # 530 - 1000 clamps at now, 500
    e.run(until=700)
    assert fired == [100, 230, 330, 430, 500, 600, 700]
    t.cancel()
    assert t.nudge(5) is False
    assert e.pending == e.recount_live() == 0
    e.run(until=1_000)
    assert t.fires == 7


def test_hrtimer_positive_period():
    with pytest.raises(ValueError):
        HrTimer(Engine(), 0, lambda now: None)


def test_hrtimer_double_start_is_idempotent():
    e = Engine()
    fired = []
    t = HrTimer(e, 100, lambda now: fired.append(now))
    t.start()
    t.start()
    e.run(until=300)
    assert fired == [100, 200, 300]
