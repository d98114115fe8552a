"""Run-ahead milestones: ``Kernel._cpu_event`` runs a CPU's next milestone
in place when it comes strictly before every queued event.  These tests
check that the shortcut changes nothing: not the results, not the event
order, not where a bounded run ends.  Only ``max_events`` turns it off,
so it also runs under the invariant checker the suite installs."""

from __future__ import annotations

import dataclasses

import pytest

from repro.chaos.invariants import InvariantChecker
from repro.config import optimized_config, vanilla_config
from repro.kernel import Kernel
from repro.prog.actions import (
    CondSignal,
    CondWait,
    Compute,
    MutexAcquire,
    MutexRelease,
    SleepNs,
    Yield,
)
from repro.sim.engine import Engine
from repro.sync import CondVar, Mutex

MS = 1_000_000

CONFIGS = {
    "vanilla": lambda: vanilla_config(cores=4, seed=11),
    "vb": lambda: optimized_config(cores=4, seed=11, bwd=False),
}


class CountingEngine(Engine):
    """An engine that counts the events scheduled on it."""

    __slots__ = ("scheduled",)

    def __init__(self) -> None:
        super().__init__()
        self.scheduled = 0

    def schedule_at(self, time, fn, *args):
        self.scheduled += 1
        return super().schedule_at(time, fn, *args)


def mixed_kernel(config, engine=None) -> Kernel:
    """Four CPUs, nine tasks: computes of co-prime lengths around a mutex,
    yields and sleeps, plus a condvar producer/consumer pair."""
    k = Kernel(config, engine=engine)
    m = Mutex()
    cv = CondVar()
    produced = [0]
    consumed = [0]

    def worker(i):
        for it in range(30):
            yield Compute(20_000 + 1_337 * i)
            yield MutexAcquire(m)
            yield Compute(3_000 + 101 * i)
            yield MutexRelease(m)
            if it % 5 == i % 5:
                yield Yield()
            if it % 7 == i % 7:
                yield SleepNs(50_000 + 999 * i)

    def producer():
        for _ in range(20):
            yield Compute(40_000)
            produced[0] += 1
            yield CondSignal(cv)

    def consumer():
        while consumed[0] < 20:
            if produced[0] > consumed[0]:
                consumed[0] += 1
                yield Compute(5_000)
            else:
                yield CondWait(cv)

    for i in range(7):
        k.spawn(worker(i), name=f"w{i}")
    k.spawn(producer(), name="producer")
    k.spawn(consumer(), name="consumer")
    return k


def snapshot(k: Kernel) -> dict:
    return {
        "now": k.now,
        "events_run": k.engine.events_run,
        "tasks": [(t.name, t.state.value, t.vruntime, t.exited_at,
                   dataclasses.asdict(t.stats)) for t in k.tasks],
        "migrations": (k.migrations_in_node, k.migrations_cross_node,
                       k.wake_migrations, k.balance_migrations),
        "hists": {name: h.to_dict() for name, h in k.hists.items()},
        "cpus": [(c.busy_ns, c.sched_ns, c.nr_switches) for c in k.cpus],
    }


@pytest.mark.parametrize("config", CONFIGS)
def test_run_ahead_is_exact(config):
    """Results with run-ahead equal those of the heap-only path, which
    ``max_events`` forces."""
    ahead = mixed_kernel(CONFIGS[config](), CountingEngine())
    ahead.run_to_completion()

    heap_only = mixed_kernel(CONFIGS[config](), CountingEngine())
    heap_only.run_to_completion(max_events=1 << 30)

    assert snapshot(ahead) == snapshot(heap_only)
    # The shortcut was taken: every inline milestone is one event fewer
    # scheduled, while events_run counts it all the same.
    assert ahead.engine.scheduled < heap_only.engine.scheduled


@pytest.mark.parametrize("config", CONFIGS)
def test_invariant_checker_sees_state_reached_inline(config, monkeypatch):
    """The checker leaves run-ahead on: checks run at heap-event
    boundaries on state that inline milestones built, so the per-event
    path the suite audits is the one production takes."""
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    k = mixed_kernel(CONFIGS[config](), CountingEngine())
    chk = k.invariants
    real_check = chk.check_now
    at = []

    def check_now():
        real_check()
        at.append((k.engine.events_run, k.engine.scheduled))

    chk.check_now = check_now
    k.run_to_completion()
    assert k.engine.scheduled < k.engine.events_run  # milestones ran inline
    assert at and all(run < k.engine.events_run for run, _ in at)
    # Some check saw more events run than scheduled: inline ones before it.
    assert any(run > scheduled for run, scheduled in at)


def test_split_run_for_ends_where_one_run_does():
    x = 1_234_567  # not aligned with any milestone
    split = mixed_kernel(CONFIGS["vanilla"]())
    for until in (x, 2 * x):
        split.run_for(x)
        assert split.now == until
        InvariantChecker(split).check_now()  # every running CPU is armed
    whole = mixed_kernel(CONFIGS["vanilla"]())
    whole.run_for(2 * x)
    assert whole.now == 2 * x
    assert snapshot(split) == snapshot(whole)


def test_event_at_a_milestone_time_fires_first():
    """An event already queued for the exact time of a milestone was
    scheduled first, so it fires before that milestone is handled."""
    k = Kernel(vanilla_config(cores=1, seed=3), engine=CountingEngine())
    done = [0]
    seen = []

    def prog():
        for _ in range(10):
            yield Compute(1_000)
            done[0] += 1

    k.spawn(prog(), name="t")
    third = k.config.scheduler.context_switch_ns + 3_000
    k.engine.schedule_at(third, lambda: seen.append(done[0]))
    k.run_to_completion()
    assert seen == [2]
    assert done[0] == 10
    assert k.engine.scheduled < k.engine.events_run  # milestones ran inline


def test_run_to_completion_stops_at_the_last_exit():
    k = Kernel(vanilla_config(cores=2, seed=3))
    tasks = [k.spawn((Compute(n) for n in (300_000, 200_000 + 1_000 * i)),
                     name=f"t{i}") for i in range(3)]
    k.run_to_completion()
    assert k.live_tasks == 0
    assert k.now == max(t.exited_at for t in tasks)
    assert k.engine.ahead_until == -1


def test_run_for_runs_to_its_bound_past_the_last_exit():
    k = Kernel(vanilla_config(cores=2, seed=3))
    t = k.spawn((Compute(n) for n in (300_000, 200_000)), name="t")
    k.run_for(5 * MS)
    assert k.live_tasks == 0 and t.exited_at < 1 * MS
    assert k.now == 5 * MS


def test_inline_milestones_poll_the_soft_deadline():
    polls = []

    class PollingEngine(Engine):
        __slots__ = ()

        def poll_deadline(self):
            polls.append(self.events_run)
            super().poll_deadline()

    k = Kernel(vanilla_config(cores=1, seed=3), engine=PollingEngine())
    k.spawn((Compute(10) for _ in range(3_000)), name="t")
    k.run_to_completion()
    # One callback ran the milestones in place, and polled every 1024.
    assert polls == [1024, 2048]
