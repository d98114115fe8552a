"""The copies of the per-state time accounting agree with the original.

``Task.account_state`` folds the time since the last state change into
the task's stats.  ``Task.set_state`` inlines it, ``Kernel._sync_current``
inlines it for the running task, and ``Kernel._cpu_event`` inlines
``_sync_current`` (tests/test_kernel_run_ahead.py checks that copy
against the heap-only path).  Each copy is checked here over every state
and run mode, with the clock 1 ns behind, at, and 5 ns past
``state_since``.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.config import vanilla_config
from repro.kernel import Kernel
from repro.kernel.task import RunMode, Task, TaskState

SINCE = 1_000
CASES = list(itertools.product(TaskState, RunMode, (-1, 0, 5)))
IDS = [f"{s.value}-{m.value}-{e}" for s, m, e in CASES]


def make_task(state: TaskState, mode: RunMode) -> Task:
    task = Task("t", iter(()))
    task.state = state
    task.mode = mode
    task.state_since = SINCE
    # Distinct non-zero counters, so time folded into the wrong one shows.
    task.stats = dataclasses.replace(
        task.stats, cpu_ns=10, spin_ns=20, wait_ns=30, sleep_ns=40)
    return task


def charged(task: Task) -> dict[str, int]:
    base = {"cpu_ns": 10, "spin_ns": 20, "wait_ns": 30, "sleep_ns": 40}
    return {f: getattr(task.stats, f) - v for f, v in base.items()
            if getattr(task.stats, f) != v}


@pytest.mark.parametrize("state,mode,elapsed", CASES, ids=IDS)
def test_account_state_charges_the_state_it_leaves(state, mode, elapsed):
    task = make_task(state, mode)
    task.account_state(SINCE + elapsed)
    if elapsed <= 0 or state in (TaskState.NEW, TaskState.EXITED):
        expected = {}
    elif state is TaskState.RUNNING:
        field = "cpu_ns" if mode is RunMode.COMPUTE else "spin_ns"
        expected = {field: elapsed}
    elif state is TaskState.RUNNABLE:
        expected = {"wait_ns": elapsed}
    else:
        expected = {"sleep_ns": elapsed}
    assert charged(task) == expected
    assert task.state_since == SINCE + elapsed
    assert task.state is state


@pytest.mark.parametrize("state,mode,elapsed", CASES, ids=IDS)
def test_set_state_matches_account_state_then_assignment(state, mode, elapsed):
    now = SINCE + elapsed
    for new in TaskState:
        ref = make_task(state, mode)
        ref.account_state(now)
        ref.state = new
        task = make_task(state, mode)
        task.set_state(new, now)
        assert task.stats == ref.stats, new
        assert task.state_since == ref.state_since, new
        assert task.state is new


@pytest.mark.parametrize("state,mode,elapsed", CASES, ids=IDS)
def test_sync_current_matches_account_state(state, mode, elapsed):
    now = SINCE + elapsed
    k = Kernel(vanilla_config(cores=1, seed=1))
    k.engine.now = now
    cpu = k.cpus[0]
    task = make_task(state, mode)
    task.action_remaining = 1_000
    cpu.rq.curr = task
    # The CPU last synced before the clock, so _sync_current does its work.
    cpu.run_started = now - 3
    k._sync_current(cpu)
    ref = make_task(state, mode)
    ref.account_state(now)
    assert task.stats == ref.stats
    assert task.state_since == ref.state_since
    assert cpu.run_started == now
    assert task.action_remaining == 1_000 - 3
