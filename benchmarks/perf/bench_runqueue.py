"""CFS runqueue operation microbenchmark.

Measures the runqueue's hot operations over a queue populated like an
oversubscribed CPU (32 tasks, a third of them VB-blocked):

* enqueue / pick_next cycles (the dispatch path),
* ``nr_schedulable`` (called per slice calculation — O(1) counter),
* ``update_min_vruntime`` (called per dispatch/park — O(1) leftmost).

Metric: ``ref_ops_per_s``, combined cycles per reference-host second
(``common.repeat_best_ref``), best of three rounds; ``ops_per_s`` is the
same round in raw wall seconds.
"""

from __future__ import annotations

from common import bootstrap, repeat_best_ref

bootstrap()

from repro.kernel.runqueue import CfsRunqueue  # noqa: E402
from repro.kernel.task import Task, TaskState  # noqa: E402

_QUEUED = 32
_BLOCKED_EVERY = 3


def _make_tasks():
    tasks = []
    for i in range(_QUEUED):
        t = Task(f"t{i}", iter(()))
        t.vruntime = 1_000 * i
        t.thread_state = 1 if i % _BLOCKED_EVERY == 0 else 0
        t.state = TaskState.RUNNABLE
        tasks.append(t)
    return tasks


def _cycle(n_ops: int) -> int:
    tasks = _make_tasks()
    rq = CfsRunqueue(0)
    for t in tasks:
        rq.enqueue(t)
    done = 0
    while done < n_ops:
        # One dispatch-shaped cycle: pick, account, requeue at a higher
        # vruntime — plus the O(1) queries the scheduler makes around it.
        t = rq.pick_next()
        rq.nr_schedulable()
        rq.update_min_vruntime()
        t.vruntime += 1_000 if t.thread_state == 0 else 0
        rq.enqueue(t)
        rq.peek_next()
        done += 1
    return done


def run(quick: bool = False) -> dict:
    n = 50_000 if quick else 300_000
    ref_wall, wall, ops = repeat_best_ref(lambda: _cycle(n))
    return {
        "ops": ops,
        "queued_tasks": _QUEUED,
        "wall_s": round(wall, 6),
        "ops_per_s": round(ops / wall, 1),
        "ref_wall_s": round(ref_wall, 6),
        "ref_ops_per_s": round(ops / ref_wall, 1),
    }


if __name__ == "__main__":
    print(run(quick=True))
