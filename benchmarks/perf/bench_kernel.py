"""Kernel tick/dispatch microbenchmark.

Runs a full simulated kernel under a deliberately scheduler-heavy load:
4x oversubscribed compute+yield tasks on 8 cores, so nearly every engine
event is a dispatch, slice expiry, or yield — the kernel's hot loop with
no workload logic in the way.

Metric: ``ref_events_per_s``, engine events processed per
reference-host second (``common.repeat_best_ref``), best of three rounds,
so the dispatch path's record compares across hosts and host load.
``events_per_s`` and ``sim_ns_per_wall_s`` are the same round in raw wall
seconds.
"""

from __future__ import annotations

from common import bootstrap, repeat_best_ref

bootstrap()

from repro.config import vanilla_config  # noqa: E402
from repro.kernel.kernel import Kernel  # noqa: E402
from repro.prog import actions as A  # noqa: E402

_CORES = 8
_TASKS = 32
_COMPUTE_NS = 20_000  # short bursts -> high event rate


def _program(iters: int):
    for _ in range(iters):
        yield A.Compute(_COMPUTE_NS)
        yield A.Yield()


def _simulate(iters_per_task: int):
    kernel = Kernel(vanilla_config(cores=_CORES, seed=2021))
    for i in range(_TASKS):
        kernel.spawn(_program(iters_per_task), name=f"spin{i}")
    kernel.run_to_completion()
    return kernel.engine.events_run, kernel.engine.now


def run(quick: bool = False) -> dict:
    iters = 300 if quick else 1_500
    ref_wall, wall, (events, sim_ns) = repeat_best_ref(
        lambda: _simulate(iters))
    return {
        "events": events,
        "sim_ns": sim_ns,
        "wall_s": round(wall, 6),
        "events_per_s": round(events / wall, 1),
        "sim_ns_per_wall_s": round(sim_ns / wall, 1),
        "ref_wall_s": round(ref_wall, 6),
        "ref_events_per_s": round(events / ref_wall, 1),
    }


if __name__ == "__main__":
    print(run(quick=True))
