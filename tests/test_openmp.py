"""OpenMP-style runtime: loop schedules, regions and barriers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import optimized_config, vanilla_config
from repro.errors import ProgramError
from repro.kernel import Kernel
from repro.prog.openmp import LoopSchedule, ParallelRegion, parallel_for

US = 1_000
MS = 1_000_000


# ---------------------------------------------------------------------
# OpenMP layer
# ---------------------------------------------------------------------
def run_region(iter_costs, nthreads, schedule, cores=4, seed=3, kernel_cfg=None):
    cfg = kernel_cfg or vanilla_config(cores=cores, seed=seed)
    k = Kernel(cfg)
    programs, regions = parallel_for(iter_costs, nthreads, schedule)
    for i, gen in enumerate(programs):
        k.spawn(gen, name=f"omp{i}")
    k.run_to_completion()
    return k, regions


def test_schedule_validation():
    with pytest.raises(ProgramError):
        LoopSchedule("weird")
    with pytest.raises(ProgramError):
        LoopSchedule("static", chunk=0)
    with pytest.raises(ProgramError):
        ParallelRegion([1], 0, LoopSchedule("static"))


def test_all_iterations_executed_exactly_once_static():
    costs = [10 * US] * 64
    k, regions = run_region(costs, 8, LoopSchedule("static", chunk=4))
    assert sum(regions[0].executed) == 64


@pytest.mark.parametrize("kind", ["dynamic", "guided"])
def test_all_iterations_executed_exactly_once_dynamic(kind):
    costs = [10 * US] * 64
    k, regions = run_region(costs, 8, LoopSchedule(kind, chunk=2))
    assert sum(regions[0].executed) == 64
    # Every thread reached the implicit barrier once.
    assert regions[0].barrier.generations == 1


def test_static_round_robin_assignment():
    region = ParallelRegion([1] * 10, 3, LoopSchedule("static", chunk=2))
    assert region.static_chunks(0) == [(0, 2), (6, 8)]
    assert region.static_chunks(1) == [(2, 4), (8, 10)]
    assert region.static_chunks(2) == [(4, 6)]


def test_dynamic_balances_irregular_loops():
    """Classic OpenMP result: dynamic scheduling beats static on a loop
    with highly skewed iteration costs."""
    rng = np.random.default_rng(5)
    costs = [int(c) for c in rng.exponential(40 * US, size=96)]

    k_static, _ = run_region(costs, 8, LoopSchedule("static", chunk=12))
    k_dynamic, _ = run_region(costs, 8, LoopSchedule("dynamic", chunk=1))
    assert k_dynamic.now < k_static.now


def test_guided_between_static_and_dynamic_overhead():
    """On a *uniform* loop, guided needs fewer chunk fetches than
    dynamic(1)."""
    costs = [20 * US] * 128
    _, dyn_regions = run_region(costs, 4, LoopSchedule("dynamic", chunk=1))
    _, gui_regions = run_region(costs, 4, LoopSchedule("guided", chunk=1))
    assert (
        gui_regions[0].next_counter.updates
        < dyn_regions[0].next_counter.updates
    )


def test_multiple_regions_in_sequence():
    costs = [5 * US] * 32
    k, regions = run_region(
        costs, 4, LoopSchedule("static"), cores=2
    )
    programs, region_objs = parallel_for(
        costs, 4, LoopSchedule("dynamic"), regions=3
    )
    k2 = Kernel(vanilla_config(cores=2, seed=4))
    for i, gen in enumerate(programs):
        k2.spawn(gen, name=f"t{i}")
    k2.run_to_completion()
    for r in region_objs:
        assert sum(r.executed) == 32
        assert r.barrier.generations == 1


def test_oversubscribed_omp_team_vb_recovers():
    """The NPB pattern end-to-end: an oversubscribed OpenMP team's
    end-of-region barriers hurt on vanilla and recover under VB."""
    rng = np.random.default_rng(7)
    costs = [int(c) for c in rng.integers(20 * US, 60 * US, size=256)]

    def total(cfg, nthreads):
        k = Kernel(cfg)
        programs, _ = parallel_for(
            costs, nthreads, LoopSchedule("dynamic", chunk=4), regions=12
        )
        for i, gen in enumerate(programs):
            k.spawn(gen, name=f"t{i}")
        k.run_to_completion()
        return k.now

    base = total(vanilla_config(cores=8, seed=8), 8)
    over = total(vanilla_config(cores=8, seed=8), 32)
    vb = total(optimized_config(cores=8, seed=8, bwd=False), 32)
    assert over > 1.02 * base
    assert vb < over
    assert vb < 1.15 * base
