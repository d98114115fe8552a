"""Performance-monitoring-counter (PMC) model.

BWD's second heuristic: a tight spin loop causes *no* L1d misses and *no*
TLB misses during a monitoring window, whereas ordinary code — per the
paper's profiling of all 32 benchmarks — retires ~3000 instructions/us with
1 L1d miss per 45 instructions and 1 TLB miss per 890 instructions, i.e.
~6667 L1 misses and ~337 TLB misses per 100 us period.

:func:`synthesize_pmc` draws a window's counters from that profile.  A
workload's *tight-loop probability* models short non-synchronization loops
with no data access (the paper's false-positive source, Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ProfilingConfig
from ..sim.rng import ScalarDraws


@dataclass(frozen=True)
class PmcWindow:
    """Counters accumulated during one monitoring period."""

    instructions: int
    l1d_misses: int
    tlb_misses: int

    @property
    def miss_free(self) -> bool:
        return self.l1d_misses == 0 and self.tlb_misses == 0


def synthesize_pmc(
    window_ns: int,
    spin_fraction: float,
    profile: ProfilingConfig,
    rng: np.random.Generator | ScalarDraws,
    tight_loop_probability: float = 0.0,
    miss_rate_scale: float = 1.0,
) -> PmcWindow:
    """Counters a PMC read at the end of a ``window_ns`` period would show.

    ``spin_fraction`` — fraction of the window spent spinning (spin cycles
    retire instructions but miss nothing).
    ``miss_rate_scale`` — per-workload multiplier on the profiled miss rates.
    ``tight_loop_probability`` — chance the non-spin part of the window was a
    tight compute loop with a cached working set (zero misses).
    """
    window_us = window_ns / 1000.0
    instructions = int(profile.inst_per_us * window_us)
    compute_fraction = max(0.0, 1.0 - spin_fraction)
    if compute_fraction <= 0.0:
        return PmcWindow(instructions, 0, 0)
    if tight_loop_probability > 0.0 and rng.random() < tight_loop_probability:
        return PmcWindow(instructions, 0, 0)
    compute_inst = instructions * compute_fraction * miss_rate_scale
    exp_l1 = compute_inst / profile.inst_per_l1_miss
    exp_tlb = compute_inst / profile.inst_per_tlb_miss
    l1 = int(rng.poisson(exp_l1)) if exp_l1 > 0 else 0
    tlb = int(rng.poisson(exp_tlb)) if exp_tlb > 0 else 0
    return PmcWindow(instructions, l1, tlb)


def synthesize_pmc_miss_free(
    window_ns: int,
    spin_fraction: float,
    profile: ProfilingConfig,
    rng: np.random.Generator | ScalarDraws,
    tight_loop_probability: float = 0.0,
    miss_rate_scale: float = 1.0,
) -> bool:
    """``synthesize_pmc(...).miss_free`` without building the window object.

    Draws from ``rng`` in exactly the same order and count as
    :func:`synthesize_pmc` (equivalence checked in
    ``tests/test_lbr_pmc_ple.py``); BWD's per-window hot path only needs
    this one predicate."""
    compute_fraction = max(0.0, 1.0 - spin_fraction)
    if compute_fraction <= 0.0:
        return True
    if tight_loop_probability > 0.0 and rng.random() < tight_loop_probability:
        return True
    window_us = window_ns / 1000.0
    instructions = int(profile.inst_per_us * window_us)
    compute_inst = instructions * compute_fraction * miss_rate_scale
    exp_l1 = compute_inst / profile.inst_per_l1_miss
    exp_tlb = compute_inst / profile.inst_per_tlb_miss
    if exp_l1 > 0 and int(rng.poisson(exp_l1)) != 0:
        # The TLB draw must still happen to keep the stream aligned.
        if exp_tlb > 0:
            rng.poisson(exp_tlb)
        return False
    return not (exp_tlb > 0 and int(rng.poisson(exp_tlb)) != 0)
