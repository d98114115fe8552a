"""Analytical epoch memory model (the indirect cost of context switching).

Reproduces the mechanics behind Figure 4: threads time-sharing one core each
traverse a private sub-array between context switches; the total array size is
fixed (strong scaling).  The model follows the paper's own capacity-fit
reasoning (Section 2.3), with three regimes per cache/TLB level of capacity
``C`` for a thread whose region is ``R`` out of a total footprint ``A``:

* **fits, unshared** (``A <= C``): every access hits — nothing was evicted.
* **fits, flushed** (``R <= C < A``): the other threads' epochs flushed the
  level, but the region is small enough to re-load: the first touch of each
  line/page misses, the remaining touches hit (8 element-touches per 64 B
  line, 512 per 4 KB page).  This is why fitting sub-array translations in
  the TLB is so robust — the refill is 1/512 of accesses — while the L2
  "flush on every switch" costs a full 1/8 of accesses.
* **over capacity** (``R > C``): random accesses mostly miss; a residual
  ``share * C / A`` of accesses hit (set-conflict/thrash-discounted capacity
  share).  Note ``C/A`` is the same for the single-threaded baseline and the
  oversubscribed run — threads under strong scaling share the same total
  footprint — so over-capacity levels contribute no cost *difference*.

Sequential sweeps stream through the smallest level holding the combined
footprint; the prefetcher hides most of the fill latency, but time-sharing
restarts stream training at each switch and interleaves streams, lowering
coverage — the paper's "loss of sequentiality".

RMW adds write-back traffic and makes the L2 unhelpful (dirty lines must be
written back to L3/memory), so for random RMW the TLB gain dominates and
oversubscription is always favorable — the paper's conclusion.

The exact simulators in `repro.hw.cache` / `repro.hw.tlb` validate this
reach arithmetic on scaled-down traces (see tests/hw/test_memmodel.py).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..config import HardwareConfig
from ..errors import ConfigError
from .prefetcher import effective_coverage

ELEM_BYTES = 8  # each element is a double, as in the paper's benchmark

# A few TLB entries / cache ways are always consumed by stacks, code, and the
# OS, so the usable reach is slightly below nominal.
CAPACITY_UTILIZATION = 0.90
# Residual hit share of a level whose capacity is exceeded (random access).
OVER_CAPACITY_SHARE = 0.5


class AccessPattern(enum.Enum):
    SEQ_R = "seq-r"
    SEQ_RMW = "seq-rmw"
    RND_R = "rnd-r"
    RND_RMW = "rnd-rmw"

    @property
    def sequential(self) -> bool:
        return self in _SEQUENTIAL

    @property
    def rmw(self) -> bool:
        return self in _RMW


# Bound once: an enum member lookup in a function body is slow on Python
# 3.10 and 3.11 (see repro.kernel.task).
_SEQUENTIAL = (AccessPattern.SEQ_R, AccessPattern.SEQ_RMW)
_RMW = (AccessPattern.SEQ_RMW, AccessPattern.RND_RMW)


@dataclass(frozen=True)
class EpochResult:
    """One traversal of a thread's region."""

    time_ns: float
    accesses: int
    per_access_ns: float


def _fit_probability(
    region: int,
    total: int,
    nominal: float,
    touches: int,
    damp_when_flushed: bool = False,
) -> float:
    """P(hit) at a level under random access, per the regime table above.

    The *unshared* fit check uses the effective capacity (a few entries/ways
    are always consumed by stacks, code, and the OS); the *region* fit check
    uses the nominal capacity, since a flushed-then-refilled region competes
    only against itself for the duration of its epoch.
    """
    effective = nominal * CAPACITY_UTILIZATION
    if total <= effective:
        return 1.0
    if region < total and region <= nominal:
        return 1.0 - 1.0 / touches  # flushed between epochs, refilled once
    share = OVER_CAPACITY_SHARE * effective / total
    if damp_when_flushed and region < total:
        # Another thread's epoch intervenes between this thread's touches,
        # halving the thread's average residency at this level.
        share *= 0.5
    return share


class MemoryModel:
    """Expected-latency model over a :class:`HardwareConfig`."""

    # Cycle cost of the non-memory part of one loop iteration.
    cpu_base_ns = 0.5

    def __init__(self, hw: HardwareConfig):
        self.hw = hw
        self.tlb1_reach = hw.dtlb_l1_entries * hw.page_bytes
        self.tlb2_reach = hw.dtlb_l2_entries * hw.page_bytes
        self._l1_eff = hw.l1d_bytes * CAPACITY_UTILIZATION
        self._l2_eff = hw.l2_bytes * CAPACITY_UTILIZATION
        self._l3_eff = hw.l3_bytes * CAPACITY_UTILIZATION
        self._line_touches = hw.line_bytes // ELEM_BYTES
        self._page_touches = hw.page_bytes // ELEM_BYTES

    # ------------------------------------------------------------------
    # Random access
    # ------------------------------------------------------------------
    def _rnd_cache_ns(self, region: int, total: int, rmw: bool) -> float:
        hw = self.hw
        t = self._line_touches
        # Flushed-residency damping applies to caches (line refills cost 1/8
        # of accesses) but not to TLBs (page refills cost 1/512) — and not
        # under RMW, where write-back traffic dominates L2 behavior anyway.
        damp = not rmw
        p_l1 = _fit_probability(region, total, hw.l1d_bytes, t, damp)
        if rmw:
            # Dirty lines stream back to L3/memory; L2 residency is moot.
            p_l2 = p_l1
        else:
            p_l2 = max(
                p_l1, _fit_probability(region, total, hw.l2_bytes, t, damp)
            )
        # The L3 is per-socket and shared: all threads' data co-resides in it
        # no matter how the array is partitioned, so its hit rate depends on
        # the total footprint only and contributes no oversubscription delta.
        p_l3 = max(p_l2, _fit_probability(total, total, hw.l3_bytes, t, False))
        lat = (
            p_l1 * hw.l1_latency_ns
            + (p_l2 - p_l1) * hw.l2_latency_ns
            + (p_l3 - p_l2) * hw.l3_latency_ns
            + (1.0 - p_l3) * hw.mem_latency_ns
        )
        if rmw:
            # Write-back of the dirty line on eviction.
            lat += (1.0 - p_l2) * hw.l3_latency_ns * 0.5
        return lat

    def _rnd_tlb_ns(self, region: int, total: int) -> float:
        hw = self.hw
        t = self._page_touches
        p1 = _fit_probability(region, total, self.tlb1_reach, t, False)
        p2 = max(p1, _fit_probability(region, total, self.tlb2_reach, t, False))
        return (p2 - p1) * hw.tlb_l2_hit_ns + (1.0 - p2) * hw.page_walk_ns

    # ------------------------------------------------------------------
    # Sequential access
    # ------------------------------------------------------------------
    def _seq_level_latency(self, footprint: float) -> float:
        """Fill latency of one line during a sequential sweep.

        A sweep's own tail evicts its head, and interleaved threads stream
        their footprints through the same core, so lines come from the
        smallest level that holds the *combined* footprint.
        """
        hw = self.hw
        if footprint <= self._l1_eff:
            return hw.l1_latency_ns
        if footprint <= self._l2_eff:
            return hw.l2_latency_ns
        if footprint <= self._l3_eff:
            return hw.l3_latency_ns
        return hw.mem_latency_ns

    def _seq_access_ns(self, region: int, total: int, nthreads: int, rmw: bool) -> float:
        hw = self.hw
        accesses = max(1, region // ELEM_BYTES)
        lines = max(1, region // hw.line_bytes)
        cov = effective_coverage(hw.prefetch_coverage, nthreads, accesses)
        fill = self._seq_level_latency(float(total))
        per_line = (1.0 - cov) * fill
        if rmw and total > self._l2_eff:
            per_line += 0.5 * hw.l3_latency_ns  # write-back stream
        # One translation per page; sequential reuse makes TLB costs small
        # but they are charged where the sweep exceeds a reach.
        pages = max(1, region // hw.page_bytes)
        if total > self.tlb2_reach:
            tlb_total = pages * hw.page_walk_ns
        elif total > self.tlb1_reach:
            tlb_total = pages * hw.tlb_l2_hit_ns
        else:
            tlb_total = 0.0
        return (lines * per_line + tlb_total) / accesses

    # ------------------------------------------------------------------
    # Epochs
    # ------------------------------------------------------------------
    def epoch(
        self,
        pattern: AccessPattern,
        region_bytes: int,
        total_bytes: int | None = None,
        nthreads: int = 1,
    ) -> EpochResult:
        """Expected time for one full traversal of ``region_bytes``.

        ``total_bytes`` — combined footprint of all threads sharing the core
        (defaults to ``region_bytes``: a dedicated core / single thread).
        """
        if region_bytes < ELEM_BYTES:
            raise ConfigError("region must hold at least one element")
        total = total_bytes if total_bytes is not None else region_bytes
        if total < region_bytes:
            raise ConfigError("total footprint cannot be below the region")
        accesses = region_bytes // ELEM_BYTES
        if pattern.sequential:
            mem_ns = self._seq_access_ns(region_bytes, total, nthreads, pattern.rmw)
        else:
            mem_ns = self._rnd_cache_ns(
                region_bytes, total, pattern.rmw
            ) + self._rnd_tlb_ns(region_bytes, total)
        per_access = self.cpu_base_ns + mem_ns
        return EpochResult(
            time_ns=per_access * accesses,
            accesses=accesses,
            per_access_ns=per_access,
        )

    # ------------------------------------------------------------------
    # Figure 4 driver
    # ------------------------------------------------------------------
    def indirect_cs_cost(
        self,
        pattern: AccessPattern,
        total_bytes: int,
        nthreads: int = 2,
        epochs_per_thread: int = 8,
    ) -> dict[str, float]:
        """Indirect cost per context switch, (t_over - t_serial) / #CS.

        All threads share one core; the total array is split evenly; each
        thread traverses its whole sub-array between context switches.  The
        single-thread baseline traverses the full array the same total number
        of times.  A negative cost means oversubscription *helps* (the
        paper's TLB-fit effect).
        """
        if nthreads < 2:
            raise ConfigError("oversubscription needs >= 2 threads")
        sub = total_bytes // nthreads
        serial_epoch = self.epoch(pattern, total_bytes, total_bytes, 1)
        t_serial = serial_epoch.time_ns * epochs_per_thread

        over_epoch = self.epoch(pattern, sub, total_bytes, nthreads)
        num_switches = epochs_per_thread * nthreads
        t_over = over_epoch.time_ns * num_switches

        return {
            "t_serial_ns": t_serial,
            "t_over_ns": t_over,
            "num_switches": float(num_switches),
            "cost_per_cs_ns": (t_over - t_serial) / num_switches,
            "epoch_over_ns": over_epoch.time_ns,
            "epoch_serial_ns": serial_epoch.time_ns,
        }
