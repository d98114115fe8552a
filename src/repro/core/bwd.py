"""Busy-waiting detection (BWD) — Section 3.2.

A periodic monitor (the paper arms a 100 us hrtimer per core) inspects what
ran on each core during the last period and declares *spinning* when:

1. all 16 LBR entries are identical, backward branches, and
2. the PMCs recorded zero TLB misses and zero L1d misses.

Both records are cleared at each period, so only a task that spent the whole
window in a tight loop can match — the paper's profiling (3000 inst/us,
1 L1 miss / 45 inst, 1 TLB miss / 890 inst) makes ordinary code essentially
never match, while any spin implementation (PAUSE-based or ad-hoc) does.

On detection the spinning task is descheduled with a *skip* flag: it will
not run again until every other task on that core has been scheduled at
least once, letting critical threads (e.g. the preempted lock holder) run
sooner.

The monitor is software-only and mechanism-agnostic: it works natively, in
containers, and in VMs — unlike PLE/PF (`repro.hw.ple`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..config import BwdConfig, ProfilingConfig
from ..hw.lbr import synthesize_lbr_signature
from ..hw.pmc import synthesize_pmc_miss_free
from ..kernel.hrtimer import HrTimer
from ..kernel.task import MODE_SPIN, RUNNING
from ..sim.rng import ScalarDraws

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel
    from ..kernel.task import Task


class WindowKind(enum.Enum):
    """Ground truth of what a core did during a monitoring window."""

    IDLE = "idle"
    SPIN_FULL = "spin-full"  # one task, spinning for the entire window
    SPIN_PARTIAL = "spin-partial"  # spinning at window end, not throughout
    NORMAL = "normal"  # ordinary execution


# Bound once: ``_tick`` tests the kind of every core's window each period,
# and an enum member lookup in a function body is slow on Python 3.10 and
# 3.11 (see repro.kernel.task).
WINDOW_SPIN_FULL = WindowKind.SPIN_FULL
WINDOW_SPIN_PARTIAL = WindowKind.SPIN_PARTIAL
WINDOW_NORMAL = WindowKind.NORMAL


@dataclass
class BwdStats:
    windows: int = 0
    spin_windows: int = 0  # ground-truth full-spin windows ("tries", Table 2)
    true_positives: int = 0
    nonspin_windows: int = 0  # ground-truth non-spin windows (Table 3)
    false_positives: int = 0
    deschedules: int = 0

    @property
    def sensitivity(self) -> float:
        return (
            self.true_positives / self.spin_windows if self.spin_windows else 0.0
        )

    @property
    def specificity(self) -> float:
        if not self.nonspin_windows:
            return 1.0
        return 1.0 - self.false_positives / self.nonspin_windows


class BwdMonitor:
    """The per-core LBR/PMC sampler and deschedule trigger."""

    def __init__(
        self,
        config: BwdConfig,
        profiling: ProfilingConfig,
        rng: ScalarDraws,
    ):
        self.config = config
        self.profiling = profiling
        self.rng = rng
        self.stats = BwdStats()
        self._timer: HrTimer | None = None
        self._kernel: "Kernel | None" = None

    def install(self, kernel: "Kernel") -> None:
        """Arm the monitoring timer on the kernel's engine.

        One engine timer walks every online core each period; behaviorally
        identical to the paper's per-core hrtimers, at a fraction of the
        event count.
        """
        self._kernel = kernel
        self._timer = HrTimer(
            kernel.engine, self.config.period_ns, self._tick, name="bwd"
        )
        self._timer.start()

    def uninstall(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def nudge_timer(self, delta_ns: int) -> bool:
        """Shift the monitor's next tick by ``delta_ns`` (chaos harness:
        hrtimer jitter racing slice expiry).  Returns False when no timer
        is armed."""
        if self._timer is None:
            return False
        return self._timer.nudge(delta_ns)

    # ------------------------------------------------------------------
    def _classify(self, task: "Task", window_start: int) -> WindowKind:
        if task.mode is MODE_SPIN:
            ran_all_window = task.on_cpu_since <= window_start
            spun_all_window = task.mode_since <= window_start
            if ran_all_window and spun_all_window:
                return WINDOW_SPIN_FULL
            return WINDOW_SPIN_PARTIAL
        return WINDOW_NORMAL

    def _tick(self, now: int) -> None:
        kernel = self._kernel
        assert kernel is not None
        config = self.config
        period = config.period_ns
        overhead = config.timer_overhead_ns
        entries = config.lbr_entries
        window_start = now - period
        profiling = self.profiling
        draws = self.rng
        stats = self.stats
        trace = kernel.trace
        cpus = kernel.cpus
        # Boolean fast paths below: the same draws as materializing the
        # LBR ring / PMC window, without the object churn (this runs once
        # per core per 100 us of simulated time).
        for cpu_id in kernel.online_cpus():
            task = cpus[cpu_id].rq.curr
            stats.windows += 1
            # Reading LBRs/PMCs in the interrupt handler steals cycles from
            # whoever is running (the paper's <3% timer overhead).
            kernel.charge_irq(cpu_id, overhead)
            if task is None:
                continue
            kind = self._classify(task, window_start)
            if kind is WINDOW_SPIN_FULL:
                stats.spin_windows += 1
                # A window spent spinning counts no misses: its PMC read,
                # synthesize_pmc_miss_free(period, 1.0, ...), is miss-free
                # and draws nothing.
                if synthesize_lbr_signature(
                    entries, 1.0, task.spin_signature, draws,
                    config.miss_probability,
                ):
                    stats.true_positives += 1
                    if trace.enabled:
                        trace.emit(now, "bwd-detect", cpu_id, task.name,
                                   window=kind.value)
                    self._deschedule(cpu_id, task)
            elif kind is WINDOW_SPIN_PARTIAL:
                # The LBR shows the spin signature (last branches), but the
                # PMCs accumulated the pre-spin compute misses — cleared
                # records mean a partial spin is caught one period later.
                spin_ns = now - max(task.mode_since, task.on_cpu_since)
                profile = task.profile
                if synthesize_pmc_miss_free(
                    period, min(1.0, spin_ns / period), profiling, draws,
                    profile.tight_loop_prob, profile.miss_rate_scale,
                ):
                    # Counted as a detection but not toward sensitivity:
                    # ground truth here is ambiguous (it *is* spinning now).
                    if trace.enabled:
                        trace.emit(now, "bwd-detect", cpu_id, task.name,
                                   window=kind.value)
                    self._deschedule(cpu_id, task)
            else:
                # A tight compute loop looks like a spin to both records;
                # its PMC read, like a spin window's, draws nothing.
                stats.nonspin_windows += 1
                profile = task.profile
                tight = profile.tight_loop_prob
                if tight > 0.0 and draws.random() < tight:
                    detected = synthesize_lbr_signature(
                        entries, 1.0, task.spin_signature, draws, 0.0)
                else:
                    sig = synthesize_lbr_signature(
                        entries, 0.0, task.spin_signature, draws, 0.0)
                    # Drawn whatever the ring showed: the stream stays
                    # aligned.
                    miss_free = synthesize_pmc_miss_free(
                        period, 0.0, profiling, draws, 0.0,
                        profile.miss_rate_scale)
                    detected = sig and miss_free
                if detected:
                    stats.false_positives += 1
                    if trace.enabled:
                        trace.emit(now, "bwd-detect", cpu_id, task.name,
                                   window="false-positive")
                    self._deschedule(cpu_id, task)

    def _deschedule(self, cpu_id: int, task: "Task") -> None:
        kernel = self._kernel
        assert kernel is not None
        if task.state is not RUNNING:
            return
        self.stats.deschedules += 1
        # The kernel counts the task's bwd_deschedules: it owns TaskStats.
        kernel.bwd_deschedule(cpu_id, task, self.config.deschedule_cost_ns)
