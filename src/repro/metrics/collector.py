"""Collects end-of-run statistics from a kernel (Table 1's columns)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel


@dataclass(frozen=True)
class CpuBreakdown:
    """Per-CPU time accounting (all in nanoseconds of the run)."""

    cpu_id: int
    busy_ns: int
    sched_ns: int
    irq_ns: int
    stall_ns: int
    poll_ns: int

    def utilization_pct(self, wall_ns: int) -> float:
        if wall_ns <= 0:
            return 0.0
        used = min(
            wall_ns, self.busy_ns + self.sched_ns + self.irq_ns + self.poll_ns
        )
        return 100.0 * used / wall_ns


@dataclass(frozen=True)
class RunStats:
    """Aggregate statistics of one simulation run."""

    wall_ns: int
    cpu_utilization_pct: float  # summed per-CPU percent (800 = 8 busy CPUs)
    migrations_in_node: int
    migrations_cross_node: int
    wake_migrations: int
    balance_migrations: int
    context_switches: int
    voluntary_switches: int
    involuntary_switches: int
    blocks: int
    wakeups: int
    total_cpu_ns: int
    total_spin_ns: int
    total_wait_ns: int
    total_sleep_ns: int
    mean_wakeup_latency_ns: float
    vb_blocks: int
    vanilla_blocks: int
    bwd_deschedules: int
    bwd_sensitivity: float
    bwd_specificity: float
    per_cpu: tuple = ()
    # Auxiliary metrics as nested (key, ((stat, value), ...)) tuples — fully
    # immutable, so the frozen dataclass stays hashable and the value
    # round-trips losslessly through the JSON result cache (the previous
    # mutable-dict default broke both).
    extra: tuple = ()

    @property
    def total_migrations(self) -> int:
        return self.migrations_in_node + self.migrations_cross_node

    @property
    def extra_dict(self) -> dict:
        """``extra`` as the nested dict the JSON artifacts carry."""
        return {key: dict(items) for key, items in self.extra}


def collect(kernel: "Kernel") -> RunStats:
    tasks = kernel.tasks
    wakeups = sum(t.stats.nr_wakeups for t in tasks)
    wake_lat = sum(t.stats.wakeup_latency_ns for t in tasks)
    bwd = kernel.bwd
    kernel.obs_report()  # flush histograms to any enclosing observe()
    extra = tuple(
        (f"hist:{name}", tuple(sorted(hist.summary().items())))
        for name, hist in sorted(kernel.hists.items())
        if hist.count
    )
    return RunStats(
        wall_ns=kernel.now - kernel.start_time,
        cpu_utilization_pct=kernel.cpu_utilization_percent(),
        migrations_in_node=kernel.migrations_in_node,
        migrations_cross_node=kernel.migrations_cross_node,
        wake_migrations=kernel.wake_migrations,
        balance_migrations=kernel.balance_migrations,
        context_switches=sum(t.stats.nr_switches for t in tasks),
        voluntary_switches=sum(t.stats.nr_voluntary for t in tasks),
        involuntary_switches=sum(t.stats.nr_involuntary for t in tasks),
        blocks=sum(t.stats.nr_blocks for t in tasks),
        wakeups=wakeups,
        total_cpu_ns=sum(t.stats.cpu_ns for t in tasks),
        total_spin_ns=sum(t.stats.spin_ns for t in tasks),
        total_wait_ns=sum(t.stats.wait_ns for t in tasks),
        total_sleep_ns=sum(t.stats.sleep_ns for t in tasks),
        mean_wakeup_latency_ns=(wake_lat / wakeups) if wakeups else 0.0,
        vb_blocks=kernel.vb_policy.stats.vb_blocks,
        vanilla_blocks=kernel.vb_policy.stats.vanilla_blocks,
        bwd_deschedules=bwd.stats.deschedules if bwd else 0,
        bwd_sensitivity=bwd.stats.sensitivity if bwd else 0.0,
        bwd_specificity=bwd.stats.specificity if bwd else 1.0,
        per_cpu=tuple(
            CpuBreakdown(
                cpu_id=c,
                busy_ns=kernel.cpus[c].busy_ns,
                sched_ns=kernel.cpus[c].sched_ns,
                irq_ns=kernel.cpus[c].irq_ns,
                stall_ns=kernel.cpus[c].stall_ns,
                poll_ns=kernel.cpus[c].poll_ns,
            )
            for c in kernel.online_cpus()
        ),
        extra=extra,
    )
