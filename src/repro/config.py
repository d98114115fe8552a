"""Configuration dataclasses for the simulator.

Every tunable cost in the simulation lives here, with defaults taken from the
paper's measurements on its Intel Broadwell testbed wherever the paper reports
a number (Sections 2.2-2.4 and 3):

* direct context-switch cost: 1.5 us
* CFS regular time slice: 3 ms; minimum granularity: 750 us
* BWD hrtimer period: 100 us; LBR depth: 16 entries
* two-level data TLB: 64 + 1536 entries of 4 KB pages
* profiled instruction mix: 3000 inst/us, 1 L1d miss / 45 inst,
  1 TLB miss / 890 inst

Times are integer nanoseconds throughout the package.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .errors import ConfigError

US = 1_000
MS = 1_000_000
SEC = 1_000_000_000


@dataclass(frozen=True)
class HardwareConfig:
    """Physical machine model (dual-socket Xeon by default, per the paper)."""

    sockets: int = 2
    cores_per_socket: int = 18
    smt: int = 2  # hardware threads per core
    smt_throughput_factor: float = 0.6  # per-HT throughput when sibling busy

    line_bytes: int = 64
    page_bytes: int = 4096
    l1d_bytes: int = 32 * 1024
    l2_bytes: int = 256 * 1024
    l3_bytes: int = 45 * 1024 * 1024  # per socket

    dtlb_l1_entries: int = 64
    dtlb_l2_entries: int = 1536

    # Access latencies (ns), used by the analytical memory model.
    l1_latency_ns: float = 1.0
    l2_latency_ns: float = 4.0
    l3_latency_ns: float = 14.0
    mem_latency_ns: float = 90.0
    tlb_l2_hit_ns: float = 7.0  # L1 dTLB miss that hits the L2 dTLB
    page_walk_ns: float = 35.0  # full TLB miss

    # Fraction of miss latency hidden by the stream prefetcher on fully
    # sequential streams (single predictable stream).
    prefetch_coverage: float = 0.85

    def __post_init__(self) -> None:
        if self.sockets < 1 or self.cores_per_socket < 1 or self.smt < 1:
            raise ConfigError("topology counts must be >= 1")
        if not 0.0 < self.smt_throughput_factor <= 1.0:
            raise ConfigError("smt_throughput_factor must be in (0, 1]")
        if self.line_bytes <= 0 or self.page_bytes % self.line_bytes:
            raise ConfigError("page size must be a multiple of the line size")
        if not 0.0 <= self.prefetch_coverage < 1.0:
            raise ConfigError("prefetch_coverage must be in [0, 1)")

    @property
    def total_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def total_cpus(self) -> int:
        return self.total_cores * self.smt


@dataclass(frozen=True)
class SchedulerConfig:
    """CFS-like scheduler parameters (Section 2.2)."""

    regular_slice_ns: int = 3 * MS
    min_granularity_ns: int = 750 * US
    sched_latency_ns: int = 24 * MS
    wakeup_granularity_ns: int = 1 * MS
    context_switch_ns: int = 1_500  # direct cost, 1.5 us (Section 2.3)

    # Periodic load balancing.
    balance_interval_ns: int = 4 * MS
    imbalance_pct: float = 0.25  # trigger threshold on runnable-count delta
    # Cache-refill penalty charged to a migrated task on its next run
    # (lost L1/L2/TLB state; cross-node adds remote-memory refills).
    migration_cost_in_node_ns: int = 10 * US
    migration_cost_cross_node_ns: int = 25 * US
    # can_migrate_task's cache-hot rejection: a task is not stolen until it
    # has waited this long (Linux's sysctl_sched_migration_cost).
    migration_cold_delay_ns: int = 200 * US
    # Chance a wakeup stays on the previous CPU when it ties the idlest
    # (wake_affine); otherwise the waker spreads the load — the migration
    # churn of Table 1.
    wake_affinity_bias: float = 0.5

    def __post_init__(self) -> None:
        if self.min_granularity_ns <= 0 or self.regular_slice_ns <= 0:
            raise ConfigError("time slices must be positive")
        if self.min_granularity_ns > self.regular_slice_ns:
            raise ConfigError("min granularity cannot exceed the regular slice")
        if not 0.0 < self.imbalance_pct < 1.0:
            raise ConfigError("imbalance_pct must be in (0, 1)")


@dataclass(frozen=True)
class FutexConfig:
    """Cost model for the vanilla futex sleep/wakeup path (Figure 5)."""

    syscall_entry_ns: int = 500
    bucket_lock_hold_ns: int = 350
    sleep_dequeue_ns: int = 900  # remove from rq + state transition
    wakeq_move_ns: int = 250  # bucket queue -> wake_q, per waiter
    # Idlest-core selection scans the online CPUs (select_idle_sibling):
    # cost = base + per_cpu * online_cpus, per waiter.
    select_core_base_ns: int = 200
    select_core_per_cpu_ns: int = 100
    rq_lock_hold_ns: int = 450  # target runqueue lock hold, per waiter
    enqueue_ns: int = 600  # insert into the new runqueue + preempt check + IPI

    def select_core_ns(self, online_cpus: int) -> int:
        return self.select_core_base_ns + self.select_core_per_cpu_ns * online_cpus


@dataclass(frozen=True)
class UserSyncCosts:
    """User-level fast-path costs (no kernel involvement)."""

    fast_ns: int = 80  # uncontended lock acquire/release (one CAS)
    atomic_ns: int = 20  # atomic RMW on a core-local cacheline
    atomic_remote_extra_ns: int = 50  # cacheline transfer from another core
    spin_grant_ns: int = 150  # release-to-acquire handoff between spinners
    flag_write_ns: int = 40  # plain store to a shared flag


@dataclass(frozen=True)
class VirtualBlockingConfig:
    """Virtual blocking (Section 3.1)."""

    enabled: bool = True
    # Flag set/clear plus tail re-insertion on the local runqueue.
    block_cost_ns: int = 250
    wake_cost_ns: int = 300
    # Brief run to poll thread_state when every task on a core is blocked.
    all_blocked_poll_ns: int = 2_000
    # VB is disabled while waiters-on-bucket < online cores (Section 3.1).
    disable_when_undersubscribed: bool = True
    # "immediately schedule threads that are waking from virtual blocking"
    # (Section 3.1) — off for the ablation study.
    immediate_schedule: bool = True


@dataclass(frozen=True)
class BwdConfig:
    """Busy-waiting detection (Section 3.2)."""

    enabled: bool = True
    period_ns: int = 100 * US
    timer_overhead_ns: int = 700  # hrtimer fire + LBR/PMC read, per period
    lbr_entries: int = 16
    # Probability a genuinely spinning window escapes detection (LBR polluted
    # by an interrupt or a migration mid-window).
    miss_probability: float = 0.0012
    # Deschedule + skip-flag bookkeeping cost.
    deschedule_cost_ns: int = 800
    # Skip flag: the descheduled spinner runs again only after every other
    # task on its core was scheduled once (Section 3.2) — off for the
    # ablation study (the spinner just loses the rest of its slice).
    skip_flag: bool = True


@dataclass(frozen=True)
class PleConfig:
    """Intel pause-loop-exiting model (Section 2.4).

    PLE exists only under a hypervisor, and it is the model's only VM
    mechanism, so enabling it is what makes a config a VM guest.  Without
    it a native, container or VM run is one simulation.
    """

    enabled: bool = False
    window_ns: int = 50 * US  # detection latency once PAUSE-spinning
    # PLE acts on the vCPU, not the guest thread: the guest scheduler keeps
    # scheduling spinners, so yielding the vCPU rarely helps thread-level
    # oversubscription. The yield briefly stalls the whole vCPU.
    vcpu_yield_ns: int = 20 * US


@dataclass(frozen=True)
class ProfilingConfig:
    """Paper-profiled workload instruction statistics (Section 3.2)."""

    inst_per_us: float = 3000.0
    inst_per_l1_miss: float = 45.0
    inst_per_tlb_miss: float = 890.0


@dataclass(frozen=True)
class SimConfig:
    """Top-level simulation configuration."""

    hardware: HardwareConfig = field(default_factory=HardwareConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    futex: FutexConfig = field(default_factory=FutexConfig)
    vb: VirtualBlockingConfig = field(
        default_factory=lambda: VirtualBlockingConfig(enabled=False)
    )
    bwd: BwdConfig = field(default_factory=lambda: BwdConfig(enabled=False))
    ple: PleConfig = field(default_factory=PleConfig)
    profiling: ProfilingConfig = field(default_factory=ProfilingConfig)
    user: UserSyncCosts = field(default_factory=UserSyncCosts)
    online_cpus: int | None = None  # None = all CPUs in the topology
    seed: int = 2021
    # Scheduling policy (repro.kernel.policy registry): None defers to the
    # process-wide default (REPRO_POLICY / --policy, "cfs" out of the box).
    policy: str | None = None

    def __post_init__(self) -> None:
        if self.online_cpus is not None and self.online_cpus < 1:
            raise ConfigError("online_cpus must be >= 1")
        if self.policy not in (None, "cfs"):
            # Lazy import: kernel.policy imports this module's siblings.
            from .kernel.policy import validate_policy_name

            validate_policy_name(self.policy)

    def replace(self, **kwargs) -> "SimConfig":
        """Return a copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)


def vanilla_config(
    cores: int = 8,
    *,
    smt: bool = False,
    seed: int = 2021,
    policy: str | None = None,
    **hw_overrides,
) -> SimConfig:
    """Vanilla Linux: no VB, no BWD, no PLE.

    ``cores`` is the number of online CPUs handed to the container/VM, as in
    the paper's evaluation (8 by default).  With ``smt=True`` the online CPUs
    are 2 hyperthreads on each of ``cores/2`` physical cores.
    """
    hw = HardwareConfig(smt=2 if smt else 1, **hw_overrides)
    return SimConfig(hardware=hw, online_cpus=cores, seed=seed, policy=policy)


def optimized_config(
    cores: int = 8,
    *,
    smt: bool = False,
    seed: int = 2021,
    vb: bool = True,
    bwd: bool = True,
    policy: str | None = None,
    **hw_overrides,
) -> SimConfig:
    """The paper's kernel: virtual blocking + busy-waiting detection."""
    hw = HardwareConfig(smt=2 if smt else 1, **hw_overrides)
    return SimConfig(
        hardware=hw,
        online_cpus=cores,
        seed=seed,
        vb=VirtualBlockingConfig(enabled=vb),
        bwd=BwdConfig(enabled=bwd),
        policy=policy,
    )


def ple_config(
    cores: int = 8,
    *,
    seed: int = 2021,
    policy: str | None = None,
    **hw_overrides,
) -> SimConfig:
    """KVM guest with pause-loop-exiting enabled (no VB/BWD)."""
    hw = HardwareConfig(smt=1, **hw_overrides)
    return SimConfig(
        hardware=hw,
        online_cpus=cores,
        seed=seed,
        ple=PleConfig(enabled=True),
        policy=policy,
    )
