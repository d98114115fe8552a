"""Unit tests for the VB policy and the BWD monitor logic."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    BwdConfig,
    ProfilingConfig,
    VirtualBlockingConfig,
    optimized_config,
    vanilla_config,
)
from repro.core.bwd import BwdMonitor, WindowKind
from repro.core.virtual_blocking import VirtualBlockingPolicy
from repro.kernel import Kernel
from repro.kernel.task import ExecProfile, RunMode, Task, TaskState
from repro.prog.actions import Compute, SpinFlag, SpinUntilFlag
from repro.sim.rng import RngStreams

MS = 1_000_000
US = 1_000


def test_vb_policy_disabled():
    pol = VirtualBlockingPolicy(VirtualBlockingConfig(enabled=False))
    assert not pol.wake_in_place(100, 1)


def test_vb_policy_undersubscription_rule():
    pol = VirtualBlockingPolicy(VirtualBlockingConfig(enabled=True))
    assert not pol.wake_in_place(3, 8)  # fewer waiters than cores
    assert pol.wake_in_place(8, 8)
    assert pol.wake_in_place(31, 8)
    assert pol.stats.disabled_undersubscribed == 1


def test_vb_policy_rule_can_be_disabled():
    pol = VirtualBlockingPolicy(
        VirtualBlockingConfig(enabled=True, disable_when_undersubscribed=False)
    )
    assert pol.wake_in_place(1, 8)


def _monitor(seed=0, **kw):
    cfg = BwdConfig(enabled=True, **kw)
    return BwdMonitor(cfg, ProfilingConfig(), RngStreams(seed).draws("bwd"))


def test_bwd_classify_windows():
    mon = _monitor()
    t = Task("t", iter(()))
    t.mode = RunMode.SPIN
    t.mode_since = 0
    t.on_cpu_since = 0
    assert mon._classify(t, window_start=100) is WindowKind.SPIN_FULL
    t.mode_since = 150  # started spinning mid-window
    assert mon._classify(t, window_start=100) is WindowKind.SPIN_PARTIAL
    t.mode = RunMode.COMPUTE
    assert mon._classify(t, window_start=100) is WindowKind.NORMAL


def test_bwd_sensitivity_near_one_in_kernel():
    """A dedicated spinner is detected in nearly every full-spin window."""
    cfg = optimized_config(cores=1, seed=0, vb=False, bwd=True)
    k = Kernel(cfg)
    flag = SpinFlag("never")

    def hog():
        yield Compute(500 * MS)

    def spinner():
        yield SpinUntilFlag(flag, 1)

    k.spawn(hog(), name="hog")
    k.spawn(spinner(), name="spin")
    k.run_for(100 * MS)
    k.shutdown()
    stats = k.bwd.stats
    assert stats.spin_windows > 10
    assert stats.sensitivity > 0.95


def test_bwd_no_detections_without_spinning():
    cfg = optimized_config(cores=2, seed=0, vb=False, bwd=True)
    k = Kernel(cfg)

    def worker():
        for _ in range(100):
            yield Compute(200 * US)

    for i in range(4):
        k.spawn(worker(), name=f"w{i}")
    k.run_to_completion()
    stats = k.bwd.stats
    assert stats.nonspin_windows > 0
    assert stats.true_positives == 0
    # Default profile has tight_loop_prob 0 -> no false positives either.
    assert stats.false_positives == 0


def test_bwd_false_positives_from_tight_loops():
    cfg = optimized_config(cores=1, seed=0, vb=False, bwd=True)
    k = Kernel(cfg)
    profile = ExecProfile(tight_loop_prob=0.2)

    def worker():
        yield Compute(200 * MS)

    k.spawn(worker(), name="w", profile=profile)
    # A second task so the FP deschedule has someone to yield to.
    k.spawn(worker(), name="w2", profile=profile)
    k.run_for(100 * MS)
    k.shutdown()
    stats = k.bwd.stats
    assert stats.false_positives > 0
    assert stats.specificity < 1.0


def test_bwd_deschedules_counted_once_per_detection():
    """Each BWD deschedule counts once in its task's schedstats, so the
    per-task sum and the machine total equal the monitor's count."""
    from repro.telemetry.schedstats import snapshot

    cfg = optimized_config(cores=2, seed=0, vb=False, bwd=True)
    k = Kernel(cfg)
    flag = SpinFlag("never")

    def spinner():
        yield SpinUntilFlag(flag, 1)

    def worker():
        yield Compute(20 * MS)

    for i in range(3):
        k.spawn(spinner(), name=f"s{i}")
    for i in range(2):
        k.spawn(worker(), name=f"w{i}")
    k.run_for(10 * MS)
    count = k.bwd.stats.deschedules
    assert count > 0
    assert sum(t.stats.bwd_deschedules for t in k.tasks) == count
    assert snapshot(k)["machine"]["bwd_deschedules"] == count
    k.shutdown()


def test_bwd_timer_overhead_charged():
    cfg = optimized_config(cores=1, seed=0, vb=False, bwd=True)
    k = Kernel(cfg)

    def worker():
        yield Compute(50 * MS)

    k.spawn(worker(), name="w")
    k.run_to_completion()
    # Timer overhead extends the run: 0.7 us per 100 us -> ~0.7%.
    overhead = k.now / (50 * MS) - 1
    assert 0.003 < overhead < 0.03
    assert k.cpus[0].irq_ns > 0


def test_bwd_detection_latency_bounded():
    """A spinner that occupies a core is descheduled within ~2 periods."""
    cfg = optimized_config(cores=1, seed=0, vb=False, bwd=True)
    k = Kernel(cfg)
    flag = SpinFlag("never")
    descheduled = []

    orig = k.bwd._deschedule

    def spy(cpu_id, task):
        descheduled.append(k.now)
        orig(cpu_id, task)

    k.bwd._deschedule = spy

    def spinner():
        yield SpinUntilFlag(flag, 1)

    def other():
        yield Compute(10 * MS)

    k.spawn(spinner(), name="s")
    k.spawn(other(), name="o")
    k.run_for(5 * MS)
    k.shutdown()
    assert descheduled
    # First deschedule within spin start (t=0) + 2 monitoring periods + CS.
    assert descheduled[0] <= 2 * cfg.bwd.period_ns + 10 * US


def test_bwd_miss_probability_causes_rare_misses():
    mon = _monitor(seed=1, miss_probability=0.5)
    # With a 50% miss probability, synthesized detection fails about half
    # the time; exercised indirectly through synthesize_lbr in the tick.
    from repro.hw.lbr import synthesize_lbr

    rng = np.random.default_rng(1)
    missed = sum(
        not synthesize_lbr(16, 1.0, 1, rng, 0.5).is_spin_signature()
        for _ in range(100)
    )
    assert 25 < missed < 75
