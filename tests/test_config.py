"""Configuration construction and validation."""

from __future__ import annotations

import pytest

from repro.config import (
    BwdConfig,
    ExecMode,
    FutexConfig,
    HardwareConfig,
    PleConfig,
    SchedulerConfig,
    SimConfig,
    optimized_config,
    ple_config,
    vanilla_config,
)
from repro.errors import ConfigError


def test_default_hardware_matches_paper_testbed():
    hw = HardwareConfig()
    assert hw.sockets == 2
    assert hw.total_cores == 36  # dual 18-core Xeon
    assert hw.total_cpus == 72  # hyper-threading enabled
    assert hw.dtlb_l1_entries == 64
    assert hw.dtlb_l2_entries == 1536


def test_default_scheduler_matches_paper():
    s = SchedulerConfig()
    assert s.regular_slice_ns == 3_000_000  # 3 ms
    assert s.min_granularity_ns == 750_000  # 750 us
    assert s.context_switch_ns == 1_500  # 1.5 us


def test_default_bwd_matches_paper():
    b = BwdConfig()
    assert b.period_ns == 100_000  # 100 us
    assert b.lbr_entries == 16


def test_hw_validation():
    with pytest.raises(ConfigError):
        HardwareConfig(sockets=0)
    with pytest.raises(ConfigError):
        HardwareConfig(smt_throughput_factor=0.0)
    with pytest.raises(ConfigError):
        HardwareConfig(page_bytes=100, line_bytes=64)
    with pytest.raises(ConfigError):
        HardwareConfig(prefetch_coverage=1.0)


def test_scheduler_validation():
    with pytest.raises(ConfigError):
        SchedulerConfig(min_granularity_ns=0)
    with pytest.raises(ConfigError):
        SchedulerConfig(min_granularity_ns=10, regular_slice_ns=5)
    with pytest.raises(ConfigError):
        SchedulerConfig(imbalance_pct=0.0)


def test_select_core_cost_scales_with_cpus():
    fc = FutexConfig()
    assert fc.select_core_ns(8) > fc.select_core_ns(1)
    assert fc.select_core_ns(8) == (
        fc.select_core_base_ns + 8 * fc.select_core_per_cpu_ns
    )


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(online_cpus=0)
    with pytest.raises(ConfigError):
        # PLE outside a VM is rejected.
        SimConfig(ple=PleConfig(enabled=True), mode=ExecMode.CONTAINER)


def test_vanilla_config_disables_mechanisms():
    cfg = vanilla_config(cores=8)
    assert not cfg.vb.enabled
    assert not cfg.bwd.enabled
    assert not cfg.ple.enabled
    assert cfg.online_cpus == 8
    assert cfg.hardware.smt == 1


def test_vanilla_smt_config():
    cfg = vanilla_config(cores=8, smt=True)
    assert cfg.hardware.smt == 2


def test_optimized_config_enables_both():
    cfg = optimized_config(cores=8)
    assert cfg.vb.enabled and cfg.bwd.enabled
    partial = optimized_config(cores=8, vb=True, bwd=False)
    assert partial.vb.enabled and not partial.bwd.enabled


def test_ple_config_is_vm():
    cfg = ple_config(cores=8)
    assert cfg.mode is ExecMode.VM
    assert cfg.ple.enabled
    assert not cfg.vb.enabled and not cfg.bwd.enabled


def test_replace_returns_modified_copy():
    cfg = vanilla_config(cores=8)
    other = cfg.replace(seed=999)
    assert other.seed == 999
    assert cfg.seed != 999
