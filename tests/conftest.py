"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses
import os

import pytest

# Kernel invariant checking is on for the whole suite: every simulation
# any test runs doubles as a correctness audit.  The checker is read-only,
# so results — including the fixture matches of test_determinism.py — are
# unchanged, and it leaves the kernel's run-ahead of milestones on, so the
# suite audits the per-event path production runs take.
# Respect an explicit opt-out (REPRO_CHECK_INVARIANTS=0) for timing work.
os.environ.setdefault("REPRO_CHECK_INVARIANTS", "1")

from repro.config import (
    HardwareConfig,
    SimConfig,
    optimized_config,
    vanilla_config,
)
from repro.runners.full_report import SECTIONS, ReportParams
from repro.runners.parallel import ParallelRunner


@pytest.fixture
def run_section():
    """Run a report section's own specs: built at ``scale``/``seed``,
    filtered by ``keep(spec_id)``, ``params`` overriding spec params.
    Returns ``{spec id: result}``."""
    def run(key, scale, keep=None, seed=2021, **params) -> dict:
        section = next(s for s in SECTIONS if s.key == key)
        specs = [dataclasses.replace(s, params={**s.params, **params})
                 for s in section.build(ReportParams(scale, False, seed))
                 if keep is None or keep(s.id)]
        values = ParallelRunner(jobs=1, use_cache=False).run(specs)
        return {s.id: v for s, v in zip(specs, values)}
    return run


@pytest.fixture
def small_hw() -> HardwareConfig:
    """A small machine so topology-sensitive tests stay readable."""
    return HardwareConfig(sockets=2, cores_per_socket=4, smt=1)


@pytest.fixture
def vanilla8() -> SimConfig:
    return vanilla_config(cores=8, seed=7)


@pytest.fixture
def vanilla1() -> SimConfig:
    return vanilla_config(cores=1, seed=7)


@pytest.fixture
def vb8() -> SimConfig:
    return optimized_config(cores=8, seed=7, bwd=False)


@pytest.fixture
def bwd8() -> SimConfig:
    return optimized_config(cores=8, seed=7, vb=False, bwd=True)


@pytest.fixture
def vb1() -> SimConfig:
    return optimized_config(cores=1, seed=7, bwd=False)
